package analysis

import "testing"

func TestAnyUsedAndAllRan(t *testing.T) {
	d := &AllowDirective{}
	if anyUsed(d) {
		t.Error("fresh directive reported used")
	}
	d.markUsed("simclock")
	if !anyUsed(d) {
		t.Error("marked directive reported unused")
	}

	pass := &Pass{ran: map[string]bool{}}
	if allRan(pass) {
		t.Error("empty run set reported complete")
	}
	for _, a := range All() {
		pass.ran[a.Name] = true
	}
	if !allRan(pass) {
		t.Error("full run set reported incomplete")
	}
}
