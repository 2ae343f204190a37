package analysis

import (
	"go/token"
	"go/types"
	"testing"
)

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

func TestTypeHelpers(t *testing.T) {
	pkg := types.NewPackage("p", "p")
	dev := types.NewNamed(types.NewTypeName(token.NoPos, pkg, "Dev", nil), types.NewStruct(nil, nil), nil)
	if got := typeName(dev); got != "Dev" {
		t.Errorf("typeName(Dev) = %q", got)
	}
	if got := typeName(nil); got != "?" {
		t.Errorf("typeName(nil) = %q", got)
	}
	if got := typeName(types.NewSlice(dev)); got != "[]p.Dev" {
		t.Errorf("typeName([]Dev) = %q", got)
	}
}
