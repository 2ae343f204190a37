package textform

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

type form struct {
	Name  string
	N     int
	F, G  float64
	D, E  sim.Time
	Items []sim.Time
}

var table = []Field[form]{
	OneOf("name", 0, "name", []string{"a", "b"}, func(x form) string { return x.Name }, func(x *form, v string) { x.Name = v }),
	Int("n", func(x form) int { return x.N }, func(x *form, n int) { x.N = n }),
	Number("f", 1, func(x form) float64 { return x.F }, func(x *form, f float64) { x.F = f }),
	Float("g", func(x form) float64 { return x.G }, func(x *form, f float64) { x.G = f }),
	Duration("d", 0, func(x form) sim.Time { return x.D }, func(x *form, t sim.Time) { x.D = t }),
	Duration("e", -1<<63, func(x form) sim.Time { return x.E }, func(x *form, t sim.Time) { x.E = t }),
	{Key: "items", Parse: func(x *form, v string) (err error) { x.Items, err = List(v, "+", ParseDur); return err },
		Format: func(b []byte, x form) []byte { return AppendList(b, x.Items, "+", AppendDur) }},
}

// TestKV: ParseKV fills a value by table, AppendKV prints it back, and a bad item's error names its fault.
func TestKV(t *testing.T) {
	var x form
	if err := ParseKV(&x, strings.Split("name=b; n=-3;f=0.5;g=-2.5;d=1500ms;e=-2us;items=1s + 2ms;", ";"), table); err != nil {
		t.Fatal(err)
	}
	if want := (form{"b", -3, 0.5, -2.5, 1500 * sim.Millisecond, -2, []sim.Time{sim.Second, 2 * sim.Millisecond}}); !reflect.DeepEqual(x, want) {
		t.Fatalf("parsed %+v, want %+v", x, want)
	}
	if b, n := AppendKV(nil, "{", ",", x, form{Name: "b", Items: x.Items}, table); n != 5 || string(b) != "{n=-3,f=0.5,g=-2.5,d=1500ms,e=-2us" {
		t.Fatalf("printed %q, %d items", b, n)
	}
	for _, tc := range [][2]string{
		{"n", "is not key=value"}, {"z=1", `unknown key "z"; valid: name, n, f, g, d, e, items`}, {"n=1;n=2", `key "n" given twice`},
		{"name=c", `name: unknown name "c"; valid: a, b`}, {"n=x", `"x" is not an integer`}, {"f=2", `"2" is not a number in (0, 1]`},
		{"g=NaN", `"NaN" is not a finite number`}, {"d=-1s", `"-1s" is not a duration of at least 0s`}, {"e=x", `"x" is not a duration`},
	} {
		if err := ParseKV(new(form), strings.Split(tc[0], ";"), table); err == nil || !strings.Contains(err.Error(), tc[1]) {
			t.Errorf("ParseKV(%q) = %v, want an error containing %q", tc[0], err, tc[1])
		}
	}
}
