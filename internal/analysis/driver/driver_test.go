package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestStandaloneOutput runs the whole pipeline — go list, typecheck, the
// suite, sorting, rendering — over the simclock fixture and pins both output
// forms: file names relative to dir, position order, exit status 2.
func TestStandaloneOutput(t *testing.T) {
	const (
		dir     = "../testdata/src/simclock"
		readMsg = " reads the wall clock in a sim-driven package; the kernel's virtual clock (sim.Time) is the only clock that may influence behaviour (//lint:allow simclock -- <reason> to suppress)"
	)
	want := []Finding{
		{"simclock.go", 13, 15, "simclock", "time.Time is wall-clock state in a sim-driven package; carry virtual sim.Time instead (//lint:allow simclock -- <reason> to suppress)"},
		{"simclock.go", 17, 11, "simclock", "time.Now" + readMsg},
		{"simclock.go", 18, 7, "simclock", "time.Sleep" + readMsg},
		{"simclock.go", 20, 14, "simclock", "time.After" + readMsg},
	}

	var text bytes.Buffer
	if code := Standalone(&text, dir, []string{"."}, false); code != 2 {
		t.Fatalf("text run exited %d, want 2:\n%s", code, text.String())
	}
	var wantText strings.Builder
	for _, f := range want {
		// The line format .github/stringscheck-problem-matcher.json parses.
		fmt.Fprintf(&wantText, "%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
	}
	if text.String() != wantText.String() {
		t.Errorf("text output:\n%s\nwant:\n%s", text.String(), wantText.String())
	}

	var js bytes.Buffer
	if code := Standalone(&js, dir, []string{"."}, true); code != 2 {
		t.Fatalf("json run exited %d, want 2:\n%s", code, js.String())
	}
	var got []Finding
	if err := json.Unmarshal(js.Bytes(), &got); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("json output (%v):\n%s\nwant %+v", err, js.String(), want)
	}
	if head := "[\n  {\n    \"file\": \"simclock.go\",\n    \"line\": 13,\n"; !strings.HasPrefix(js.String(), head) {
		t.Errorf("json output starts %q, want %q", js.String()[:min(len(head), js.Len())], head)
	}

	// A clean package prints the machine-readable all-clear, and a pattern
	// go list cannot resolve is an operational failure, not a finding.
	var clean bytes.Buffer
	if code := Standalone(&clean, "../testdata/src/notsim", nil, true); code != 0 || clean.String() != "[]\n" {
		t.Errorf("clean run exited %d printing %q, want 0 and []", code, clean.String())
	}
	if code := Standalone(&bytes.Buffer{}, dir, []string{"./nosuchdir"}, false); code != 1 {
		t.Errorf("unresolvable pattern exited %d, want 1", code)
	}
}
