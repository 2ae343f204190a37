package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsInvalidFlags pins the CLI's failure mode: every invalid
// scenario key or flag value exits 1 and the error names the valid
// alternatives, matching strings-bench's -exp behavior.
func TestRunRejectsInvalidFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string // substrings the stderr message must contain
	}{
		{"unknown kind", []string{"-scenario", "streams=ZZ:6"}, []string{"unknown benchmark", "MC", "DC", "SN"}},
		{"unknown mode", []string{"-scenario", "streams=MC:6;mode=vulkan"}, []string{"unknown mode", "cuda", "rain", "strings"}},
		{"unknown balance", []string{"-scenario", "streams=MC:6;balance=BOGUS"}, []string{"unknown balancing policy", "GRR", "GMin", "MBF"}},
		{"zero count", []string{"-scenario", "streams=MC:0"}, []string{"count must be at least 1"}},
		{"negative count", []string{"-scenario", "streams=MC:-3"}, []string{"count must be at least 1"}},
		{"zero width", []string{"-width", "0"}, []string{"-width must be at least 1"}},
		{"zero lambda", []string{"-scenario", "streams=MC:6;lambda=0"}, []string{"lambda", "is not a positive number"}},
		{"unparsable flag", []string{"-width", "xyz"}, []string{"invalid value"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 1 {
				t.Fatalf("run(%v) = %d, want exit code 1", tc.args, code)
			}
			for _, want := range tc.want {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr missing %q:\n%s", want, stderr.String())
				}
			}
		})
	}
}

// TestRunHappyPath runs a small scenario end to end and checks the exports
// land on disk in their advertised formats.
func TestRunHappyPath(t *testing.T) {
	dir := t.TempDir()
	chromePath := filepath.Join(dir, "trace.json")
	jsonlPath := filepath.Join(dir, "trace.jsonl")
	var stdout, stderr bytes.Buffer
	args := []string{
		"-scenario", "streams=MC:2;mode=strings;balance=GMin",
		"-trace", chromePath, "-jsonl", jsonlPath, "-audit",
	}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, stderr:\n%s", args, code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"request timeline", "decision audit:", "GID 0", "GID 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}

	chrome, err := os.ReadFile(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(chrome, &events); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("chrome trace is empty")
	}

	jsonl, err := os.ReadFile(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(jsonl), "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("jsonl trace is empty")
	}
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("jsonl line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		switch rec["t"] {
		case "span", "event", "decision":
		default:
			t.Fatalf("jsonl line %d has unknown record type %v", i+1, rec["t"])
		}
	}
}

// TestRunDeterministic pins that two identical invocations produce
// byte-identical stdout and exports.
func TestRunDeterministic(t *testing.T) {
	dir := t.TempDir()
	invoke := func(tag string) (string, []byte) {
		path := filepath.Join(dir, tag+".jsonl")
		var stdout, stderr bytes.Buffer
		args := []string{"-scenario", "streams=MC:3;lambda=0.4", "-jsonl", path}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run(%v) = %d, stderr:\n%s", args, code, stderr.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// The export path differs between the two runs; strip it from the
		// comparison.
		return strings.ReplaceAll(stdout.String(), path, "OUT"), data
	}
	out1, data1 := invoke("a")
	out2, data2 := invoke("b")
	if out1 != out2 {
		t.Errorf("stdout differs between identical runs:\n--- first\n%s\n--- second\n%s", out1, out2)
	}
	if !bytes.Equal(data1, data2) {
		t.Error("jsonl export differs between identical runs")
	}
}
