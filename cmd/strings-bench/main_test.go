package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// TestRunRejectsInvalidFlags pins the CLI's failure mode: every invalid
// flag value exits 1 and the error names the valid range or alternatives,
// so a typo'd sweep script fails fast instead of silently running the
// wrong configuration.
func TestRunRejectsInvalidFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string // substrings the stderr message must contain
	}{
		{"negative parallel", []string{"-parallel", "-1"},
			[]string{"invalid -parallel -1", ">= 0", "0 = GOMAXPROCS", "1 = sequential"}},
		{"negative pairs", []string{"-pairs", "-1"},
			[]string{"invalid -pairs -1", "valid range: 1..24"}},
		{"zero pairs", []string{"-pairs", "0"},
			[]string{"invalid -pairs 0", "valid range: 1..24"}},
		{"unknown experiment", []string{"-exp", "fig99"},
			[]string{"unknown experiment", "table1", "fig9", "opt-in", "faults, cluster"}},
		{"bad cluster spec", []string{"-exp", "cluster", "-scenario", "supernodes=3;arrivals=lunar:rate=1"},
			[]string{"invalid -scenario", "unknown arrival process"}},
		{"single-deployment scenario", []string{"-exp", "cluster", "-scenario", "streams=MC:8"},
			[]string{"invalid -scenario", "no supernodes="}},
		{"unparsable flag", []string{"-requests", "xyz"}, []string{"invalid value"}},
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

// TestRunExperimentHappyPath runs a small figure sweep end to end and
// checks the table and the closing run count reach stdout.
func TestRunExperimentHappyPath(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-exp", "table1", "-requests", "2", "-pairs", "2"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, stderr:\n%s", args, code, stderr.String())
	}
	for _, want := range []string{"Table I", "simulations"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout.String())
		}
	}
}

// TestRunClusterExperiment runs a small -exp cluster end to end: one table
// with a series per placement policy, tenant conservation readable from it,
// and stdout byte-identical across -parallel once the wall-clock footer is
// stripped.
func TestRunClusterExperiment(t *testing.T) {
	runCSV := func(extra ...string) string {
		t.Helper()
		args := append([]string{
			"-exp", "cluster", "-csv",
			"-scenario", "supernodes=3;fleet=Quadro2000+TeslaC2050/Quadro2000+TeslaC2050;arrivals=poisson:rate=0.8,horizon=40s,kind=GA,life=12s,lambda=1s",
		}, extra...)
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run(%v) = %d, stderr:\n%s", args, code, stderr.String())
		}
		body, footer, ok := strings.Cut(stdout.String(), "\n(")
		if !ok || !strings.Contains(footer, "s wall)") {
			t.Fatalf("run(%v): no wall-clock footer:\n%s", args, stdout.String())
		}
		return body
	}

	seq := runCSV("-parallel", "1")
	rows := strings.Split(strings.TrimSpace(seq), "\n")
	if got, want := rows[0], "label,"+strings.Join(cluster.Policies(), ","); got != want {
		t.Fatalf("header = %q, want %q (one series per placement policy)", got, want)
	}
	cells := map[string][]string{}
	for _, row := range rows[1:] {
		f := strings.Split(row, ",")
		cells[f[0]] = f[1:]
	}
	for i, policy := range cluster.Policies() {
		num := func(label string) int {
			v, err := strconv.Atoi(cells[label][i])
			if err != nil {
				t.Fatalf("%s/%s: %v", policy, label, err)
			}
			return v
		}
		if born := num("born"); born == 0 || num("placed")+num("rejected") != born {
			t.Errorf("%s: placed %d + rejected %d != born %d", policy, num("placed"), num("rejected"), born)
		}
	}

	if par := runCSV("-parallel", "4"); par != seq {
		t.Errorf("-parallel 4 changed the table:\n%s\nvs -parallel 1:\n%s", par, seq)
	}
}
