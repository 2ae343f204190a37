package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunMatchesFlagReports holds each scenario to the report, byte for
// byte, that strings-run printed for the same run when it still took one
// flag per setting (the flags each file was captured with are named beside
// it). A -nodes 2 run alternated its streams over the two nodes.
func TestRunMatchesFlagReports(t *testing.T) {
	cases := []struct {
		file, flags string
		args        []string
	}{
		{"default.out", "(none)", nil},
		{"rain-tfs-supernode.out", "-mode rain -balance GRR -dev TFS -streams MC:4,SC:3 -nodes 2 -lambda 0.8 -seed 7",
			[]string{"-scenario", "fleet=Quadro2000+TeslaC2050/Quadro4000+TeslaC2070;mode=rain;balance=GRR;dev=TFS;streams=MC:4,SC:3@1;lambda=0.8;seed=7"}},
		{"cuda-pipelined.out", "-mode cuda -streams DC:3,MC:3 -style pipelined -seed 2",
			[]string{"-scenario", "mode=cuda;streams=DC:3,MC:3;style=pipelined;seed=2"}},
		{"ps-multithread-memguard.out", "-dev PS -balance MBF -streams BS:4,GA:6,EV:2 -nodes 2 -style multithread -memguard",
			[]string{"-scenario", "fleet=Quadro2000+TeslaC2050/Quadro4000+TeslaC2070;balance=MBF;dev=PS;streams=BS:4,GA:6@1,EV:2;style=multithread;memguard=true"}},
		{"las-rtf.out", "-dev LAS -balance RTF -streams HI:5,MM:2 -lambda 0.3 -seed 4",
			[]string{"-scenario", "balance=RTF;dev=LAS;streams=HI:5,MM:2;lambda=0.3;seed=4"}},
	}
	for _, tc := range cases {
		want, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 0 {
			t.Fatalf("run(%v) = %d, stderr:\n%s", tc.args, code, stderr.String())
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("run(%v) (formerly %s) printed\n%s\nwant (testdata/%s)\n%s", tc.args, tc.flags, stdout.String(), tc.file, want)
		}
	}
}

// TestRunReplaysHorizonCell replays Fig 11's TFS-Strings cell for pair B as
// the experiment suite prints it, cut at its 40 s window: every request is
// still in flight at the horizon, and the report gives each tenant's service
// in the window, what the figure's Jain index is computed from.
func TestRunReplaysHorizonCell(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "fig11-tfs-strings-B.out"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	cell := "fleet=TeslaC2050;balance=GRR;dev=TFS;streams=DC:8/every=1s,MC:40/every=500ms;horizon=40s"
	if code := run([]string{"-scenario", cell}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("-scenario %q printed\n%s\nwant (testdata/fig11-tfs-strings-B.out)\n%s", cell, stdout.String(), want)
	}
}

// TestRunRejectsBadScenarios: a scenario that does not parse, a cluster-tier
// one, and one core.New refuses each exit 1 with the reason.
func TestRunRejectsBadScenarios(t *testing.T) {
	for _, tc := range []struct{ scenario, want string }{
		{"streams=MC:1;mode=vulkan", "valid: cuda, rain, strings"},
		{"supernodes=2;arrivals=poisson:rate=1,horizon=1s", "strings-bench -exp cluster"},
		{"streams=MC:1;mode=rain;dev=PS", "PS is a Strings-only policy"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-scenario", tc.scenario}, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("-scenario %q: exit %d, stderr %q; want exit 1 naming %q", tc.scenario, code, stderr.String(), tc.want)
		}
	}
	if code := run([]string{"-streams", "MC:1"}, new(bytes.Buffer), new(bytes.Buffer)); code != 1 {
		t.Errorf("-streams: exit %d, want 1 (the only flag is -scenario)", code)
	}
}
