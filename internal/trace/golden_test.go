package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/parallel"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// goldenCells is the fixed grid of traced runs: the strings-trace default
// scenario (6 Monte Carlo requests at lambda 0.4 on a Quadro 2000 + Tesla
// C2050 Strings node) across seeds and policies.
var goldenCells = []struct {
	seed    int64
	balance string
}{
	{1, "GMin"}, {2, "GMin"}, {1, "GRR"}, {1, "GWtMin"}, {3, "MBF"}, {1, "RTF"},
}

// goldenTraceSHA pins the concatenated JSONL export of the whole grid.
// Captured from the sequential run at commit time; any change to the span
// stream — ordering, field values, encoding — shows up here.
const goldenTraceSHA = "110a26ced8d11ce70b6667eead070c2cdc039243ba507ad164cc6988b175f132"

// runGoldenGrid executes the grid at the given worker count and returns each
// cell's JSONL export, in grid order.
func runGoldenGrid(t *testing.T, workers int) [][]byte {
	t.Helper()
	return parallel.Map(len(goldenCells), workers, func(i int) []byte {
		cell := goldenCells[i]
		sc, err := scenario.Parse(fmt.Sprintf("fleet=Quadro2000+TeslaC2050;mode=strings;balance=%s;streams=MC:6;lambda=0.4;seed=%d",
			cell.balance, cell.seed))
		if err != nil {
			t.Errorf("cell %d: %v", i, err)
			return nil
		}
		rec := trace.New()
		c, r, err := sc.Run(scenario.Env{Recorder: rec})
		if err != nil {
			t.Errorf("cell %d: %v", i, err)
			return nil
		}
		defer c.Close()
		if open := rec.Open(); r.Finished == r.Launched && len(open) > 0 {
			t.Errorf("cell %d: all %d requests finished, but span %+v is open", i, r.Finished, open[0])
		}
		return rec.Snapshot().AppendJSONL(nil)
	})
}

// TestTraceGolden pins the span stream three ways: the export must be
// byte-identical between sequential and oversubscribed-parallel execution,
// its hash must match the value captured at commit time, and the canonical
// JSONL must round-trip through ParseJSONL unchanged.
func TestTraceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full traced grid")
	}
	seq := runGoldenGrid(t, 1)
	par := runGoldenGrid(t, 8)
	if t.Failed() {
		t.FailNow()
	}
	var all []byte
	for i := range goldenCells {
		if !bytes.Equal(seq[i], par[i]) {
			t.Errorf("cell %d (seed %d, %s): trace differs between workers=1 and workers=8",
				i, goldenCells[i].seed, goldenCells[i].balance)
		}
		if len(seq[i]) == 0 {
			t.Errorf("cell %d produced an empty trace", i)
		}
		all = append(all, seq[i]...)
	}
	sum := sha256.Sum256(all)
	if got := hex.EncodeToString(sum[:]); got != goldenTraceSHA {
		t.Errorf("trace golden hash = %s, want %s (span stream drifted)", got, goldenTraceSHA)
	}

	// Round trip: the export is already canonical, so Parse∘Encode is the
	// identity on it.
	for i := range goldenCells {
		set, err := trace.ParseJSONL(seq[i])
		if err != nil {
			t.Fatalf("cell %d: export does not re-parse: %v", i, err)
		}
		if !bytes.Equal(set.AppendJSONL(nil), seq[i]) {
			t.Errorf("cell %d: export is not a ParseJSONL fixed point", i)
		}
		if len(set.Decisions) == 0 {
			t.Errorf("cell %d: no decision-audit records in a Strings-mode run", i)
		}
	}
}
