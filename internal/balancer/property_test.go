package balancer

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// The property tests drive every selection policy over randomized DST/SFT
// tables (seeded FoldSeed streams, so failures replay) and check the
// invariants the Mapper relies on:
//
//   - GMin/GWtMin return an argmin of their score over the Healthy rows
//     whenever one exists.
//   - GRR visits every healthy device exactly once per rotation.
//   - The feedback policies never select a non-Healthy row while a Healthy
//     one exists (a Dead pick would route work to a corpse).
//
// On failure the offending table is shrunk row by row before printing, so
// the counterexample is minimal.

const propertyRounds = 300

var propertyKinds = []string{"MC", "BS", "DC", "SC", "HI"}

// randTables builds a random DST/SFT pair. Row health is uniform over
// Healthy/Suspect/Dead, so the all-dead, mixed and all-healthy regimes are
// all exercised.
func randTables(rng *rand.Rand) (*DST, *SFT) {
	n := 1 + rng.Intn(8)
	rows := make([]*DSTEntry, n)
	for i := range rows {
		rows[i] = &DSTEntry{
			GID:          GID(i),
			Node:         rng.Intn(3),
			LocalDev:     i,
			Name:         fmt.Sprintf("gpu-%d", i),
			Weight:       0.5 + 3.5*rng.Float64(),
			ComputeRate:  1e9 * (1 + rng.Float64()),
			MemBandwidth: 1e4 * (1 + rng.Float64()),
			Load:         rng.Intn(20),
			Health:       Health(rng.Intn(3)), // Healthy, Suspect or Dead
			BoundKinds:   make(map[string]int),
		}
		for _, kind := range propertyKinds {
			if rng.Intn(3) == 0 {
				rows[i].BoundKinds[kind] = 1 + rng.Intn(4)
			}
		}
	}
	sft := NewSFT()
	for _, kind := range propertyKinds {
		for s := rng.Intn(4); s > 0; s-- {
			gpuT := sim.Time(rng.Int63n(5e6))
			sft.Record(&rpcproto.Feedback{
				Kind:     kind,
				ExecTime: gpuT + sim.Time(rng.Int63n(5e6)),
				GPUTime:  gpuT,
				XferTime: sim.Time(rng.Int63n(int64(gpuT) + 1)),
				MemBW:    1e3 * rng.Float64(),
				GPUUtil:  rng.Float64(),
			})
		}
	}
	return NewDST(rows), sft
}

func healthyGIDs(dst *DST) []GID {
	var out []GID
	for _, e := range dst.Entries() {
		if e.Health == Healthy {
			out = append(out, e.GID)
		}
	}
	return out
}

// dumpDST renders a table for counterexample reports.
func dumpDST(dst *DST) string {
	var b strings.Builder
	for _, e := range dst.Entries() {
		fmt.Fprintf(&b, "  gid %d node %d %-7v load %-3d weight %.3f bound %v\n",
			e.GID, e.Node, e.Health, e.Load, e.Weight, e.BoundKinds)
	}
	return b.String()
}

// shrinkDST minimizes a failing table: it repeatedly removes rows while the
// violation persists. fails must be side-effect free on the table.
func shrinkDST(dst *DST, fails func(*DST) bool) *DST {
	cur := dst
	for {
		smaller := false
		for drop := 0; drop < cur.Len(); drop++ {
			rows := make([]*DSTEntry, 0, cur.Len()-1)
			for i, e := range cur.Entries() {
				if i == drop {
					continue
				}
				// Copy so renumbering never corrupts the original.
				c := *e
				c.GID = GID(len(rows))
				rows = append(rows, &c)
			}
			if len(rows) == 0 {
				continue
			}
			if cand := NewDST(rows); fails(cand) {
				cur = cand
				smaller = true
				break
			}
		}
		if !smaller {
			return cur
		}
	}
}

// checkProperty runs a policy property over randomized tables, shrinking and
// reporting the first counterexample.
func checkProperty(t *testing.T, name string, fails func(rng *rand.Rand, dst *DST, sft *SFT) (bool, string)) {
	t.Helper()
	for round := 0; round < propertyRounds; round++ {
		seed := sweep.FoldSeed(20260806, uint64(round))
		rng := rand.New(rand.NewSource(seed))
		dst, sft := randTables(rng)
		bad, why := fails(rng, dst, sft)
		if !bad {
			continue
		}
		min := shrinkDST(dst, func(d *DST) bool {
			b, _ := fails(rand.New(rand.NewSource(seed)), d, sft)
			return b
		})
		_, minWhy := fails(rand.New(rand.NewSource(seed)), min, sft)
		if minWhy == "" {
			minWhy = why
		}
		t.Fatalf("%s violated (round %d, seed %d): %s\nshrunk counterexample (%d rows):\n%s",
			name, round, seed, minWhy, min.Len(), dumpDST(min))
	}
}

// scoreArgminProperty asserts pick is Healthy and score-minimal over the
// healthy rows.
func scoreArgminProperty(dst *DST, pick GID, score func(*DSTEntry) float64) string {
	healthy := healthyGIDs(dst)
	if len(healthy) == 0 {
		return "" // degenerate pool: any answer is allowed
	}
	e := dst.Entry(pick)
	if e == nil {
		return fmt.Sprintf("picked gid %d outside the table", pick)
	}
	if e.Health != Healthy {
		return fmt.Sprintf("picked gid %d with health %v while healthy rows exist", pick, e.Health)
	}
	got := score(e)
	for _, gid := range healthy {
		if s := score(dst.Entry(gid)); s < got {
			return fmt.Sprintf("picked gid %d with score %g, but healthy gid %d scores %g", pick, got, gid, s)
		}
	}
	return ""
}

func TestGMinIsArgminOverHealthyRows(t *testing.T) {
	checkProperty(t, "GMin argmin", func(rng *rand.Rand, dst *DST, sft *SFT) (bool, string) {
		req := Request{AppID: 1, Kind: propertyKinds[rng.Intn(len(propertyKinds))], Node: rng.Intn(3)}
		pick := GMin{}.Select(req, dst, sft)
		why := scoreArgminProperty(dst, pick, func(e *DSTEntry) float64 { return float64(e.Load) })
		return why != "", why
	})
}

func TestGWtMinIsArgminOverHealthyRows(t *testing.T) {
	checkProperty(t, "GWtMin argmin", func(rng *rand.Rand, dst *DST, sft *SFT) (bool, string) {
		req := Request{AppID: 1, Kind: propertyKinds[rng.Intn(len(propertyKinds))], Node: rng.Intn(3)}
		pick := GWtMin{}.Select(req, dst, sft)
		why := scoreArgminProperty(dst, pick, func(e *DSTEntry) float64 {
			return float64(e.Load) / e.Weight
		})
		return why != "", why
	})
}

// TestGRRVisitsEveryHealthyDeviceOncePerRotation pins the round-robin
// invariant: with the table frozen, len(healthy) consecutive selections
// return each healthy device exactly once.
func TestGRRVisitsEveryHealthyDeviceOncePerRotation(t *testing.T) {
	checkProperty(t, "GRR rotation", func(rng *rand.Rand, dst *DST, sft *SFT) (bool, string) {
		healthy := healthyGIDs(dst)
		if len(healthy) == 0 {
			return false, ""
		}
		g := NewGRR()
		req := Request{AppID: 1, Kind: "MC", Node: 0}
		// Start the cursor at a random phase to cover mid-rotation states.
		for burn := rng.Intn(len(healthy)); burn > 0; burn-- {
			g.Select(req, dst, sft)
		}
		seen := make(map[GID]int)
		for i := 0; i < len(healthy); i++ {
			pick := g.Select(req, dst, sft)
			if e := dst.Entry(pick); e == nil || e.Health != Healthy {
				return true, fmt.Sprintf("rotation step %d picked non-healthy gid %d", i, pick)
			}
			seen[pick]++
		}
		for _, gid := range healthy {
			if seen[gid] != 1 {
				return true, fmt.Sprintf("rotation visited gid %d %d times (healthy set %v, seen %v)",
					gid, seen[gid], healthy, seen)
			}
		}
		return false, ""
	})
}

// TestFeedbackPoliciesNeverPickDeadRows pins the health invariant for every
// feedback policy, with and without SFT history (the no-history paths
// delegate to GWtMin, which must uphold it too).
func TestFeedbackPoliciesNeverPickDeadRows(t *testing.T) {
	policies := []Policy{RTF{}, GUF{}, DTF{}, MBF{}}
	for _, pol := range policies {
		pol := pol
		t.Run(pol.Name(), func(t *testing.T) {
			checkProperty(t, pol.Name()+" health", func(rng *rand.Rand, dst *DST, sft *SFT) (bool, string) {
				if rng.Intn(4) == 0 {
					sft = NewSFT() // exercise the no-history delegation path
				}
				req := Request{AppID: 1, Kind: propertyKinds[rng.Intn(len(propertyKinds))], Node: rng.Intn(3)}
				pick := pol.Select(req, dst, sft)
				healthy := healthyGIDs(dst)
				if len(healthy) == 0 {
					return false, ""
				}
				e := dst.Entry(pick)
				if e == nil {
					return true, fmt.Sprintf("picked gid %d outside the table", pick)
				}
				if e.Health != Healthy {
					return true, fmt.Sprintf("picked gid %d with health %v while %d healthy rows exist",
						pick, e.Health, len(healthy))
				}
				return false, ""
			})
		})
	}
}

// TestArbiterSwitchesAtThreshold pins the Policy Arbiter's switching rule on
// randomized histories: below MinSamples the static policy answers, at or
// above it the feedback policy does.
func TestArbiterSwitchesAtThreshold(t *testing.T) {
	for round := 0; round < 50; round++ {
		rng := rand.New(rand.NewSource(sweep.FoldSeed(7, uint64(round))))
		dst, _ := randTables(rng)
		min := 1 + rng.Intn(4)
		a := NewArbiter(GWtMin{}, RTF{}, min)
		sft := NewSFT()
		req := Request{AppID: 1, Kind: "MC", Node: 0}
		for s := 0; s <= min; s++ {
			want := GWtMin{}.Select(req, dst, sft)
			if sft.Samples("MC") >= min {
				want = RTF{}.Select(req, dst, sft)
			}
			if got := a.Select(req, dst, sft); got != want {
				t.Fatalf("round %d: with %d samples (threshold %d) arbiter picked %d, want %d",
					round, sft.Samples("MC"), min, got, want)
			}
			sft.Record(&rpcproto.Feedback{Kind: "MC", ExecTime: 1e6, GPUTime: 5e5, GPUUtil: 0.5})
		}
	}
}
