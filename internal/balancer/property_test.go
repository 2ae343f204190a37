package balancer

import (
	"fmt"
	"math/rand"
	"slices"
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
//   - No policy, for a classic or a slice request, picks a non-Healthy or
//     ineligible row while a Healthy eligible one exists — the guarantee that
//     lets the Mapper bind what the policy picks.
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
			BoundKinds:   randKinds(rng),
		}
	}
	return NewDST(rows), randSFT(rng)
}

// randKinds draws a row's bound classes, sorted by kind as Bind keeps them.
func randKinds(rng *rand.Rand) []KindCount {
	var kinds []KindCount
	for _, kind := range propertyKinds {
		if rng.Intn(3) == 0 {
			kinds = append(kinds, KindCount{kind, 1 + rng.Intn(4)})
		}
	}
	slices.SortFunc(kinds, func(a, b KindCount) int { return strings.Compare(a.Kind, b.Kind) })
	return kinds
}

// randSFT draws up to three reports for each class.
func randSFT(rng *rand.Rand) *SFT {
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
	return sft
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
// feedback policy as ByName builds it, with and without SFT history (without
// it the Policy Arbiter answers with GWtMin, which must uphold it too).
func TestFeedbackPoliciesNeverPickDeadRows(t *testing.T) {
	for _, name := range []string{"RTF", "GUF", "DTF", "MBF"} {
		pol, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			checkProperty(t, name+" health", func(rng *rand.Rand, dst *DST, sft *SFT) (bool, string) {
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
// randomized tables for every feedback policy ByName builds: until the class
// has a report GWtMin answers, from the first report on the feedback policy
// does.
func TestArbiterSwitchesAtThreshold(t *testing.T) {
	for round := 0; round < 50; round++ {
		rng := rand.New(rand.NewSource(sweep.FoldSeed(7, uint64(round))))
		dst, _ := randTables(rng)
		req := Request{AppID: 1, Kind: "MC", Node: rng.Intn(3)}
		for _, name := range []string{"RTF", "GUF", "DTF", "MBF"} {
			pol, _ := ByName(name)
			a := pol.(*Arbiter)
			sft := NewSFT()
			for s := 0; s < 3; s++ {
				want := GWtMin{}.Select(req, dst, sft)
				if s > 0 {
					want = a.Feedback.Select(req, dst, sft)
				}
				if got := a.Select(req, dst, sft); got != want {
					t.Fatalf("round %d, %s: with %d samples the arbiter picked %d, want %d",
						round, name, s, got, want)
				}
				sft.Record(&rpcproto.Feedback{Kind: "MC", ExecTime: 1e6, GPUTime: 5e5, XferTime: 1e5, GPUUtil: 0.5})
			}
		}
	}
}

// randFleet builds a random table of whole devices, partitionable devices
// with part of their capacity carved, and slice rows, at every health.
func randFleet(rng *rand.Rand) *DST {
	shapes := migShapes()
	n := 1 + rng.Intn(8)
	rows := make([]*DSTEntry, n)
	for i := range rows {
		e := &DSTEntry{
			GID:          GID(i),
			Node:         rng.Intn(3),
			Weight:       0.5 + 3.5*rng.Float64(),
			MemBandwidth: 1e4 * (1 + rng.Float64()),
			Load:         rng.Intn(6),
			Health:       Health(rng.Intn(3)),
			BoundKinds:   randKinds(rng),
		}
		switch rng.Intn(3) {
		case 1:
			e.Partitionable, e.Shapes = true, shapes
			e.TotalFrac, e.TotalMem = 7, 800
			e.FreeFrac, e.FreeMem = rng.Intn(8), 100*rng.Int63n(9)
		case 2:
			e.IsSlice, e.Parent, e.Profile = true, GID(rng.Intn(n)), "2g"
		}
		rows[i] = e
	}
	return NewDST(rows)
}

// TestPoliciesPickHealthyEligibleRows holds every ByName policy, through the
// Mapper, to the guarantee the Mapper relies on to bind what the policy
// picks: whenever the table has a Healthy row eligible for the request, the
// pick is one. A slice request with no eligible row parks instead.
func TestPoliciesPickHealthyEligibleRows(t *testing.T) {
	for _, name := range append(Names(), "Frag") {
		t.Run(name, func(t *testing.T) {
			for round := 0; round < propertyRounds; round++ {
				rng := rand.New(rand.NewSource(sweep.FoldSeed(20261015, uint64(round))))
				pol, _ := ByName(name)
				dst := randFleet(rng)
				m := NewMapper(dst, pol)
				m.sft = randSFT(rng)
				for pick := 0; pick < 4; pick++ {
					req := Request{AppID: pick, Kind: propertyKinds[rng.Intn(len(propertyKinds))], Node: rng.Intn(3)}
					if rng.Intn(2) == 0 {
						s := migShapes()[rng.Intn(len(migShapes()))]
						req.SliceProfile, req.SliceFrac, req.SliceMem = s.Name, s.Frac, s.Mem
					}
					exists := slices.ContainsFunc(dst.Entries(), func(e *DSTEntry) bool {
						return e.Health == Healthy && eligible(e, req)
					})
					var gid GID
					if req.WantsSlice() {
						var ok bool
						if gid, ok = m.SelectSliceAt(0, req); ok != exists {
							t.Fatalf("round %d pick %d: slice %s placed=%v with a fit existing=%v\n%s",
								round, pick, req.SliceProfile, ok, exists, dumpDST(dst))
						}
					} else {
						gid = m.Select(req)
					}
					if e := dst.Entry(gid); exists && (e == nil || e.Health != Healthy || !eligible(e, req)) {
						t.Fatalf("round %d pick %d: %+v picked gid %d (%+v) while a Healthy eligible row exists\n%s",
							round, pick, req, gid, e, dumpDST(dst))
					}
				}
			}
		})
	}
}
