package balancer

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// refLoadOf is the reference loadOf: a row's bound classes kept in a map and
// folded in sorted key order. The float sums depend on that order, so the
// production fold over the row's kind-sorted slice must match it bit for bit.
func refLoadOf(e *DSTEntry, bound map[string]int, sft *SFT) devLoad {
	kinds := make([]string, 0, len(bound))
	for k := range bound {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var l devLoad
	for _, kind := range kinds {
		n := float64(bound[kind])
		h, ok := sft.Lookup(kind)
		if !ok {
			l.exec += n * defaultExec / e.Weight
			l.kern += n * defaultExec / 2 / e.Weight
			l.xfer += n * defaultExec / 10
			l.util += n * 0.5
			continue
		}
		kernT := float64(h.GPUTime - h.XferTime)
		if kernT < 0 {
			kernT = 0
		}
		l.exec += n * float64(h.ExecTime) / e.Weight
		l.kern += n * kernT / e.Weight
		l.xfer += n * float64(h.XferTime)
		l.bw += n * h.MemBW / e.MemBandwidth
		l.util += n * h.GPUUtil
	}
	return l
}

// TestLoadOfMatchesReference drives random bind/unbind/feedback sequences
// over a table and, after every step, holds each row's bound classes to a
// map of the live bindings and loadOf to refLoadOf, bit for bit.
func TestLoadOfMatchesReference(t *testing.T) {
	kinds := []string{"MC", "BS", "DC", "SC", "HI", "GA", "B"}
	for round := 0; round < 50; round++ {
		rng := rand.New(rand.NewSource(sweep.FoldSeed(26, uint64(round))))
		dst := pool4()
		sft := NewSFT()
		bound := make([]map[string]int, dst.Len())
		for i := range bound {
			bound[i] = make(map[string]int)
		}
		for step := 0; step < 300; step++ {
			gid := GID(rng.Intn(dst.Len()))
			kind := kinds[rng.Intn(len(kinds))]
			switch rng.Intn(3) {
			case 0:
				dst.Bind(gid, kind)
				bound[gid][kind]++
			case 1:
				dst.Unbind(gid, kind)
				if bound[gid][kind]--; bound[gid][kind] <= 0 {
					delete(bound[gid], kind)
				}
			default:
				gpuT := sim.Time(rng.Int63n(5e6))
				sft.Record(&rpcproto.Feedback{
					Kind: kind, ExecTime: gpuT + sim.Time(rng.Int63n(5e6)), GPUTime: gpuT,
					XferTime: sim.Time(rng.Int63n(int64(gpuT) + 1)), MemBW: 1e3 * rng.Float64(), GPUUtil: rng.Float64(),
				})
			}
			for i, e := range dst.Entries() {
				if len(e.BoundKinds) != len(bound[i]) {
					t.Fatalf("round %d step %d: gid %d binds %v, want %v", round, step, i, e.BoundKinds, bound[i])
				}
				for j, kc := range e.BoundKinds {
					if bound[i][kc.Kind] != kc.N || j > 0 && e.BoundKinds[j-1].Kind >= kc.Kind {
						t.Fatalf("round %d step %d: gid %d binds %v, want %v sorted", round, step, i, e.BoundKinds, bound[i])
					}
				}
				if got, want := loadOf(e, sft), refLoadOf(e, bound[i], sft); got != want {
					t.Fatalf("round %d step %d: gid %d loadOf %+v, reference %+v", round, step, i, got, want)
				}
			}
		}
	}
}
