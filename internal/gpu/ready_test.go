package gpu

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
)

// TestReadyListMatchesFullScan drives seeded op scripts — several contexts,
// streams created and destroyed as they go, kernels held back by a
// concurrency limit of two, markers, copies both ways — through a device whose
// driver is checked after every step: each context's ready list must be
// exactly the streams a full scan finds neither busy nor empty, in id order,
// and only those are marked listed.
func TestReadyListMatchesFullScan(t *testing.T) {
	var steps, held, waiting int
	for seed := int64(1); seed <= 200; seed++ {
		s, h, w := runReadyScript(t, seed)
		steps, held, waiting = steps+s, held+h, waiting+w
	}
	t.Logf("%d driver steps: %d left the resident context a held-back stream, %d left another context's streams waiting", steps, held, waiting)
	if held == 0 || waiting == 0 {
		t.Fatal("the scripts no longer hold kernels back or queue work on a non-resident context")
	}
}

// runReadyScript runs one script and returns the driver steps it took and how
// many of them ended with streams listed on the resident context, and on
// another one.
func runReadyScript(t *testing.T, seed int64) (steps, held, waiting int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	k := sim.NewKernel(seed)
	spec := testSpec()
	spec.MaxConcurrentKernels = 2
	d := &Device{k: k, spec: spec.normalized(), slowdown: 1, apps: make(map[int]*AppAcct)}
	k.StartDaemon(&d.drv, func() string { return "gpu0-driver" }, func(dm *sim.Daemon) {
		d.driver(dm)
		steps++
		for _, c := range d.contexts {
			var want []*Stream
			for _, s := range c.streams {
				if !s.busy && s.queue.Len() > 0 {
					want = append(want, s)
				}
				if s.listed != (!s.busy && s.queue.Len() > 0) {
					t.Fatalf("seed %d step %d: stream %d of context %d listed %v, busy %v, %d queued",
						seed, steps, s.id, c.id, s.listed, s.busy, s.queue.Len())
				}
			}
			if !slices.Equal(c.ready, want) {
				t.Fatalf("seed %d step %d: context %d ready list %v, a full scan finds %v", seed, steps, c.id, ids(c.ready), ids(want))
			}
			switch {
			case len(want) == 0:
			case c == d.resident:
				held++
			default:
				waiting++
			}
		}
	})
	ctxs := make([][]*Stream, 1+rng.Intn(3))
	for i := range ctxs {
		c := d.NewContext()
		for j := 0; j < 1+rng.Intn(4); j++ {
			ctxs[i] = append(ctxs[i], c.NewStream())
		}
	}
	for w := 0; w < 2+rng.Intn(4); w++ {
		ci, ops := rng.Intn(len(ctxs)), 5+rng.Intn(30)
		wrng := rand.New(rand.NewSource(rng.Int63()))
		k.Go(fmt.Sprintf("submitter-%d", w), func(p *sim.Proc) {
			c := d.contexts[ci]
			for i := 0; i < ops; i++ {
				p.Sleep(sim.Time(wrng.Intn(4) * wrng.Intn(40)))
				live := ctxs[ci]
				s := live[wrng.Intn(len(live))]
				switch r := wrng.Intn(10); {
				case r == 0 && len(live) > 1 && !s.busy && s.queue.Len() == 0:
					c.DestroyStream(s)
					ctxs[ci] = slices.DeleteFunc(live, func(x *Stream) bool { return x == s })
				case r == 1:
					ctxs[ci] = append(live, c.NewStream())
				default:
					op := &Op{Kind: OpKind(wrng.Intn(4)), Bytes: int64(1+wrng.Intn(8)) << 12, Compute: float64(1+wrng.Intn(8)) * 1e6, Occupancy: 0.5}
					if op.Kind > OpKernel {
						op.Kind = OpMarker
					}
					if done := s.Submit(op); wrng.Intn(3) == 0 {
						p.Wait(done)
					}
				}
			}
		})
	}
	k.Run()
	for _, c := range d.contexts {
		if c.pending != 0 || len(c.ready) != 0 {
			t.Fatalf("seed %d: context %d ends with %d ops pending and %d streams listed", seed, c.id, c.pending, len(c.ready))
		}
	}
	return steps, held, waiting
}

func ids(ss []*Stream) []int {
	var out []int
	for _, s := range ss {
		out = append(out, s.id)
	}
	return out
}
