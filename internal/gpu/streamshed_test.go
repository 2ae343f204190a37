package gpu

import (
	"testing"

	"repro/internal/sim"
)

// TestDestroyStreamShedsDispatchScan pins the O(live streams) property of a
// packed context: destroyed streams leave the context's stream list, so the
// driver's per-evaluation dispatch scan stays proportional to live
// applications instead of applications ever served. Before the fix a
// million-request run spent most of its wall time re-scanning dead streams.
// The next stream is the destroyed one again, under the next id.
func TestDestroyStreamShedsDispatchScan(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, testSpec(), 0)
	ctx := d.NewContext()
	keep := ctx.NewStream()
	var churned *Stream
	k.Go("churn", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			s := ctx.NewStream()
			if churned != nil && s != churned || s.id != i+1 {
				t.Errorf("stream %d is %p with id %d: want the destroyed %p under id %d", i, s, s.id, churned, i+1)
			}
			churned = s
			p.Wait(s.Submit(&Op{Kind: OpH2D, Bytes: 10}))
			ctx.DestroyStream(s)
		}
	})
	k.Run()
	if got := len(ctx.streams); got != 1 {
		t.Fatalf("context retains %d streams after churn, want 1 (the kept stream)", got)
	}
	if ctx.streams[0] != keep {
		t.Fatal("surviving stream is not the one kept alive")
	}
	if ctx.nextStream != 101 {
		t.Fatalf("stream ids not monotonic across destroys: nextStream = %d, want 101", ctx.nextStream)
	}
}

// TestDestroyStreamRefusesLiveWork: a stream with queued or in-flight ops is
// left in place — destruction is only legal after the CUDA layer drains it.
func TestDestroyStreamRefusesLiveWork(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, testSpec(), 0)
	ctx := d.NewContext()
	s := ctx.NewStream()
	k.Go("app", func(p *sim.Proc) {
		ev := s.Submit(&Op{Kind: OpKernel, Compute: 50000})
		ctx.DestroyStream(s) // op still queued or running: must be a no-op
		if len(ctx.streams) != 1 {
			t.Errorf("busy stream was destroyed (%d streams left)", len(ctx.streams))
		}
		p.Wait(ev)
		ctx.DestroyStream(s) // drained now: removal proceeds
		if len(ctx.streams) != 0 {
			t.Errorf("drained stream was not destroyed (%d streams left)", len(ctx.streams))
		}
	})
	k.Run()
}
