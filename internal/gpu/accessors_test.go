package gpu

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

func TestDeviceAccessors(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, testSpec(), 3)
	if d.ID() != 3 {
		t.Fatalf("ID = %d, want 3", d.ID())
	}
	if d.Spec().Name != "test" {
		t.Fatalf("Spec name %q", d.Spec().Name)
	}
}

func TestOpPoolRecycles(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, testSpec(), 0)
	op := d.GetOp(OpKernel)
	if op.Kind != OpKernel || !op.pooled {
		t.Fatalf("GetOp gave %+v", op)
	}
	op.Compute = 123
	d.PutOp(op)
	op2 := d.GetOp(OpH2D)
	if op2 != op {
		t.Fatal("free list did not recycle the returned op")
	}
	if op2.Compute != 0 {
		t.Fatal("recycled op was not zeroed")
	}
	if op2.Kind != OpH2D {
		t.Fatalf("recycled op kind %v", op2.Kind)
	}
	d.PutOp(nil)              // must not panic
	d.PutOp(&Op{Kind: OpD2H}) // unpooled: ignored
	if len(d.opFree) != 0 {
		t.Fatalf("unpooled op landed on the free list")
	}
}

func TestOpTimesAndAppCounters(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, testSpec(), 0)
	ctx := d.NewContext()
	s := ctx.NewStream()
	op := &Op{Kind: OpKernel, Compute: 50000, MemTraffic: 1000, AppID: 9}
	k.Go("app", func(p *sim.Proc) {
		p.Wait(s.Submit(op))
	})
	k.Run()
	if op.Finished <= op.Started || op.Started < op.Enqueued {
		t.Fatalf("enqueued %v started %v finished %v", op.Enqueued, op.Started, op.Finished)
	}
	if d.AppMemTraffic(9) != 1000 {
		t.Fatalf("AppMemTraffic = %v, want 1000", d.AppMemTraffic(9))
	}
	// A single resident context is never switched out.
	if got := d.AppUsage(9).SwitchCharge; got != 0 {
		t.Fatalf("SwitchCharge = %v, want 0", got)
	}
}

// The per-application counters live in one record per application: AppIDs
// still lists only applications with recorded service (an owner charged for
// a switch alone is not one), an application never seen reads zero, and
// records keep their values as more are handed out.
func TestAppAccountingRecords(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, testSpec(), 0)
	d.Acct(500).switches += 100
	s := d.NewContext().NewStream()
	const apps = 150 // several slabs of records
	k.Go("apps", func(p *sim.Proc) {
		for id := 1; id <= apps; id++ {
			p.Wait(s.Submit(&Op{Kind: OpKernel, Compute: 50000, MemTraffic: float64(id), AppID: id}))
			p.Wait(s.Submit(&Op{Kind: OpH2D, Bytes: 500, AppID: id}))
		}
	})
	k.Run()
	ids := d.AppIDs()
	if len(ids) != apps || ids[0] != 1 || ids[apps-1] != apps {
		t.Fatalf("AppIDs lists %d applications, want 1..%d", len(ids), apps)
	}
	for _, id := range ids {
		if d.AppMemTraffic(id) != float64(id) || d.AppTransferTime(id) <= 0 ||
			d.AppService(id) <= d.AppTransferTime(id) {
			t.Fatalf("app %d: traffic %v transfer %v service %v", id,
				d.AppMemTraffic(id), d.AppTransferTime(id), d.AppService(id))
		}
	}
	if u := d.AppUsage(500); u.SwitchCharge != 100 || u.Service != 0 {
		t.Fatalf("app 500: switch charge %v service %v, want 100 0", u.SwitchCharge, u.Service)
	}
	if d.AppService(999) != 0 || d.AppMemTraffic(999) != 0 || len(d.apps) != apps+1 {
		t.Fatalf("reading an unknown application recorded it: %d records", len(d.apps))
	}
}

func TestUtilTraceBusyHelpers(t *testing.T) {
	u := &UtilTrace{}
	u.Segment(0, 10, 1.0, 0.5, 1, 1)  // busy
	u.Segment(10, 20, 0, 0, 0, 1)     // idle gap
	u.Segment(20, 30, 0.5, 0.1, 0, 1) // busy again
	u.Segment(30, 40, 0, 0, 0, 0)     // trailing idle

	if !u.Segments[0].Busy() || u.Segments[1].Busy() {
		t.Fatal("Busy() misclassifies segments")
	}
	if got := u.MeanBusy(40); got != 0.5 {
		t.Fatalf("MeanBusy = %v, want 0.5", got)
	}
	if got := u.MeanBusy(0); got != 0 {
		t.Fatalf("MeanBusy(0) = %v", got)
	}
	bb := u.BusyBuckets(40, 4)
	want := []float64{1, 0, 1, 0}
	for i := range bb {
		if bb[i] != want[i] {
			t.Fatalf("BusyBuckets = %v, want %v", bb, want)
		}
	}
	if got := len(u.BusyBuckets(0, 4)); got != 4 {
		t.Fatalf("BusyBuckets(0) length %d", got)
	}
	strip := u.RenderBusy(40, 4)
	if len([]rune(strip)) != 4 {
		t.Fatalf("RenderBusy strip %q", strip)
	}
	if u.BusyGlitchCount() != 1 {
		t.Fatalf("BusyGlitchCount = %d, want 1", u.BusyGlitchCount())
	}
}

func TestUtilTraceWriteJSON(t *testing.T) {
	u := &UtilTrace{}
	u.Segment(0, 10, 0.25, 0.5, 1, 2)
	var buf bytes.Buffer
	if err := u.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got := buf.String()
	want := `[{"from_us":0,"to_us":10,"compute":0.25,"bw":0.5,"copies":1,"ctx":2}]` + "\n"
	if got != want {
		t.Fatalf("WriteJSON = %q, want %q", got, want)
	}
}

func TestSpecNormalizedDefaults(t *testing.T) {
	n := Spec{Name: "bare"}.normalized()
	if n.ComputeRate == 0 || n.MemBandwidth == 0 || n.H2DBandwidth == 0 ||
		n.D2HBandwidth == 0 || n.CopyEngines == 0 || n.TimeSlice == 0 ||
		n.MaxConcurrentKernels == 0 || n.MemBytes == 0 || n.Weight == 0 {
		t.Fatalf("normalized left zero fields: %+v", n)
	}
	full := testSpec()
	full.MaxConcurrentKernels = 4
	if got := full.normalized(); got.ComputeRate != full.ComputeRate || got.MaxConcurrentKernels != 4 {
		t.Fatalf("normalized overwrote set fields: %+v", got)
	}
}
