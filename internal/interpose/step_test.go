package interpose

import (
	"reflect"
	"testing"

	"repro/internal/balancer"
	"repro/internal/cuda"
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/trace"
)

// stepOps is a sync application's calls, a select once bound (ignored) and one
// after exit (refused).
var stepOps = []cuda.Op{
	{ID: cuda.CallSetDevice},
	{ID: cuda.CallMalloc, Bytes: 1 << 20},
	{ID: cuda.CallMemcpy, Dir: cuda.H2D, Bytes: 1 << 16},
	{ID: cuda.CallLaunch, Kernel: cuda.Kernel{Name: "k", Compute: 1, Occupancy: 1}},
	{ID: cuda.CallMemcpy, Dir: cuda.D2H, Bytes: 1 << 16},
	{ID: cuda.CallSetDevice, Dev: 3},
	{ID: cuda.CallDeviceSync},
	{ID: cuda.CallFree},
	{ID: cuda.CallThreadExit},
	{ID: cuda.CallSetDevice},
}

// stepRun is what a run of stepOps leaves on both ends and in the trace.
type stepRun struct {
	ends     []sim.Time
	ptrs     []cuda.Ptr
	errs     []string
	received []*rpcproto.Call
	selected []balancer.Request
	feedback []*rpcproto.Feedback
	jsonl    string
}

// runStepOps makes stepOps on an interposer one hop from the mapper, over a
// shared-memory link that charges for the payload, with a recorder: through
// Issue and Await on a daemon with stepper, else through the blocking methods
// on a process.
func runStepOps(t *testing.T, async, stepper bool) stepRun {
	t.Helper()
	k := sim.NewKernel(1)
	defer k.Close()
	f := newFakeFabric(k)
	f.hop = rpcproto.SharedMemLink.Latency
	f.conn = rpcproto.NewConn(k, rpcproto.SharedMemLink) // the backend takes it when it first runs
	f.conn.SetPools(&f.pool, &f.pool)
	rec := trace.New()
	var out stepRun
	var buf cuda.Ptr
	op := func(i int) *cuda.Op {
		o := stepOps[i]
		if o.ID == cuda.CallMemcpy || o.ID == cuda.CallFree {
			o.Ptr = buf
		}
		return &o
	}
	add := func(now sim.Time, p cuda.Ptr, err error) {
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		out.ends, out.ptrs, out.errs = append(out.ends, now), append(out.ptrs, p), append(out.errs, msg)
		if p.Size > 0 {
			buf = p
		}
	}
	if stepper {
		var ip Interposer
		ip.Init(f, k, 9, 3, 2, "MC", 0, async)
		ip.SetTrace(rec, 0)
		i, busy := 0, false
		k.GoDaemon("app", func(d *sim.Daemon) {
			for ; i < len(stepOps); i++ {
				if !busy {
					busy = true
					ip.Issue(op(i))
				}
				if !ip.Await(d) {
					return
				}
				busy = false
				ptr, err := ip.Result()
				add(d.Now(), ptr, err)
			}
			d.Exit()
		})
	} else {
		k.Go("app", func(p *sim.Proc) {
			ip := New(f, p, 9, 3, 2, "MC", 0, async)
			ip.SetTrace(rec, 0)
			for i := range stepOps {
				o, ptr, err := op(i), cuda.Ptr{}, error(nil)
				switch o.ID {
				case cuda.CallSetDevice:
					err = ip.SetDevice(o.Dev)
				case cuda.CallMalloc:
					ptr, err = ip.Malloc(o.Bytes)
				case cuda.CallMemcpy:
					err = ip.Memcpy(o.Dir, o.Ptr, o.Bytes)
				case cuda.CallLaunch:
					err = ip.Launch(o.Kernel, o.Stream)
				case cuda.CallDeviceSync:
					err = ip.DeviceSynchronize()
				case cuda.CallFree:
					err = ip.Free(o.Ptr)
				case cuda.CallThreadExit:
					err = ip.ThreadExit()
				}
				add(p.Now(), ptr, err)
			}
		})
	}
	k.Run()
	out.received, out.selected, out.feedback = f.received, f.selected, f.feedback
	out.jsonl = string(rec.Snapshot().AppendJSONL(nil))
	return out
}

// TestStepperMatchesBlockingCalls: an interposer a daemon drives through Issue
// and Await, under Strings and under Rain, sends the backend the calls the
// blocking methods send, ends each call at the same instant with the same
// result, relays the same feedback and records the same spans.
func TestStepperMatchesBlockingCalls(t *testing.T) {
	for _, async := range []bool{true, false} {
		want, got := runStepOps(t, async, false), runStepOps(t, async, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("async %v: stepped %+v\nblocking %+v", async, got, want)
		}
		if len(want.received) != 8 || len(want.selected) != 1 || len(want.feedback) != 1 || want.errs[9] != cuda.ErrThreadExited.Error() {
			t.Fatalf("async %v: %d calls, %d selections, %d feedbacks, errors %q: the run did not go as scripted",
				async, len(want.received), len(want.selected), len(want.feedback), want.errs)
		}
	}
}
