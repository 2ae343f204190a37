package cuda

import (
	"reflect"
	"testing"

	"repro/internal/gpu"
	"repro/internal/sim"
)

// stepOps is a call of every kind, on the handles the runtime hands out first
// (stream 1, events 1 and 2), and a select after exit, which a thread refuses.
var stepOps = []Op{
	{ID: CallSetDevice},
	{ID: CallDeviceCount},
	{ID: CallMalloc, Bytes: 1 << 19},
	{ID: CallMemcpy, Dir: H2D, Bytes: 1 << 12},
	{ID: CallLaunch, Kernel: Kernel{Name: "k", Compute: 1e6, Occupancy: 1}},
	{ID: CallMemcpy, Dir: D2H, Bytes: 1 << 12},
	{ID: CallStreamCreate},
	{ID: CallEventCreate},
	{ID: CallEventCreate},
	{ID: CallEventRecord, Event: 1, Stream: 1},
	{ID: CallMemcpyAsync, Dir: H2D, Bytes: 1 << 12, Stream: 1},
	{ID: CallEventRecord, Event: 2, Stream: 1},
	{ID: CallStreamSync, Stream: 1},
	{ID: CallEventSync, Event: 2},
	{ID: CallEventElapsed, Event: 1, Event2: 2},
	{ID: CallEventDestroy, Event: 1},
	{ID: CallStreamDestroy, Stream: 1},
	{ID: CallDeviceSync},
	{ID: CallFree},
	{ID: CallThreadExit},
	{ID: CallSetDevice},
}

// callLog is what a run of stepOps leaves: each call's end, return and error.
type callLog struct {
	ends []sim.Time
	rets []Ret
	errs []string
}

func (l *callLog) add(now sim.Time, r Ret, err error) {
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	l.ends, l.rets, l.errs = append(l.ends, now), append(l.rets, r), append(l.errs, msg)
}

// runStepOps makes stepOps on a thread of a BlockOnOOM runtime whose device a
// hog holds most of until 5 ms, so the allocation waits: through Issue and
// Await on a daemon with stepper, else through Issue on a process, where each
// call is the blocking method, its waits made inside.
func runStepOps(t *testing.T, stepper bool) callLog {
	t.Helper()
	k := sim.NewKernel(1)
	defer k.Close()
	dev := testDev(k)
	rt := NewRuntime(k, []*gpu.Device{dev}, Config{BlockOnOOM: true})
	hog := dev.Spec().MemBytes * 3 / 4
	if err := dev.Alloc(hog); err != nil {
		t.Fatal(err)
	}
	k.After(5*sim.Millisecond, func() { dev.Free(hog) })
	var log callLog
	var buf Ptr
	op := func(i int) *Op {
		o := stepOps[i]
		if o.ID == CallMemcpy || o.ID == CallMemcpyAsync || o.ID == CallFree {
			o.Ptr = buf
		}
		return &o
	}
	if stepper {
		var th Thread
		rt.InitThread(&th, nil, 7)
		i, busy := 0, false
		var cur *Op
		k.GoDaemon("app", func(d *sim.Daemon) {
			for ; i < len(stepOps); i++ {
				if !busy {
					cur, busy = op(i), true
					th.Issue(cur)
				}
				if !th.Await(d) {
					return
				}
				busy = false
				r, err := th.Result()
				if cur.ID == CallMalloc {
					buf = r.Ptr
				}
				log.add(d.Now(), r, err)
			}
			d.Exit()
		})
	} else {
		k.Go("app", func(p *sim.Proc) {
			th := rt.NewThread(p, 7)
			for i := range stepOps {
				o := op(i)
				th.Issue(o) // on a process, the call's waits are the call's own
				r, err := th.Result()
				if o.ID == CallMalloc {
					buf = r.Ptr
				}
				log.add(p.Now(), r, err)
			}
		})
	}
	k.Run()
	return log
}

// TestStepperMatchesBlockingCalls: a thread a daemon drives through Issue and
// Await ends every call at the instant, and with the return and error, the
// blocking call does on a process.
func TestStepperMatchesBlockingCalls(t *testing.T) {
	want, got := runStepOps(t, false), runStepOps(t, true)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stepped %+v\nblocking %+v", got, want)
	}
	if want.ends[2] < 5*sim.Millisecond || want.rets[2].Ptr.Size != 1<<19 {
		t.Fatalf("the allocation ended at %v with %+v: it did not wait for the hog", want.ends[2], want.rets[2])
	}
	last := len(stepOps) - 1
	if want.rets[6].Stream != 1 || want.rets[8].Event != 2 || want.rets[14].Elapsed <= 0 ||
		want.ends[13] <= want.ends[11] || want.errs[last] != ErrThreadExited.Error() {
		t.Fatalf("returns %+v, errors %q: want stream 1, event 2, a copy timed between the events and the select after exit refused",
			want.rets, want.errs)
	}
	for i, e := range want.errs[:last] {
		if e != "" {
			t.Fatalf("%v failed: %s", stepOps[i].ID, e)
		}
	}
}
