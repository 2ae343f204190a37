package cuda

import (
	"reflect"
	"testing"

	"repro/internal/gpu"
	"repro/internal/sim"
)

// syncOps is a sync application's calls and two a thread refuses: a stream
// call the Stepper does not make, and a select after exit.
var syncOps = []Op{
	{ID: CallSetDevice},
	{ID: CallMalloc, Bytes: 1 << 19},
	{ID: CallMemcpy, Dir: H2D, Bytes: 1 << 12},
	{ID: CallLaunch, Kernel: Kernel{Name: "k", Compute: 1e6, Occupancy: 1}},
	{ID: CallMemcpy, Dir: D2H, Bytes: 1 << 12},
	{ID: CallStreamCreate},
	{ID: CallDeviceSync},
	{ID: CallFree},
	{ID: CallThreadExit},
	{ID: CallSetDevice},
}

// callLog is what a run of syncOps leaves: each call's end, pointer and error.
type callLog struct {
	ends []sim.Time
	ptrs []Ptr
	errs []string
}

func (l *callLog) add(now sim.Time, p Ptr, err error) {
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	l.ends, l.ptrs, l.errs = append(l.ends, now), append(l.ptrs, p), append(l.errs, msg)
}

// runSyncOps makes syncOps on a thread of a BlockOnOOM runtime whose device a
// hog holds most of until 5 ms, so the allocation waits: through Issue and
// Await on a daemon with stepper, else through the blocking methods.
func runSyncOps(t *testing.T, stepper bool) callLog {
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
		o := syncOps[i]
		if o.ID == CallMemcpy || o.ID == CallFree {
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
			for ; i < len(syncOps); i++ {
				if !busy {
					cur, busy = op(i), true
					th.Issue(cur)
				}
				if !th.Await(d) {
					return
				}
				busy = false
				p, err := th.Result()
				if cur.ID == CallMalloc {
					buf = p
				}
				log.add(d.Now(), p, err)
			}
			d.Exit()
		})
	} else {
		k.Go("app", func(p *sim.Proc) {
			th := rt.NewThread(p, 7)
			for i := range syncOps {
				o, ptr, err := op(i), Ptr{}, error(nil)
				switch o.ID {
				case CallSetDevice:
					err = th.SetDevice(o.Dev)
				case CallMalloc:
					ptr, err = th.Malloc(o.Bytes)
					buf = ptr
				case CallMemcpy:
					err = th.Memcpy(o.Dir, o.Ptr, o.Bytes)
				case CallLaunch:
					err = th.Launch(o.Kernel, o.Stream)
				case CallDeviceSync:
					err = th.DeviceSynchronize()
				case CallFree:
					err = th.Free(o.Ptr)
				case CallThreadExit:
					err = th.ThreadExit()
				default:
					err = ErrNotImplemented
				}
				log.add(p.Now(), ptr, err)
			}
		})
	}
	k.Run()
	return log
}

// TestStepperMatchesBlockingCalls: a thread a daemon drives through Issue and
// Await ends every call at the instant, and with the pointer and error, the
// blocking call does on a process.
func TestStepperMatchesBlockingCalls(t *testing.T) {
	want, got := runSyncOps(t, false), runSyncOps(t, true)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stepped %+v\nblocking %+v", got, want)
	}
	if want.ends[1] < 5*sim.Millisecond || want.ptrs[1].Size != 1<<19 {
		t.Fatalf("the allocation ended at %v with %+v: it did not wait for the hog", want.ends[1], want.ptrs[1])
	}
	if want.errs[5] != ErrNotImplemented.Error() || want.errs[9] != ErrThreadExited.Error() {
		t.Fatalf("errors %q: want the stream call unimplemented and the select after exit refused", want.errs)
	}
}
