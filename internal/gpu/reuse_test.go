package gpu

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
)

// reuseScript runs, on d, a seeded program of a few applications, each on a
// context of its own with one or two streams, submitting pooled kernels and
// copies and reserving device memory past its capacity. It runs k to horizon
// (0: to quiescence) and returns what the device did: every op's completion,
// its accounting and each application's usage. made collects the contexts
// and ops the program used.
func reuseScript(k *sim.Kernel, d *Device, seed int64, horizon sim.Time, made map[any]bool) []string {
	rng := rand.New(rand.NewSource(seed))
	var log []string
	d.SetOnComplete(func(op *Op) {
		log = append(log, fmt.Sprintf("app %d %v %d..%d", op.AppID, op.Kind, op.Started, op.Finished))
	})
	apps := 2 + rng.Intn(3)
	for app := 1; app <= apps; app++ {
		streams, ops, mem := 1+rng.Intn(2), 2+rng.Intn(6), int64(1+rng.Intn(3))<<18
		k.Go("app", func(p *sim.Proc) {
			if ev, _ := d.Reserve(mem); ev != nil {
				p.Wait(ev)
			}
			c := d.NewContext()
			c.Owner, made[c] = app, true
			var ss []*Stream
			for range streams {
				ss = append(ss, c.NewStream())
			}
			for i := range ops {
				op := d.GetOp(OpKind(rng.Intn(3)))
				made[op] = true
				op.AppID, op.Bytes, op.Compute, op.Occupancy = app, int64(1+rng.Intn(4000)), float64(1+rng.Intn(50000)), 0.5
				op.Done = k.NewPooledEvent()
				if ev := ss[i%streams].Submit(op); i == ops-1 || rng.Intn(3) == 0 {
					p.Wait(ev)
				}
			}
			d.Free(mem)
			d.DestroyContext(c)
		})
	}
	if horizon > 0 {
		k.RunUntil(horizon)
		return nil
	}
	k.Run()
	for _, id := range d.AppIDs() {
		log = append(log, fmt.Sprintf("app %d usage %+v", id, d.AppUsage(id)))
	}
	return append(log, fmt.Sprintf("%+v contexts %d", d.Stats(), d.Contexts()))
}

// TestReusedDeviceRunsAsNew: a device re-initialised after runs cut off at a
// horizon — ops queued and running, memory waiters queued, contexts live and
// resident — runs the next program, on another spec and id, as a new device
// does, with every op and context the cut runs made back on its free lists.
func TestReusedDeviceRunsAsNew(t *testing.T) {
	spec := testSpec()
	spec.CopyEngines, spec.MaxConcurrentKernels = 1, 2
	for seed := int64(1); seed <= 30; seed++ {
		k := sim.NewKernel(seed)
		want := reuseScript(k, NewDevice(k, spec, 3), seed, 0, map[any]bool{})

		var sp Spares
		made := map[any]bool{}
		d := NewDevice(k, testSpec(), 0)
		for cut := int64(1); cut <= 3; cut++ {
			k.Reset(seed)
			d.Init(k, testSpec(), 0)
			d.SetSpares(&sp)
			reuseScript(k, d, seed+100*cut, sim.Time(cut)*400, made)
		}
		k.Reset(seed)
		d.Init(k, spec, 3)
		d.SetSpares(&sp)
		if n := sp.Len() + len(d.opFree); n != len(made) {
			t.Fatalf("seed %d: Init left %d spare contexts and %d free ops of the %d the cut runs made", seed, sp.Len(), len(d.opFree), len(made))
		}
		if got := reuseScript(k, d, seed, 0, made); !slices.Equal(got, want) {
			t.Fatalf("seed %d: the reused device ran\n%v\na new one\n%v", seed, got, want)
		}
	}
}
