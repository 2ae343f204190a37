package gpu

import (
	"testing"

	"repro/internal/sim"
)

// A destroyed context goes to the spare list its device shares, from which
// any device on the kernel may take it. Each test here holds one guard of that
// path: a context leaves its old device before it is rebound, a destroyed
// context stays off the list while its device still has it resident, and a
// reused stream forgets whose accounting it cached.

// runOps submits one kernel op of appID on each stream and runs k until all
// are done.
func runOps(k *sim.Kernel, appID int, streams ...*Stream) {
	for _, s := range streams {
		s.Submit(&Op{Kind: OpKernel, Compute: 10000, AppID: appID})
	}
	k.Run()
}

// sharedPair returns two devices on k that share one spare list.
func sharedPair(k *sim.Kernel) (d0, d1 *Device) {
	var sp Spares
	d0, d1 = NewDevice(k, testSpec(), 0), NewDevice(k, testSpec(), 1)
	d0.SetSpares(&sp)
	d1.SetSpares(&sp)
	return d0, d1
}

// spareOff destroys a, resident on d, and makes another context resident, so
// that a becomes spare; it returns that other context.
func spareOff(t *testing.T, k *sim.Kernel, d *Device, a *Context) *Context {
	t.Helper()
	d.DestroyContext(a)
	b := d.NewContext()
	runOps(k, 2, b.NewStream())
	if d.resident != b || d.spares.Len() != 1 {
		t.Fatalf("a destroyed context did not become spare once residency moved on (resident %v, spares %d)", d.resident == b, d.spares.Len())
	}
	return b
}

// TestSpareContextLeavesItsDevice: a context another device rebinds is no
// longer its first device's, which must neither list nor run it.
func TestSpareContextLeavesItsDevice(t *testing.T) {
	k := sim.NewKernel(1)
	d0, d1 := sharedPair(k)
	a := d0.NewContext()
	runOps(k, 1, a.NewStream())
	b := spareOff(t, k, d0, a)
	if got := d1.NewContext(); got != a {
		t.Fatal("the second device did not reuse the spare context")
	}
	if d0.Contexts() != 1 || d1.Contexts() != 1 {
		t.Fatalf("the devices list %d and %d contexts, want 1 and 1", d0.Contexts(), d1.Contexts())
	}
	runOps(k, 1, a.NewStream(), b.NewStream())
	if s0, s1 := d0.Stats(), d1.Stats(); s0.KernelsDone != 3 || s1.KernelsDone != 1 {
		t.Fatalf("the devices ran %d and %d kernels, want 3 and 1", s0.KernelsDone, s1.KernelsDone)
	}
}

// TestDestroyedResidentIsNotHandedOut: the next context made on a device whose
// resident context was destroyed is another one, so that running it charges
// the switch a fresh context's first work does.
func TestDestroyedResidentIsNotHandedOut(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, testSpec(), 0)
	d.SetSpares(&Spares{})
	a := d.NewContext()
	runOps(k, 1, a.NewStream())
	d.DestroyContext(a)
	b := d.NewContext()
	if b == a {
		t.Fatal("the resident context was handed out again")
	}
	runOps(k, 2, b.NewStream())
	if st := d.Stats(); st.Switches != 1 {
		t.Fatalf("%d context switches, want the one from the destroyed resident", st.Switches)
	}
	if d.NewContext() != a {
		t.Fatal("the destroyed context did not become spare once residency moved on")
	}
}

// TestReusedStreamForgetsItsAccounting: application ids restart with every
// cluster, so a stream that served application 1 on one device and serves an
// application 1 on another credits the second device's record.
func TestReusedStreamForgetsItsAccounting(t *testing.T) {
	k := sim.NewKernel(1)
	d0, d1 := sharedPair(k)
	a := d0.NewContext()
	s := a.NewStream()
	runOps(k, 1, s)
	spareOff(t, k, d0, a)
	before := d0.AppService(1)
	if d1.NewContext() != a || a.NewStream() != s {
		t.Fatal("the spare context and its stream were not reused")
	}
	runOps(k, 1, s)
	if d0.AppService(1) != before || d1.AppService(1) == 0 {
		t.Fatalf("application 1's service: %v then %v on the first device, %v on the second; want it on the second only",
			before, d0.AppService(1), d1.AppService(1))
	}
}
