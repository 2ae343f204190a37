package gpu

import (
	"testing"

	"repro/internal/sim"
)

func migSpec() Spec { return testSpec().WithMIG() }

func TestMIGProfilesShape(t *testing.T) {
	ps := MIGProfiles(800)
	want := []SliceProfile{
		{"1g", 1, 100}, {"2g", 2, 200}, {"3g", 3, 400}, {"4g", 4, 400}, {"7g", 7, 800},
	}
	if len(ps) != len(want) {
		t.Fatalf("got %d profiles, want %d", len(ps), len(want))
	}
	for i, p := range ps {
		if p != want[i] {
			t.Fatalf("profile %d = %+v, want %+v", i, p, want[i])
		}
	}
}

func TestWithMIGAndProfileByName(t *testing.T) {
	s := testSpec()
	if s.Partitionable() {
		t.Fatal("plain spec must not be partitionable")
	}
	m := s.WithMIG()
	if !m.Partitionable() {
		t.Fatal("WithMIG spec must be partitionable")
	}
	p, ok := m.ProfileByName("3g")
	if !ok || p.Frac != 3 || p.MemBytes != s.MemBytes/2 {
		t.Fatalf("3g = %+v ok=%v, want frac 3 mem %d", p, ok, s.MemBytes/2)
	}
	if _, ok := m.ProfileByName("9g"); ok {
		t.Fatal("unknown profile must not resolve")
	}
}

func TestSliceSpecScaling(t *testing.T) {
	parent := migSpec()
	p, _ := parent.ProfileByName("2g")
	sl := parent.Slice(p)
	if sl.Name != parent.Name+"/2g" {
		t.Fatalf("slice name %q", sl.Name)
	}
	f := 2.0 / SliceFractions
	if sl.ComputeRate != parent.ComputeRate*f || sl.MemBandwidth != parent.MemBandwidth*f {
		t.Fatalf("rates not scaled by %v: %+v", f, sl)
	}
	if sl.MemBytes != p.MemBytes {
		t.Fatalf("slice mem %d, want %d", sl.MemBytes, p.MemBytes)
	}
	if sl.Partitionable() {
		t.Fatal("a slice must not be re-sliceable")
	}
	if sl.MaxConcurrentKernels < 1 {
		t.Fatalf("MaxConcurrentKernels %d < 1", sl.MaxConcurrentKernels)
	}
	// A slice spec must make a working device.
	k := sim.NewKernel(1)
	d := NewDevice(k, sl, 1)
	ctx := d.NewContext()
	st := ctx.NewStream()
	var done sim.Time
	k.Go("app", func(p *sim.Proc) {
		ev := st.Submit(&Op{Kind: OpKernel, Compute: 1000})
		p.Wait(ev)
		done = p.Now()
	})
	k.Run()
	if done <= 0 {
		t.Fatal("kernel on slice device never completed")
	}
}
