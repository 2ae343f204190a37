package remoting

import (
	"testing"

	"repro/internal/balancer"
	"repro/internal/gpu"
)

func sliceTestGMap() *GMap {
	return BuildGMap([]NodeInfo{
		{Node: 0, Addr: "n0", Devices: []gpu.Spec{gpu.TeslaC2070.WithMIG()}},
		{Node: 1, Addr: "n1", Devices: []gpu.Spec{gpu.TeslaC2070.WithMIG(), gpu.Quadro2000}},
	})
}

func TestGMapAddSlice(t *testing.T) {
	g := sliceTestGMap()
	spec := gpu.TeslaC2070.WithMIG()
	p, _ := spec.ProfileByName("2g")

	gid, err := g.AddSlice(1, 0, "2g", spec.Slice(p))
	if err != nil {
		t.Fatal(err)
	}
	if gid != 3 {
		t.Fatalf("slice gid = %d, want 3 (next free)", gid)
	}
	e, ok := g.Lookup(gid)
	if !ok || !e.Slice || e.Parent != 1 || e.Node != 1 || e.Addr != "n1" || e.Profile != "2g" {
		t.Fatalf("slice row = %+v", e)
	}
	if g.Len() != 4 {
		t.Fatalf("Len = %d, want 4", g.Len())
	}

	// Slices cannot parent slices, and unknown parents fail.
	if _, err := g.AddSlice(gid, 1, "1g", spec); err == nil {
		t.Fatal("slice-of-slice accepted")
	}
	if _, err := g.AddSlice(99, 1, "1g", spec); err == nil {
		t.Fatal("unknown parent accepted")
	}

	// Retiring the slice keeps the row resolvable and the later rows stable.
	g.RetireSlice(gid)
	if e, ok := g.Lookup(gid); !ok || !e.Dead {
		t.Fatalf("retired slice row = %+v ok=%v", e, ok)
	}
	if gid2, err := g.AddSlice(0, 0, "1g", spec.Slice(p)); err != nil || gid2 != 4 {
		t.Fatalf("post-retire AddSlice gid = %d err=%v, want 4 (no renumbering)", gid2, err)
	}
}

func TestGMapDSTDerivesCapacity(t *testing.T) {
	g := sliceTestGMap()
	spec := gpu.TeslaC2070.WithMIG()
	p, _ := spec.ProfileByName("3g")
	gid, err := g.AddSlice(0, 0, "3g", spec.Slice(p))
	if err != nil {
		t.Fatal(err)
	}

	dst := g.DST()
	e0 := dst.Entry(0)
	if !e0.Partitionable || e0.TotalFrac != gpu.SliceFractions || e0.FreeFrac != gpu.SliceFractions {
		t.Fatalf("partitionable row: %+v", e0)
	}
	if e0.TotalMem != spec.MemBytes || e0.FreeMem != spec.MemBytes {
		t.Fatalf("capacity: total=%d free=%d", e0.TotalMem, e0.FreeMem)
	}
	if len(e0.Shapes) != len(spec.SliceProfiles) {
		t.Fatalf("shapes = %d, want %d", len(e0.Shapes), len(spec.SliceProfiles))
	}
	if e2 := dst.Entry(2); e2.Partitionable {
		t.Fatal("non-MIG Quadro2000 marked partitionable")
	}
	es := dst.Entry(balancer.GID(gid))
	if es == nil || !es.IsSlice || es.Parent != 0 || es.Profile != "3g" {
		t.Fatalf("slice DST row = %+v", es)
	}
}
