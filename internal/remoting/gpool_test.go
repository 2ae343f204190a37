package remoting

import (
	"strings"
	"testing"

	"repro/internal/balancer"
	"repro/internal/gpu"
)

func twoNodes() []NodeInfo {
	return []NodeInfo{
		{Node: 0, Addr: "10.1.2.6", Devices: []gpu.Spec{gpu.Quadro2000, gpu.TeslaC2050}},
		{Node: 1, Addr: "10.1.4.8", Devices: []gpu.Spec{gpu.Quadro4000, gpu.TeslaC2070}},
	}
}

func TestBuildGMapAssignsGIDsInNodeOrder(t *testing.T) {
	g := BuildGMap(twoNodes())
	if g.Len() != 4 {
		t.Fatalf("len = %d", g.Len())
	}
	e, ok := g.Lookup(2)
	if !ok || e.Node != 1 || e.LocalDev != 0 || e.Spec.Name != "Quadro4000" {
		t.Fatalf("GID 2 = %+v", e)
	}
	if _, ok := g.Lookup(4); ok {
		t.Fatal("out-of-range lookup succeeded")
	}
	if _, ok := g.Lookup(-1); ok {
		t.Fatal("negative lookup succeeded")
	}
}

func TestGMapBijective(t *testing.T) {
	g := BuildGMap(twoNodes())
	seen := map[[2]int]bool{}
	for i, e := range g.Entries() {
		if int(e.GID) != i {
			t.Fatalf("GID %d at index %d", e.GID, i)
		}
		key := [2]int{e.Node, e.LocalDev}
		if seen[key] {
			t.Fatalf("duplicate (node, dev) %v", key)
		}
		seen[key] = true
	}
}

func TestDSTDerivation(t *testing.T) {
	dst := BuildGMap(twoNodes()).DST()
	if dst.Len() != 4 {
		t.Fatalf("DST len = %d", dst.Len())
	}
	e := dst.Entry(1)
	if e.Name != "TeslaC2050" || e.Weight != gpu.TeslaC2050.Weight || e.Node != 0 {
		t.Fatalf("DST row = %+v", e)
	}
	if e.MemBandwidth != gpu.TeslaC2050.MemBandwidth {
		t.Fatal("MemBandwidth not propagated")
	}
}

func TestGMapString(t *testing.T) {
	s := BuildGMap(twoNodes()).String()
	if !strings.Contains(s, "TeslaC2070") || !strings.Contains(s, "(1, 1)") {
		t.Fatalf("String output:\n%s", s)
	}
}

func TestEmptyPool(t *testing.T) {
	g := BuildGMap(nil)
	if g.Len() != 0 || g.DST().Len() != 0 {
		t.Fatal("empty pool not empty")
	}
}

func TestGMapMarkDeadAndAliveView(t *testing.T) {
	g := BuildGMap(twoNodes())
	g.MarkDead(1)
	// Rows are never deleted: the dead GID still resolves.
	e, ok := g.Lookup(1)
	if !ok || !e.Dead {
		t.Fatalf("dead row lookup = %+v, %v", e, ok)
	}
	// Idempotent and range-safe.
	g.MarkDead(1)
	g.MarkDead(99)
	g.MarkDead(-1)
	if g.Len() != 4 {
		t.Fatalf("Len after no-op deaths = %d", g.Len())
	}
	// The derived DST carries the health state.
	if h := g.DST().Health(1); h != balancer.Dead {
		t.Fatalf("derived DST health = %v", h)
	}
	if h := g.DST().Health(0); h != balancer.Healthy {
		t.Fatalf("live row derived health = %v", h)
	}
}
