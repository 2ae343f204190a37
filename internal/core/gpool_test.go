package core

import (
	"testing"

	"repro/internal/balancer"
	"repro/internal/gpu"
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestDSTIsTheGMap: the gPool Creator's DST is the paper's gMap — GIDs in
// node order, each GID naming exactly one (node, local device) — and every
// row carries its device's normalized weights and, when partitionable, the
// device's whole capacity and its profile shapes.
func TestDSTIsTheGMap(t *testing.T) {
	nodes := []NodeConfig{
		{Devices: []gpu.Spec{gpu.Quadro2000, gpu.TeslaC2070.WithMIG()}},
		{Devices: []gpu.Spec{gpu.Quadro4000, gpu.Spec{Name: "bare"}.WithMIG()}},
	}
	c, err := New(Config{Seed: 1, Nodes: nodes, Mode: ModeStrings})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dst := c.Mapper().DST()
	if dst.Len() != 4 {
		t.Fatalf("DST has %d rows, want 4", dst.Len())
	}
	gid := 0
	for n, node := range nodes {
		for i, spec := range node.Devices {
			e, dev := dst.Entries()[gid], c.Devices()[gid].Spec()
			if e.GID != balancer.GID(gid) || dst.Entry(e.GID) != e || e.Node != n || e.LocalDev != i || e.Name != spec.Name {
				t.Fatalf("row %d = gid %d (%d, %d) %s, want gid %d (%d, %d) %s",
					gid, e.GID, e.Node, e.LocalDev, e.Name, gid, n, i, spec.Name)
			}
			if e.Weight != dev.Weight || e.ComputeRate != dev.ComputeRate || e.MemBandwidth != dev.MemBandwidth {
				t.Fatalf("gid %d weights %v/%v/%v, device %v/%v/%v", gid,
					e.Weight, e.ComputeRate, e.MemBandwidth, dev.Weight, dev.ComputeRate, dev.MemBandwidth)
			}
			if e.IsSlice || e.Partitionable != spec.Partitionable() {
				t.Fatalf("gid %d: IsSlice %v, Partitionable %v", gid, e.IsSlice, e.Partitionable)
			}
			want := 0
			if spec.Partitionable() {
				want = gpu.SliceFractions
			}
			if e.TotalFrac != want || e.FreeFrac != want {
				t.Fatalf("gid %d compute %d/%d sevenths, want %d", gid, e.FreeFrac, e.TotalFrac, want)
			}
			if spec.Partitionable() && (e.TotalMem != dev.MemBytes || e.FreeMem != dev.MemBytes) {
				t.Fatalf("gid %d memory %d/%d, device has %d", gid, e.FreeMem, e.TotalMem, dev.MemBytes)
			}
			if len(e.Shapes) != len(spec.SliceProfiles) {
				t.Fatalf("gid %d has %d shapes, want %d", gid, len(e.Shapes), len(spec.SliceProfiles))
			}
			for j, p := range spec.SliceProfiles {
				if s := e.Shapes[j]; s.Name != p.Name || s.Frac != p.Frac || s.Mem != p.MemBytes {
					t.Fatalf("gid %d shape %d = %+v, profile %+v", gid, j, s, p)
				}
			}
			gid++
		}
	}
}

// TestMIGSpecWithDefaultMemoryCarves: a MIG spec that leaves MemBytes to
// the device default sizes its profiles from the normalized 4 GiB, so its
// DST row must hold the same 4 GiB — a row read from the raw spec holds 0
// and parks every slice request forever.
func TestMIGSpecWithDefaultMemoryCarves(t *testing.T) {
	c, err := New(Config{Seed: 1, Mode: ModeStrings, Balance: "Frag",
		Nodes: []NodeConfig{{Devices: []gpu.Spec{gpu.Spec{Name: "bare"}.WithMIG()}}}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.Run([]workload.StreamSpec{sliceStream(1, "1g", 2)})
	if err != nil || r.Finished != r.Launched || r.SliceCarves != 1 {
		t.Fatalf("launched=%d finished=%d parks=%d carves=%d errors=%v err=%v",
			r.Launched, r.Finished, r.SliceParks, r.SliceCarves, r.Errors, err)
	}
}

// TestNewRejectsBadSliceProfiles: a profile takes 1..7 sevenths and a
// positive share of memory no larger than the device's, and New says so
// with an error instead of panicking.
func TestNewRejectsBadSliceProfiles(t *testing.T) {
	mem := gpu.TeslaC2050.MemBytes
	for _, tc := range []struct {
		name string
		frac int
		mem  int64
		ok   bool
	}{
		{"no compute", 0, 1, false},
		{"one seventh", 1, 1, true},
		{"whole device", gpu.SliceFractions, mem, true},
		{"more compute than the device", gpu.SliceFractions + 1, 1, false},
		{"no memory", 1, 0, false},
		{"more memory than the device", 1, mem + 1, false},
	} {
		spec := gpu.TeslaC2050
		spec.SliceProfiles = []gpu.SliceProfile{{Name: "x", Frac: tc.frac, MemBytes: tc.mem}}
		c, err := New(Config{Seed: 1, Mode: ModeStrings, Nodes: []NodeConfig{{Devices: []gpu.Spec{spec}}}})
		if (err == nil) != tc.ok {
			t.Errorf("%s: New error = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if c != nil {
			c.Close()
		}
	}
}

// TestRemoteSliceConnectsOverRemoteLink: a slice row carries its parent's
// node, so a node-0 tenant whose slice is carved on node 1 reaches it over
// RemoteLink. The tenant, the mapper and every control message stay on node
// 0, so the backend connection is the only thing RemoteLink's latency can
// slow down.
func TestRemoteSliceConnectsOverRemoteLink(t *testing.T) {
	run := func(lat sim.Time) sim.Time {
		cfg := Config{Seed: 1, Mode: ModeStrings, Balance: "Frag",
			Nodes: []NodeConfig{
				{Devices: []gpu.Spec{gpu.Quadro2000}},
				{Devices: []gpu.Spec{gpu.TeslaC2050.WithMIG()}},
			},
			RemoteLink: rpcproto.LinkSpec{Latency: lat, Bandwidth: rpcproto.RemoteLink.Bandwidth}}
		r := mustRun(t, cfg, []workload.StreamSpec{sliceStream(1, "1g", 1)})
		if r.SliceCarves != 1 {
			t.Fatalf("carves = %d, want 1", r.SliceCarves)
		}
		return r.AvgCompletion(workload.Gaussian)
	}
	const extra = sim.Millisecond
	near, far := run(rpcproto.RemoteLink.Latency), run(rpcproto.RemoteLink.Latency+extra)
	if far-near < 2*extra {
		t.Fatalf("completion %v at the default remote latency, %v with %v more: the connection did not pay RemoteLink",
			near, far, extra)
	}
}
