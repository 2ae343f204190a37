package balancer

import (
	"reflect"
	"testing"

	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestMapperAuditedSelections drives SelectAt and SelectSliceAt with a
// recorder installed and holds each decision-audit record to what the policy
// was shown: Rows are the table before the winning bind, the SFT columns are
// the class's history, and Picked is the policy's answer, which the mapper
// binds unchanged (a whole-device request) or leaves to the placement layer
// (a slice request; −1 when nothing fits).
func TestMapperAuditedSelections(t *testing.T) {
	whole := func() *DST {
		d := healthDST(3)
		d.Bind(0, "MC")
		d.Bind(0, "MC")
		d.Bind(1, "SC")
		d.MarkDead(0)
		return d
	}
	// Three partitionable devices: 0 is full, 1 and 2 have room, 1 busier.
	carved := func(full ...GID) func() *DST {
		return func() *DST {
			d := NewDST([]*DSTEntry{partRow(0), partRow(1), partRow(2)})
			d.Bind(1, "MC")
			d.Bind(1, "MC")
			for _, gid := range full {
				d.CarveCapacity(gid, 7, 800)
			}
			return d
		}
	}
	req := Request{AppID: 3, Kind: "MC", Node: 1, Tenant: 9}
	slice := sliceReq("2g")
	slice.AppID, slice.Node, slice.Tenant = 3, 1, 9

	for _, tc := range []struct {
		name string
		dst  func() *DST
		req  Request

		gid     GID
		ok      bool // slice requests only
		selects int
		bound   GID // row whose Load the selection raises, -1 for none
	}{
		{name: "whole/dead idle row skipped", dst: whole, req: req, gid: 2, selects: 1, bound: 2},
		{name: "slice/full row skipped", dst: carved(0), req: slice, gid: 2, ok: true, selects: 1, bound: -1},
		{name: "slice/nothing fits", dst: carved(0, 1, 2), req: slice, gid: -1, bound: -1},
	} {
		dst := tc.dst()
		m := NewMapper(dst, GMin{})
		rec := trace.New()
		m.SetRecorder(rec)
		m.Feedback(&rpcproto.Feedback{Kind: "MC", ExecTime: 4 * sim.Second})
		m.Feedback(&rpcproto.Feedback{Kind: "MC", ExecTime: 2 * sim.Second})

		var rows []trace.DecisionRow
		for _, e := range dst.Entries() {
			row := trace.DecisionRow{GID: int(e.GID), Node: e.Node, Health: e.Health.String(), Load: e.Load, Weight: e.Weight}
			if e.Partitionable {
				row.FreeFrac, row.FreeMem = e.FreeFrac, e.FreeMem
			}
			rows = append(rows, row)
		}
		want := trace.Decision{
			At: 7, App: 3, Class: "MC", Node: 1, Tenant: 9, Policy: "GMin",
			Picked: int(tc.gid), SFTSamples: 2, SFTExec: 3 * sim.Second, Rows: rows,
		}

		gid, ok := GID(0), false
		if tc.req.WantsSlice() {
			gid, ok = m.SelectSliceAt(7, tc.req)
		} else {
			gid = m.SelectAt(7, tc.req)
		}
		if gid != tc.gid || ok != tc.ok {
			t.Errorf("%s: selected (%d, %v), want (%d, %v)", tc.name, gid, ok, tc.gid, tc.ok)
		}
		if got := rec.Snapshot().Decisions; len(got) != 1 || !reflect.DeepEqual(got[0], want) {
			t.Errorf("%s: audit\n got %+v\nwant %+v", tc.name, got, want)
		}
		if selects, feedbacks := m.Stats(); selects != tc.selects || feedbacks != 2 {
			t.Errorf("%s: %d selections, %d feedbacks, want %d, 2", tc.name, selects, feedbacks, tc.selects)
		}
		// A whole-device selection binds its winner after the snapshot; a
		// slice selection, fit or not, leaves the table to the placement layer.
		before := tc.dst()
		before.Bind(tc.bound, "MC")
		for i, e := range dst.Entries() {
			if !reflect.DeepEqual(e, before.Entries()[i]) {
				t.Errorf("%s: row %d ended %+v, want %+v", tc.name, e.GID, *e, *before.Entries()[i])
			}
		}
	}
}

// TestSelectAtWithoutRecorder: with no recorder SelectAt is Select.
func TestSelectAtWithoutRecorder(t *testing.T) {
	m := NewMapper(healthDST(2), NewGRR())
	for want := GID(0); want < 2; want++ {
		if gid := m.SelectAt(5, Request{Kind: "MC"}); gid != want {
			t.Fatalf("SelectAt = %d, want %d", gid, want)
		}
	}
	if n, _ := m.Stats(); n != 2 || m.DST().Entry(0).Load != 1 || m.DST().Entry(1).Load != 1 {
		t.Fatalf("%d selections, loads %d and %d: want 2, 1 and 1", n, m.DST().Entry(0).Load, m.DST().Entry(1).Load)
	}
}

// TestSelectReleaseZeroAlloc: once warm, a selection and its release
// allocate nothing under any policy — the feedback policies included, on a
// 16-row table with every class's history in the SFT and 32 bindings live.
func TestSelectReleaseZeroAlloc(t *testing.T) {
	kinds := []string{"DC", "MC", "GA", "BS"}
	for _, name := range append(Names(), "Frag") {
		pol, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]*DSTEntry, 16)
		for i := range rows {
			rows[i] = &DSTEntry{GID: GID(i), Node: i / 4, LocalDev: i % 4, Weight: float64(1 + i%4), MemBandwidth: 1e4}
		}
		m := NewMapper(NewDST(rows), pol)
		type binding struct {
			gid  GID
			kind string
		}
		var live [32]binding
		fbs := make([]rpcproto.Feedback, len(kinds))
		for i, kind := range kinds {
			fbs[i] = rpcproto.Feedback{Kind: kind, ExecTime: 2 * sim.Second, GPUTime: sim.Second,
				XferTime: 100 * sim.Millisecond, MemBW: 500, GPUUtil: 0.5}
		}
		i := 0
		cycle := func() {
			slot := &live[i%len(live)]
			if i >= len(live) {
				m.Feedback(&fbs[i%len(kinds)])
				m.Release(slot.gid, slot.kind)
			}
			kind := kinds[i%len(kinds)]
			*slot = binding{m.Select(Request{AppID: i, Kind: kind, Node: i % 4, Tenant: int64(i % 8)}), kind}
			i++
		}
		for i < 256 {
			cycle()
		}
		if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
			t.Errorf("%s: %v allocs per Select+Release, want 0", name, allocs)
		}
	}
}
