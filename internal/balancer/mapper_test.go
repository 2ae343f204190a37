package balancer

import (
	"maps"
	"reflect"
	"testing"

	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestMapperAuditedSelections drives SelectAt and SelectSliceAt with a
// recorder installed and holds each decision-audit record to what the policy
// was shown: Rows are the table before the winning bind, the SFT columns are
// the class's history, and Raw/Picked/Spilled tell the policy's answer from
// the mapper's. The stubborn policy stands in for any Policy that names a row
// the request cannot use; every in-tree policy filters by eligibility itself
// (TestSliceEligibility), so only a foreign one reaches the spill-over.
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
		name   string
		dst    func() *DST
		policy Policy
		req    Request

		gid             GID
		ok              bool // slice requests only
		raw, picked     int
		spilled         bool
		spills, selects int
		bound           GID // row whose Load the selection raises, -1 for none
	}{
		{name: "whole/policy names a dead row", dst: whole, policy: stubbornPolicy{0}, req: req,
			gid: 2, raw: 0, picked: 2, spilled: true, spills: 1, selects: 1, bound: 2},
		{name: "whole/policy names a healthy row", dst: whole, policy: GMin{}, req: req,
			gid: 2, raw: 2, picked: 2, selects: 1, bound: 2},
		{name: "slice/policy names a full row", dst: carved(0), policy: stubbornPolicy{0}, req: slice,
			gid: 2, ok: true, raw: 0, picked: 2, spilled: true, spills: 1, selects: 1, bound: -1},
		{name: "slice/policy names a row that fits", dst: carved(0), policy: GMin{}, req: slice,
			gid: 2, ok: true, raw: 2, picked: 2, selects: 1, bound: -1},
		{name: "slice/nothing fits", dst: carved(0, 1, 2), policy: stubbornPolicy{0}, req: slice,
			gid: 0, ok: false, raw: -1, picked: -1, bound: -1},
	} {
		dst := tc.dst()
		m := NewMapper(dst, tc.policy)
		rec := trace.New()
		m.SetRecorder(rec)
		m.Feedback(&rpcproto.Feedback{Kind: "MC", ExecTime: 4 * sim.Second})
		m.Feedback(&rpcproto.Feedback{Kind: "MC", ExecTime: 2 * sim.Second})

		var rows []trace.DecisionRow
		var before []DSTEntry
		for _, e := range dst.Entries() {
			row := trace.DecisionRow{GID: int(e.GID), Node: e.Node, Health: e.Health.String(), Load: e.Load, Weight: e.Weight}
			if e.Partitionable {
				row.FreeFrac, row.FreeMem = e.FreeFrac, e.FreeMem
			}
			rows = append(rows, row)
			cp := *e
			cp.BoundKinds = maps.Clone(e.BoundKinds)
			before = append(before, cp)
		}
		want := trace.Decision{
			At: 7, App: 3, Class: "MC", Node: 1, Tenant: 9, Policy: m.policy.Name(),
			Raw: tc.raw, Picked: tc.picked, Spilled: tc.spilled,
			SFTSamples: 2, SFTExec: 3 * sim.Second, Rows: rows,
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
		selects, feedbacks := m.Stats()
		if m.Spills() != tc.spills || selects != tc.selects || feedbacks != 2 {
			t.Errorf("%s: %d spills, %d selections, %d feedbacks, want %d, %d, 2", tc.name, m.Spills(), selects, feedbacks, tc.spills, tc.selects)
		}
		// A whole-device selection binds its winner after the snapshot; a
		// slice selection, fit or not, leaves the table to the placement layer.
		for i, e := range dst.Entries() {
			if e.GID == tc.bound {
				before[i].Load++
				before[i].BoundKinds["MC"]++
			}
			if !reflect.DeepEqual(*e, before[i]) {
				t.Errorf("%s: row %d ended %+v, want %+v", tc.name, e.GID, *e, before[i])
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
