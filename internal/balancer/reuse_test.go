package balancer

import (
	"reflect"
	"testing"
)

// addFleet adds rows to m's table as core's gPool Creator does: each into the
// row NewRow hands out, its bound-class array left as NewRow left it.
func addFleet(m *Mapper, rows []DSTEntry) {
	dst := m.DST()
	for _, r := range rows {
		e := dst.NewRow()
		kinds, shapes := e.BoundKinds, e.Shapes
		*e = r
		e.BoundKinds, e.Shapes = kinds, append(shapes, r.Shapes...)
		dst.AddRow(e)
	}
}

// normalized is m by value with its rows copied and their empty arrays nil: a
// re-initialised mapper keeps the arrays a fresh one has yet to grow, and
// nothing else may tell the two apart.
func normalized(m *Mapper) Mapper {
	n, dst := *m, *m.dst
	dst.entries = nil
	for _, e := range m.dst.entries {
		r := *e
		if len(r.BoundKinds) == 0 {
			r.BoundKinds = nil
		}
		if len(r.Shapes) == 0 {
			r.Shapes = nil
		}
		dst.entries = append(dst.entries, &r)
	}
	n.dst = &dst
	return n
}

// TestReusedMapperRunsAsNew: a mapper that has bound, carved and retired slice
// rows, failed a device, clamped an unbind and learned (and re-learned after a
// drift) class histories, once re-initialised to another fleet, is a fresh
// mapper on that fleet, and answers the same selections the same way.
func TestReusedMapperRunsAsNew(t *testing.T) {
	part := func(gid GID, node int) DSTEntry {
		return DSTEntry{GID: gid, Node: node, Name: "mig", Weight: 2, MemBandwidth: 9000, Partitionable: true,
			TotalFrac: 7, FreeFrac: 7, TotalMem: 800, FreeMem: 800, Shapes: migShapes()}
	}
	whole := func(gid GID, node int, w float64) DSTEntry {
		return DSTEntry{GID: gid, Node: node, Name: "whole", Weight: w, MemBandwidth: 5000 * w}
	}
	used := NewMapper(NewDST(nil), &Arbiter{GWtMin{}, mbf{}})
	addFleet(used, []DSTEntry{whole(0, 0, 1), part(1, 0), whole(2, 1, 2.2), part(3, 1)})
	dst := used.DST()
	for i, kind := range []string{"MC", "GA", "MC", "SC", "GA"} {
		used.Select(Request{AppID: i, Kind: kind, Node: i % 2})
	}
	for i := 0; i < 3; i++ {
		used.Feedback(fb("MC", 8e6, 6.8e6, 5.8e6, 3000, 0.85))
	}
	used.Feedback(fb("MC", 32e6, 27e6, 23e6, 3000, 0.85)) // a drift reset
	used.Feedback(fb("GA", 2e6, 1e6, 0.5e6, 800, 0.4))
	for i, profile := range []string{"2g", "3g"} {
		gid, req := GID(4+i), sliceReq(profile)
		parent, ok := used.SelectSliceAt(0, req)
		if !ok {
			t.Fatalf("no device fits a %s slice", profile)
		}
		dst.CarveCapacity(parent, req.SliceFrac, req.SliceMem)
		row := dst.NewRow()
		row.GID, row.Parent, row.IsSlice, row.Profile, row.Weight = gid, parent, true, profile, 1
		dst.AddRow(row)
		dst.Bind(gid, req.Kind)
	}
	dst.ReturnCapacity(dst.Entry(4).Parent, 2, 200)
	dst.MarkDead(4) // retired; slice 5 is live
	dst.MarkFailure(2)
	dst.MarkFailure(0)
	dst.MarkFailure(0)
	dst.MarkFailure(0)
	used.Release(0, "SC") // never bound there: a clamp
	if dst.UnbindClamps == 0 || used.SFT().DriftResets == 0 || dst.Len() != 6 {
		t.Fatalf("the used mapper misses history: clamps %d, drift resets %d, %d rows",
			dst.UnbindClamps, used.SFT().DriftResets, dst.Len())
	}

	for _, fleet := range [][]DSTEntry{
		{part(0, 0), whole(1, 0, 1.3), whole(2, 1, 2.3)},                                                       // fewer rows, other kinds in the slots
		{whole(0, 0, 1), whole(1, 0, 2.2), part(2, 1), part(3, 1), whole(4, 1, 1), part(5, 1), whole(6, 1, 2)}, // one row more than ever
	} {
		reused := used.Init(&Arbiter{GWtMin{}, mbf{}})
		addFleet(reused, fleet)
		fresh := NewMapper(NewDST(nil), &Arbiter{GWtMin{}, mbf{}})
		addFleet(fresh, fleet)
		if got, want := normalized(reused), normalized(fresh); !reflect.DeepEqual(got, want) {
			t.Fatalf("a re-initialised mapper differs from a fresh one:\n%s\nwant\n%s", dumpDST(reused.DST()), dumpDST(fresh.DST()))
		}
		for i, kind := range []string{"MC", "GA", "MC", "SC", "GA", "MC"} {
			req := Request{AppID: i, Kind: kind, Node: i % 2}
			if got, want := reused.Select(req), fresh.Select(req); got != want {
				t.Fatalf("selection %d: the re-initialised mapper picks %d, a fresh one %d", i, got, want)
			}
			reused.Feedback(fb(kind, 8e6, 6.8e6, 5.8e6, 3000, 0.85))
			fresh.Feedback(fb(kind, 8e6, 6.8e6, 5.8e6, 3000, 0.85))
		}
		got, gotOK := reused.SelectSliceAt(0, sliceReq("3g"))
		want, wantOK := fresh.SelectSliceAt(0, sliceReq("3g"))
		if got != want || gotOK != wantOK {
			t.Fatalf("slice placement: the re-initialised mapper picks %d (%v), a fresh one %d (%v)", got, gotOK, want, wantOK)
		}
		if !reflect.DeepEqual(normalized(reused), normalized(fresh)) {
			t.Fatalf("after the same selections a re-initialised mapper differs from a fresh one:\n%s\nwant\n%s",
				dumpDST(reused.DST()), dumpDST(fresh.DST()))
		}
	}
}
