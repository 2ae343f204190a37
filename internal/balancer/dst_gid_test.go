package balancer

import "testing"

func TestDSTAddRowAndRetire(t *testing.T) {
	dst := NewDST([]*DSTEntry{{GID: 0}, {GID: 1}})
	dst.AddRow(&DSTEntry{GID: 7, Name: "slice", IsSlice: true, Parent: 1, Profile: "2g"})
	if dst.Len() != 3 {
		t.Fatalf("Len = %d, want 3", dst.Len())
	}
	e := dst.Entry(7)
	if e == nil || !e.IsSlice || e.Parent != 1 {
		t.Fatalf("Entry(7) = %+v", e)
	}
	if e.Weight != 1 {
		t.Fatalf("AddRow did not default Weight: %v", e.Weight)
	}
	dst.MarkDead(7)
	if dst.Entry(7).Health != Dead {
		t.Fatal("retired row not Dead")
	}
	// Retired rows stay resolvable and never shift their neighbours.
	if dst.Entry(1) == nil || dst.Entry(1).GID != 1 {
		t.Fatal("retire disturbed other rows")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate-GID AddRow did not panic")
		}
	}()
	dst.AddRow(&DSTEntry{GID: 7})
}

// The Unbind clamp cases: an Unbind with nothing to remove is a
// double-unbind bug upstream and must be observable, not silently absorbed.
func TestDSTUnbindClampMetric(t *testing.T) {
	dst := NewDST([]*DSTEntry{{GID: 0}})
	dst.Unbind(0, "MC") // never bound: load clamp + kind clamp
	if dst.UnbindClamps != 2 {
		t.Fatalf("UnbindClamps = %d, want 2", dst.UnbindClamps)
	}
	dst.Bind(0, "MC")
	dst.Unbind(0, "BS") // load ok, wrong kind
	if dst.UnbindClamps != 3 {
		t.Fatalf("UnbindClamps = %d, want 3", dst.UnbindClamps)
	}
	if got := dst.Entry(0).Load; got != 0 {
		t.Fatalf("load = %d, want 0", got)
	}
	// Unknown GIDs are not clamps (the caller's GID is simply gone).
	dst.Unbind(99, "MC")
	if dst.UnbindClamps != 3 {
		t.Fatalf("unknown-gid unbind counted a clamp: %d", dst.UnbindClamps)
	}
}

// NewDST documents an ownership transfer: it retains the rows and
// normalizes them in place. This pins the documented behaviour so a future
// defensive copy is a deliberate API change.
func TestNewDSTTakesOwnershipAndNormalizes(t *testing.T) {
	row := &DSTEntry{GID: 0, Weight: -1}
	dst := NewDST([]*DSTEntry{row})
	if dst.Entry(0) != row {
		t.Fatal("NewDST copied the row; documented behaviour is retention")
	}
	if row.Weight != 1 {
		t.Fatalf("caller row not normalized in place: Weight = %v", row.Weight)
	}
}

func TestDSTCarveReturnCapacity(t *testing.T) {
	dst := NewDST([]*DSTEntry{{
		GID: 0, Partitionable: true,
		TotalFrac: 7, FreeFrac: 7, TotalMem: 800, FreeMem: 800,
	}})
	dst.CarveCapacity(0, 3, 400)
	e := dst.Entry(0)
	if e.FreeFrac != 4 || e.FreeMem != 400 {
		t.Fatalf("after carve: %d/7 free, %d bytes", e.FreeFrac, e.FreeMem)
	}
	dst.ReturnCapacity(0, 3, 400)
	if e.FreeFrac != 7 || e.FreeMem != 800 {
		t.Fatalf("after return: %d/7 free, %d bytes", e.FreeFrac, e.FreeMem)
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("overcommit", func() { dst.CarveCapacity(0, 8, 0) })
	mustPanic("over-return", func() { dst.ReturnCapacity(0, 1, 1) })
}
