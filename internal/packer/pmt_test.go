package packer

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cuda"
)

func TestPMTAddReleaseAccounting(t *testing.T) {
	pmt := &PMT{}
	var rows PinnedRows
	id1 := pmt.Add(&rows, 1, 3, 100, cuda.H2D)
	id2 := pmt.Add(&rows, 1, 3, 200, cuda.H2D)
	if pmt.Pinned != 300 || pmt.HighWater != 300 || pmt.Len() != 2 {
		t.Fatalf("accounting: %+v", pmt)
	}
	pmt.Release(&rows, id1)
	if pmt.Pinned != 200 || pmt.HighWater != 300 {
		t.Fatalf("after release: pinned=%d hw=%d", pmt.Pinned, pmt.HighWater)
	}
	pmt.Release(&rows, id1) // double release is a no-op
	if pmt.Pinned != 200 {
		t.Fatal("double release changed accounting")
	}
	pmt.Release(&rows, id2)
	if pmt.Pinned != 0 || pmt.Len() != 0 || len(rows) != 0 {
		t.Fatal("final accounting nonzero")
	}
	if pmt.TotalAdds != 2 || pmt.TotalFrees != 2 || pmt.TotalPinned != 300 {
		t.Fatalf("counters: %+v", pmt)
	}
}

func TestPMTReleaseSyncedScopedToStream(t *testing.T) {
	pmt := &PMT{}
	var app1, app2 PinnedRows
	pmt.Add(&app1, 1, 3, 100, cuda.H2D)
	pmt.Add(&app1, 1, 4, 100, cuda.H2D)
	pmt.Add(&app2, 2, 3, 100, cuda.H2D)
	pmt.ReleaseSynced(&app1, 3)
	if pmt.Len() != 2 {
		t.Fatalf("entries = %d, want 2", pmt.Len())
	}
	if len(app1) != 1 || app1[0].Stream != 4 || len(app2) != 1 {
		t.Fatal("wrong entry released")
	}
}

func TestPMTReleaseApp(t *testing.T) {
	pmt := &PMT{}
	var app1, app2 PinnedRows
	pmt.Add(&app1, 1, 3, 100, cuda.H2D)
	pmt.Add(&app1, 1, 4, 100, cuda.H2D)
	pmt.Add(&app2, 2, 3, 100, cuda.H2D)
	pmt.ReleaseApp(&app1)
	if pmt.Len() != 1 || len(app1) != 0 || len(app2) != 1 {
		t.Fatalf("entries after ReleaseApp = %d", pmt.Len())
	}
}

// pinned names one live row: the application whose rows hold it, and its id.
type pinned struct {
	app int
	id  int64
}

// Property: for any interleaving of adds and releases, pinned bytes equal
// the sum of live entries and never go negative; high water is monotone.
func TestQuickPMTBalance(t *testing.T) {
	f := func(ops []uint16) bool {
		pmt := &PMT{}
		var rows [4]PinnedRows
		var live []pinned
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				pmt.Release(&rows[live[0].app], live[0].id)
				live = live[1:]
			} else {
				app := int(op % 4)
				id := pmt.Add(&rows[app], app, cuda.StreamID(op%2), int64(op%100)+1, cuda.H2D)
				live = append(live, pinned{app, id})
			}
			var sum int64
			for _, r := range rows {
				for _, e := range r {
					sum += e.Bytes
				}
			}
			if pmt.Pinned != sum || pmt.Pinned < 0 || pmt.HighWater < pmt.Pinned {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// refPMT is the table as one id-keyed map, every sweep a sorted scan of all
// of it: what PMT was before its rows were kept per application on their
// ports, and the reference for what every call must leave behind.
type refPMT struct {
	entries map[int64]PinnedEntry
	nextID  int64

	Pinned, HighWater, TotalPinned int64
	TotalAdds, TotalFrees          int
}

func (t *refPMT) Add(appID int, stream cuda.StreamID, bytes int64, dir cuda.Dir) int64 {
	t.nextID++
	t.entries[t.nextID] = PinnedEntry{ID: t.nextID, AppID: appID, Stream: stream, Bytes: bytes, Dir: dir}
	t.Pinned += bytes
	t.TotalPinned += bytes
	t.TotalAdds++
	t.HighWater = max(t.HighWater, t.Pinned)
	return t.nextID
}

func (t *refPMT) Release(id int64) {
	if e, ok := t.entries[id]; ok {
		t.Pinned -= e.Bytes
		t.TotalFrees++
		delete(t.entries, id)
	}
}

func (t *refPMT) where(pred func(PinnedEntry) bool) []PinnedEntry {
	var out []PinnedEntry
	for _, e := range t.entries {
		if pred(e) {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(a, b PinnedEntry) int { return int(a.ID - b.ID) })
	return out
}

func (t *refPMT) ReleaseSynced(appID int, stream cuda.StreamID) {
	for _, e := range t.where(func(e PinnedEntry) bool { return e.AppID == appID && e.Stream == stream }) {
		t.Release(e.ID)
	}
}

func (t *refPMT) ReleaseApp(appID int) {
	for _, e := range t.AppEntries(appID) {
		t.Release(e.ID)
	}
}

func (t *refPMT) AppEntries(appID int) []PinnedEntry {
	return t.where(func(e PinnedEntry) bool { return e.AppID == appID })
}

// Eight applications on three streams each add, sync and exit at random; after
// every call the table reads the same as the reference, counters and rows.
func TestPMTMatchesReference(t *testing.T) {
	const apps, streams, steps = 8, 3, 4000
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, want := &PMT{}, &refPMT{entries: map[int64]PinnedEntry{}}
		var rows [apps]PinnedRows
		var ids []pinned
		for step := 0; step < steps; step++ {
			app, stream := rng.Intn(apps), cuda.StreamID(rng.Intn(streams))
			switch op := rng.Intn(10); {
			case op < 6:
				bytes, dir := int64(rng.Intn(1<<20)), cuda.Dir(rng.Intn(2))
				id := got.Add(&rows[app], app, stream, bytes, dir)
				if ref := want.Add(app, stream, bytes, dir); id != ref {
					t.Fatalf("seed %d step %d: Add returned id %d, reference %d", seed, step, id, ref)
				}
				ids = append(ids, pinned{app, id})
			case op < 8:
				got.ReleaseSynced(&rows[app], stream)
				want.ReleaseSynced(app, stream)
			case op < 9:
				got.ReleaseApp(&rows[app])
				want.ReleaseApp(app)
			default:
				if len(ids) > 0 { // live or long gone: a second release is a no-op
					x := ids[rng.Intn(len(ids))]
					got.Release(&rows[x.app], x.id)
					want.Release(x.id)
				}
			}
			if got.Pinned != want.Pinned || got.HighWater != want.HighWater || got.TotalAdds != want.TotalAdds ||
				got.TotalFrees != want.TotalFrees || got.TotalPinned != want.TotalPinned || got.Len() != len(want.entries) {
				t.Fatalf("seed %d step %d: counters %+v with %d rows, reference %+v with %d", seed, step, got, got.Len(), want, len(want.entries))
			}
			for a := range rows {
				if g, w := []PinnedEntry(rows[a]), want.AppEntries(a); len(g)+len(w) > 0 && !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d step %d: app %d rows %v, reference %v", seed, step, a, g, w)
				}
			}
		}
	}
}

// A request's worth of table traffic — a new application pins a few buffers,
// syncs its streams, exits — allocates nothing once its port's rows have been
// round: a lane and its rows are reused by the next application.
func TestPMTSteadyStateZeroAlloc(t *testing.T) {
	pmt := &PMT{}
	var rows [2]PinnedRows // two lanes, taken in turn
	app := 0
	request := func() {
		app++
		cur, prev := &rows[app%2], &rows[(app-1)%2]
		for i := 0; i < 6; i++ {
			pmt.Add(cur, app, cuda.StreamID(i%2), 4096, cuda.H2D)
		}
		pmt.ReleaseSynced(cur, 0)
		pmt.Add(cur, app, 0, 4096, cuda.H2D)
		pmt.ReleaseSynced(prev, 1) // a co-tenant, one request behind
		pmt.ReleaseSynced(cur, 0)
		pmt.ReleaseApp(prev)
	}
	for i := 0; i < 8; i++ {
		request()
	}
	if allocs := testing.AllocsPerRun(200, request); allocs != 0 {
		t.Fatalf("%v allocs per request-shaped sweep, want 0", allocs)
	}
	if pmt.Len() != 3 || len(rows[app%2]) != 3 || len(rows[(app-1)%2]) != 0 {
		t.Fatalf("%d rows, %d and %d on the lanes, want the last application's 3", pmt.Len(), len(rows[app%2]), len(rows[(app-1)%2]))
	}
}
