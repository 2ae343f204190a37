package packer

import (
	"slices"

	"repro/internal/cuda"
)

// PinnedEntry is one row of the Pinned Memory Table: a host staging buffer
// the MOT allocated for an in-flight asynchronous copy.
type PinnedEntry struct {
	ID     int64
	AppID  int
	Stream cuda.StreamID
	Bytes  int64
	Dir    cuda.Dir
}

// PMT is the per-device Pinned Memory Table. It tracks the pinned staging
// buffers backing asynchronous memory operations; buffers are reclaimed when
// the owning application reaches a synchronization point (stream sync,
// device sync, D2H copy completion, or exit).
//
// Rows are kept per application in id order (ids only grow, so appends stay
// sorted): a release sweep walks only the releasing application's rows.
type PMT struct {
	apps   map[int][]PinnedEntry
	spare  [][]PinnedEntry // emptied lists, for the next application to fill
	slab   []PinnedEntry   // new lists are cut from it, four to an allocation
	nextID int64

	// Accounting.
	Pinned      int64 // bytes currently pinned
	HighWater   int64
	TotalAdds   int
	TotalFrees  int
	TotalPinned int64 // cumulative bytes ever pinned
}

// rowsCap is the capacity a new list starts with: a typical application's
// staging depth, so most lists never regrow.
const rowsCap = 8

// NewPMT returns an empty table.
func NewPMT() *PMT { return &PMT{apps: make(map[int][]PinnedEntry)} }

// Add records a new pinned staging buffer and returns its id.
func (t *PMT) Add(appID int, stream cuda.StreamID, bytes int64, dir cuda.Dir) int64 {
	t.nextID++
	rows, ok := t.apps[appID]
	if n := len(t.spare); !ok && n > 0 {
		rows, t.spare = t.spare[n-1], t.spare[:n-1]
	} else if !ok {
		if len(t.slab) == 0 {
			t.slab = make([]PinnedEntry, 4*rowsCap)
		}
		rows, t.slab = t.slab[:0:rowsCap], t.slab[rowsCap:] // capped: appends cannot run into a neighbour
	}
	t.apps[appID] = append(rows, PinnedEntry{ID: t.nextID, AppID: appID, Stream: stream, Bytes: bytes, Dir: dir})
	t.Pinned += bytes
	t.TotalPinned += bytes
	t.TotalAdds++
	t.HighWater = max(t.HighWater, t.Pinned)
	return t.nextID
}

// Release frees one entry by id, whichever application's it is.
func (t *PMT) Release(id int64) {
	owner, at := 0, -1
	for appID, rows := range t.apps {
		for i := range rows {
			if rows[i].ID == id {
				owner, at = appID, i
			}
		}
	}
	if at < 0 {
		return
	}
	rows := t.apps[owner]
	t.Pinned -= rows[at].Bytes
	t.TotalFrees++
	t.keep(owner, append(rows[:at], rows[at+1:]...))
}

// ReleaseSynced frees every entry of the application on the given stream —
// the stream has drained, so the copies have consumed their staging buffers.
func (t *PMT) ReleaseSynced(appID int, stream cuda.StreamID) { t.sweep(appID, stream, false) }

// ReleaseApp frees every entry of the application (device sync or exit).
func (t *PMT) ReleaseApp(appID int) { t.sweep(appID, 0, true) }

// sweep frees the application's entries on one stream, or on every stream.
func (t *PMT) sweep(appID int, stream cuda.StreamID, every bool) {
	rows, ok := t.apps[appID]
	if !ok {
		return
	}
	kept := rows[:0]
	for _, e := range rows {
		if every || e.Stream == stream {
			t.Pinned -= e.Bytes
			t.TotalFrees++
		} else {
			kept = append(kept, e)
		}
	}
	t.keep(appID, kept)
}

// keep stores what a release left of an application's rows.
func (t *PMT) keep(appID int, rows []PinnedEntry) {
	if len(rows) > 0 {
		t.apps[appID] = rows
		return
	}
	delete(t.apps, appID)
	t.spare = append(t.spare, rows)
}

// Len returns the number of live entries.
func (t *PMT) Len() int { return t.TotalAdds - t.TotalFrees }

// AppEntries returns the live entries of one application, ordered by id.
func (t *PMT) AppEntries(appID int) []PinnedEntry {
	return slices.Clone(t.apps[appID])
}
