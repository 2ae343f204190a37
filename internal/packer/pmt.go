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

// PinnedRows is one application's rows of the table in id order (ids only
// grow, so appends stay sorted). They live on the application's Port: a
// release sweep walks only the releasing application's rows and reaches them
// without a lookup, and a reused port keeps their backing array.
type PinnedRows []PinnedEntry

// PMT is the per-device Pinned Memory Table. It tracks the pinned staging
// buffers backing asynchronous memory operations; buffers are reclaimed when
// the owning application reaches a synchronization point (stream sync,
// device sync, D2H copy completion, or exit). The table hands out ids and
// keeps the device-wide accounting; the rows are the applications'.
type PMT struct {
	nextID int64

	// Accounting.
	Pinned      int64 // bytes currently pinned
	HighWater   int64
	TotalAdds   int
	TotalFrees  int
	TotalPinned int64 // cumulative bytes ever pinned
}

// rowsCap is the capacity an application's rows start with: a typical
// application's staging depth, so most never regrow.
const rowsCap = 8

// Add records a new pinned staging buffer in the application's rows and
// returns its id.
func (t *PMT) Add(rows *PinnedRows, appID int, stream cuda.StreamID, bytes int64, dir cuda.Dir) int64 {
	t.nextID++
	if *rows == nil {
		*rows = make(PinnedRows, 0, rowsCap)
	}
	*rows = append(*rows, PinnedEntry{ID: t.nextID, AppID: appID, Stream: stream, Bytes: bytes, Dir: dir})
	t.Pinned += bytes
	t.TotalPinned += bytes
	t.TotalAdds++
	t.HighWater = max(t.HighWater, t.Pinned)
	return t.nextID
}

// Release frees the entry with the given id from the rows, if it is there.
func (t *PMT) Release(rows *PinnedRows, id int64) {
	if i := slices.IndexFunc(*rows, func(e PinnedEntry) bool { return e.ID == id }); i >= 0 {
		t.Pinned -= (*rows)[i].Bytes
		t.TotalFrees++
		*rows = slices.Delete(*rows, i, i+1)
	}
}

// ReleaseSynced frees every entry of the rows on the given stream — the
// stream has drained, so the copies have consumed their staging buffers.
func (t *PMT) ReleaseSynced(rows *PinnedRows, stream cuda.StreamID) { t.sweep(rows, stream, false) }

// ReleaseApp frees every entry of the rows (device sync or exit).
func (t *PMT) ReleaseApp(rows *PinnedRows) { t.sweep(rows, 0, true) }

// sweep frees the entries on one stream, or on every stream.
func (t *PMT) sweep(rows *PinnedRows, stream cuda.StreamID, every bool) {
	kept := (*rows)[:0]
	for _, e := range *rows {
		if every || e.Stream == stream {
			t.Pinned -= e.Bytes
			t.TotalFrees++
		} else {
			kept = append(kept, e)
		}
	}
	*rows = kept
}

// Len returns the number of live entries.
func (t *PMT) Len() int { return t.TotalAdds - t.TotalFrees }
