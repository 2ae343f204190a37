// Package balancer implements the paper's GPU Affinity Mapper / workload
// balancer: the Device Status Table (DST) of static weights and dynamic
// loads, the Scheduler Feedback Table (SFT) fed by device-level schedulers,
// the Target GPU Selector policies — GRR, GMin, GWtMin and the
// feedback-based RTF, GUF, DTF and MBF — and the Policy Arbiter that
// switches from a static to a feedback policy once the requesting class has
// history.
package balancer

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// GID is a gPool-global GPU identifier.
type GID int

// DSTEntry is one device's row in the Device Status Table: static
// capability information written by the gPool Creator and dynamic load
// updated as applications bind and unbind.
type DSTEntry struct {
	GID      GID
	Node     int
	LocalDev int
	Name     string

	// Static capability weights.
	Weight       float64
	ComputeRate  float64
	MemBandwidth float64

	// Dynamic state.
	Load       int         // applications currently bound
	BoundKinds []KindCount // bound application classes, sorted by Kind

	// Failure-detector state (see health.go). Zero value = Healthy.
	Health      Health
	ConsecFails int // consecutive failed calls since the last success

	// Partitioning state (MIG-style slice-capable fleets; see
	// internal/gpu/slice.go). All zero on classic whole-device rows.
	Partitionable bool         // row can be carved into slices
	TotalFrac     int          // compute sevenths when whole
	FreeFrac      int          // uncarved compute sevenths
	TotalMem      int64        // memory bytes when whole
	FreeMem       int64        // uncarved memory bytes
	Shapes        []SliceShape // allowed slice profiles (frag scoring)
	IsSlice       bool         // row is a carved slice, not a device
	Parent        GID          // physical row a slice was carved from
	Profile       string       // slice profile name ("1g".."7g")
}

// KindCount is one application class bound to a row and how many of its
// applications the row holds (always at least one).
type KindCount struct {
	Kind string
	N    int
}

// SliceShape mirrors one gpu.SliceProfile for placement: the demand a
// profile makes on a partitionable row's two capacity dimensions.
type SliceShape struct {
	Name string
	Frac int
	Mem  int64
}

// DST is the Device Status Table and the gPool's only per-GPU table: a
// row's (GID, Node, LocalDev) columns are the paper's gMap. Rows are
// GID-stable: lookups go through a gid→index map, so a retired middle row
// never shifts the rows behind it (rows are never renumbered, and slice
// rows retire while later rows live on).
type DST struct {
	entries []*DSTEntry
	byGID   map[GID]int

	// UnbindClamps counts Unbind calls that would have driven Load or a
	// kind count negative — each one is a double-unbind (or unbind of a
	// never-bound kind) somewhere upstream. The old code clamped silently;
	// the counter makes the accounting bug observable.
	UnbindClamps int
}

// NewDST builds the table from per-device rows. Ownership of the rows
// transfers to the DST: it retains the slice AND normalizes the rows in
// place (non-positive Weights default to 1), so callers must not reuse or
// concurrently mutate them afterwards.
func NewDST(entries []*DSTEntry) *DST {
	d := &DST{byGID: make(map[GID]int, len(entries))}
	for _, e := range entries {
		d.addRow(e)
	}
	return d
}

// AddRow appends a row — a device's, or a carved slice's — to the table.
// Like NewDST, ownership of the row transfers to the DST. GIDs must be
// unique for the table's lifetime; reusing one panics.
func (d *DST) AddRow(e *DSTEntry) {
	d.addRow(e)
}

// NewRow returns a zeroed row for the next AddRow: the struct the next slot
// held before the table was last emptied, with its bound-class and shape
// arrays, or a new one.
func (d *DST) NewRow() *DSTEntry {
	if n := len(d.entries); n < cap(d.entries) {
		if e := d.entries[:n+1][n]; e != nil {
			*e = DSTEntry{BoundKinds: e.BoundKinds[:0], Shapes: e.Shapes[:0]}
			return e
		}
	}
	return new(DSTEntry)
}

func (d *DST) addRow(e *DSTEntry) {
	if _, dup := d.byGID[e.GID]; dup {
		panic(fmt.Sprintf("balancer: duplicate DST row for gid %d", e.GID))
	}
	if e.Weight <= 0 {
		e.Weight = 1
	}
	d.byGID[e.GID] = len(d.entries)
	d.entries = append(d.entries, e)
}

// Entries returns the rows in table (row-creation) order.
func (d *DST) Entries() []*DSTEntry { return d.entries }

// Len returns the number of rows.
func (d *DST) Len() int { return len(d.entries) }

// Entry returns the row for gid, or nil. Lookup is by the row's GID field,
// not by position — the two coincide only while no row has ever been
// removed or carved.
func (d *DST) Entry(gid GID) *DSTEntry {
	if i, ok := d.byGID[gid]; ok {
		return d.entries[i]
	}
	return nil
}

// Bind records an application of the given class binding to gid.
func (d *DST) Bind(gid GID, kind string) {
	e := d.Entry(gid)
	if e == nil {
		return
	}
	e.Load++
	if i, ok := e.kindIndex(kind); ok {
		e.BoundKinds[i].N++
	} else {
		e.BoundKinds = slices.Insert(e.BoundKinds, i, KindCount{Kind: kind, N: 1})
	}
}

// Unbind removes a binding. An Unbind that finds nothing to remove — Load
// already zero, or no binding of that kind — is a double-unbind accounting
// bug upstream: it is counted in UnbindClamps rather than silently clamped.
func (d *DST) Unbind(gid GID, kind string) {
	e := d.Entry(gid)
	if e == nil {
		return
	}
	if e.Load > 0 {
		e.Load--
	} else {
		d.UnbindClamps++
	}
	i, ok := e.kindIndex(kind)
	if !ok {
		d.UnbindClamps++
		return
	}
	e.BoundKinds[i].N--
	if e.BoundKinds[i].N == 0 {
		e.BoundKinds = slices.Delete(e.BoundKinds, i, i+1)
	}
}

// kindIndex finds kind in the row's sorted bound classes: its index and
// true, or the index it would be inserted at and false.
func (e *DSTEntry) kindIndex(kind string) (int, bool) {
	return slices.BinarySearchFunc(e.BoundKinds, kind, func(kc KindCount, k string) int {
		return strings.Compare(kc.Kind, k)
	})
}

// CarveCapacity deducts a slice's demand from a partitionable row's free
// capacity. The row is the device's only capacity ledger: over-carving is
// a placement-layer bug and panics outright.
func (d *DST) CarveCapacity(gid GID, frac int, mem int64) {
	e := d.Entry(gid)
	if e == nil || !e.Partitionable {
		panic(fmt.Sprintf("balancer: carve on non-partitionable gid %d", gid))
	}
	if frac > e.FreeFrac || mem > e.FreeMem {
		panic(fmt.Sprintf("balancer: carve overcommit on gid %d: want %d/7+%dB, free %d/7+%dB",
			gid, frac, mem, e.FreeFrac, e.FreeMem))
	}
	e.FreeFrac -= frac
	e.FreeMem -= mem
}

// ReturnCapacity gives a destroyed slice's capacity back to its parent row.
// Over-returning panics for the same reason over-carving does.
func (d *DST) ReturnCapacity(gid GID, frac int, mem int64) {
	e := d.Entry(gid)
	if e == nil || !e.Partitionable {
		panic(fmt.Sprintf("balancer: capacity return on non-partitionable gid %d", gid))
	}
	e.FreeFrac += frac
	e.FreeMem += mem
	if e.FreeFrac > e.TotalFrac || e.FreeMem > e.TotalMem {
		panic(fmt.Sprintf("balancer: capacity over-return on gid %d: %d/%d sevenths, %d/%d bytes",
			gid, e.FreeFrac, e.TotalFrac, e.FreeMem, e.TotalMem))
	}
}

// SFTEntry aggregates the feedback history of one application class.
type SFTEntry struct {
	Kind    string
	Samples int

	// Running means of the Feedback Engine's reports.
	ExecTime sim.Time
	GPUTime  sim.Time
	XferTime sim.Time
	MemBW    float64 // bytes/us of kernel traffic while on GPU
	GPUUtil  float64
}

// SFT is the Scheduler Feedback Table, the history-based store the Policy
// Arbiter and the feedback policies read. It also implements the paper's
// response to "device-level observations of altered behavior": when a
// class's fresh reports drift far from its accumulated history, the stale
// history is discarded and the class is re-learned.
type SFT struct {
	byKind map[string]SFTEntry

	// DriftResets counts histories discarded because the class's behaviour
	// changed.
	DriftResets int
}

// driftFactor is how far a fresh report's runtime may deviate from the
// class mean (in either direction) before the history is considered stale.
const driftFactor = 2.5

// driftMinSamples is how much history must exist before drift can trigger.
const driftMinSamples = 3

// NewSFT returns an empty table.
func NewSFT() *SFT { return &SFT{byKind: make(map[string]SFTEntry)} }

// Record folds a feedback report into the class's running means.
func (s *SFT) Record(fb *rpcproto.Feedback) {
	if fb == nil || fb.Kind == "" {
		return
	}
	e, ok := s.byKind[fb.Kind]
	if ok && e.Samples >= driftMinSamples && fb.ExecTime > 0 && e.ExecTime > 0 {
		ratio := float64(fb.ExecTime) / float64(e.ExecTime)
		if ratio > driftFactor || ratio < 1/driftFactor {
			// The class's behaviour has shifted: drop the stale history
			// and re-learn from this report on.
			s.DriftResets++
			ok = false
		}
	}
	if !ok {
		e = SFTEntry{Kind: fb.Kind}
	}
	n := float64(e.Samples)
	merge := func(old sim.Time, v sim.Time) sim.Time {
		return sim.Time((float64(float64(old)*n) + float64(v)) / (n + 1))
	}
	e.ExecTime = merge(e.ExecTime, fb.ExecTime)
	e.GPUTime = merge(e.GPUTime, fb.GPUTime)
	e.XferTime = merge(e.XferTime, fb.XferTime)
	e.MemBW = (float64(e.MemBW*n) + fb.MemBW) / (n + 1)
	e.GPUUtil = (float64(e.GPUUtil*n) + fb.GPUUtil) / (n + 1)
	e.Samples++
	s.byKind[fb.Kind] = e
}

// Lookup returns the class's history, if any.
func (s *SFT) Lookup(kind string) (SFTEntry, bool) {
	e, ok := s.byKind[kind]
	return e, ok
}

// Samples returns the number of reports recorded for the class.
func (s *SFT) Samples(kind string) int {
	if e, ok := s.byKind[kind]; ok {
		return e.Samples
	}
	return 0
}
