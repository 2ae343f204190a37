// Package trace is the simulator's deterministic observability layer: a
// virtual-time span/event recorder threaded through the full request path —
// interposer call → balancer policy decision → packer stream ops → device
// scheduler dispatch → GPU op completion.
//
// Everything the recorder emits carries sim.Time, never wall time, so a
// trace is a pure function of (configuration, seed): the same run produces
// a byte-identical trace at any -parallel worker count, extending the
// determinism boundary of internal/parallel. A nil *Recorder is the
// disabled state — every method is nil-safe and returns immediately, so
// instrumented hot paths cost nothing (and allocate nothing) when tracing
// is off.
package trace

import "repro/internal/sim"

// SpanID identifies a span within one Recorder. IDs are 1-based indices in
// recording order; 0 is "no span" (the nil recorder's answer, and the root
// parent).
type SpanID int32

// Kind classifies spans and events along the request path.
type Kind uint8

// Span and event kinds.
const (
	// KNone is the zero kind (unclassified).
	KNone Kind = iota

	// KRequest spans one application request end to end: arrival to
	// completion (or failure).
	KRequest
	// KSelect spans the device-selection round trip with the GPU Affinity
	// Mapper (the interposed cudaSetDevice override).
	KSelect
	// KCall spans one intercepted CUDA call from RPC issue to the
	// frontend-visible return (non-blocking calls return at issue).
	KCall
	// KExec spans one marshalled call's execution inside the Context
	// Packer (backend side).
	KExec
	// KWait spans a backend thread parked in the device scheduler's
	// Turn gate.
	KWait
	// KOp spans one GPU op (kernel or copy) from engine start to
	// completion.
	KOp

	// KRegister marks an RCB registration with the device scheduler.
	KRegister
	// KUnregister marks an RCB unregistration (feedback harvest).
	KUnregister
	// KWake marks the dispatcher waking a backend thread.
	KWake
	// KSleep marks the dispatcher putting a backend thread to sleep.
	KSleep
	// KRetry marks a recovery retransmission of a timed-out call.
	KRetry
	// KFailover marks an interposer abandoning a dead backend for a
	// replacement GPU.
	KFailover

	kindCount // sentinel
)

// kindNames are the wire names of the kinds (stable: they appear in JSONL
// and Chrome output and are pinned by golden tests).
var kindNames = [kindCount]string{
	KNone:       "none",
	KRequest:    "request",
	KSelect:     "select",
	KCall:       "call",
	KExec:       "exec",
	KWait:       "wait",
	KOp:         "op",
	KRegister:   "register",
	KUnregister: "unregister",
	KWake:       "wake",
	KSleep:      "sleep",
	KRetry:      "retry",
	KFailover:   "failover",
}

// String returns the kind's wire name.
func (k Kind) String() string {
	if k < kindCount {
		return kindNames[k]
	}
	return "none"
}

// KindByName returns the kind with the given wire name ("none", false for
// unknown names).
func KindByName(name string) (Kind, bool) {
	for k := Kind(0); k < kindCount; k++ {
		if kindNames[k] == name {
			return k, true
		}
	}
	return KNone, false
}

// open is the End value of a span still in flight.
const open = sim.Time(-1)

// Span is one interval on the virtual-time line.
type Span struct {
	ID     SpanID
	Parent SpanID // enclosing span, 0 for roots
	Kind   Kind
	Name   string
	App    int // application id (-1 when not app-scoped)
	GID    int // gPool device id (-1 while unbound)
	Arg    int64
	Start  sim.Time
	End    sim.Time // -1 while open
}

// Duration returns End-Start (0 for open spans).
func (s Span) Duration() sim.Time {
	if s.End < s.Start {
		return 0
	}
	return s.End - s.Start
}

// Event is one instant on the virtual-time line.
type Event struct {
	Kind Kind
	Name string
	App  int
	GID  int
	Arg  int64
	At   sim.Time
}

// DecisionRow snapshots one DST row as the policy saw it (before the
// winning bind mutated the table). FreeFrac/FreeMem carry a partitionable
// row's uncarved capacity (compute sevenths, memory bytes) so slice-
// placement audits show why a device was or wasn't a fit; both stay zero on
// classic rows and are then omitted from the JSONL encoding, keeping
// pre-slice trace bytes identical.
type DecisionRow struct {
	GID      int
	Node     int
	Health   string
	Load     int
	Weight   float64
	FreeFrac int
	FreeMem  int64
}

// Decision is the structured audit record of one cudaSetDevice override:
// which DST rows the policy consulted, what the SFT knew about the class,
// and which device the policy picked.
type Decision struct {
	At     sim.Time
	App    int
	Class  string // application class (workload short code)
	Node   int
	Tenant int64
	Policy string

	Picked int // the policy's pick (−1: a slice request parked, nothing fit)

	SFTSamples int      // feedback history depth for Class at decision time
	SFTExec    sim.Time // the SFT's mean runtime estimate for Class (0 if none)

	Rows []DecisionRow
}

// Recorder collects spans, events and decision-audit records for one
// simulation run. It is not safe for concurrent use — but a simulation
// kernel runs exactly one process at a time, so a per-run recorder needs no
// locks, and per-cell recorders keep parallel sweeps deterministic.
//
// The nil *Recorder is the disabled recorder: every method no-ops.
type Recorder struct {
	spans     []Span
	events    []Event
	decisions []Decision
}

// New returns an enabled recorder. The record slices are pre-sized for a
// mid-sized run, so a recorder reaches steady state without paying the first
// dozen grow-copies span by span.
func New() *Recorder {
	return &Recorder{
		spans:     make([]Span, 0, 1024),
		events:    make([]Event, 0, 512),
		decisions: make([]Decision, 0, 128),
	}
}

// Enabled reports whether the recorder records anything.
func (r *Recorder) Enabled() bool { return r != nil }

// Begin opens a span at now and returns its id (0 when disabled).
func (r *Recorder) Begin(k Kind, parent SpanID, now sim.Time, name string, app, gid int, arg int64) SpanID {
	if r == nil {
		return 0
	}
	id := SpanID(len(r.spans) + 1)
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Kind: k, Name: name,
		App: app, GID: gid, Arg: arg, Start: now, End: open,
	})
	return id
}

// End closes the span at now. Ending span 0 (the nil recorder's answer) is a
// no-op.
func (r *Recorder) End(id SpanID, now sim.Time) {
	if r == nil || id <= 0 || int(id) > len(r.spans) {
		return
	}
	s := &r.spans[id-1]
	if s.End != open {
		return
	}
	s.End = now
}

// SetGID late-binds the device of an open or closed span (a request's GID
// is unknown until the balancer answers).
func (r *Recorder) SetGID(id SpanID, gid int) {
	if r == nil || id <= 0 || int(id) > len(r.spans) {
		return
	}
	r.spans[id-1].GID = gid
}

// Complete records an already-finished span (the GPU completion callback
// learns start and end together).
func (r *Recorder) Complete(k Kind, name string, app, gid int, arg int64, start, end sim.Time) {
	if r == nil {
		return
	}
	id := r.Begin(k, 0, start, name, app, gid, arg)
	r.End(id, end)
}

// Event records one instant.
func (r *Recorder) Event(k Kind, now sim.Time, name string, app, gid int, arg int64) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{Kind: k, Name: name, App: app, GID: gid, Arg: arg, At: now}) // event buffer growth is amortized doubling; recording is opt-in observability
}

// RecordDecision appends one decision-audit record.
func (r *Recorder) RecordDecision(d Decision) {
	if r == nil {
		return
	}
	r.decisions = append(r.decisions, d)
}

// Set is an immutable snapshot of a recorder's output, the unit the
// exporters consume.
type Set struct {
	Spans     []Span
	Events    []Event
	Decisions []Decision
}

// Snapshot copies the recorded state into a Set. Open spans stay open
// (End = -1).
func (r *Recorder) Snapshot() *Set {
	if r == nil {
		return &Set{}
	}
	return &Set{
		Spans:     append([]Span(nil), r.spans...),
		Events:    append([]Event(nil), r.events...),
		Decisions: append([]Decision(nil), r.decisions...),
	}
}

// Open returns the spans still in flight (End = -1), in recording order.
// After a run whose requests all finished it is empty: an open span there is
// a Begin whose End was skipped.
func (r *Recorder) Open() []Span {
	if r == nil {
		return nil
	}
	var out []Span
	for _, s := range r.spans {
		if s.End == open {
			out = append(out, s)
		}
	}
	return out
}
