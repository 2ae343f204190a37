package balancer

import (
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Mapper is the GPU Affinity Mapper: it owns the DST and SFT, answers
// device-selection requests through the configured policy and absorbs the
// Feedback Engine reports relayed by the interposers.
type Mapper struct {
	dst    *DST
	sft    *SFT
	policy Policy
	rec    *trace.Recorder

	selections int
	feedbacks  int
}

// NewMapper wires a mapper over the gPool's DST with the given policy.
func NewMapper(dst *DST, policy Policy) *Mapper {
	return &Mapper{dst: dst, sft: NewSFT(), policy: policy}
}

// Init re-initialises the mapper for another fleet under policy: it is then
// what NewMapper(NewDST(nil), policy) returns, and no row of the last fleet, a
// carved slice's included, stays in its table. It keeps the maps' storage and
// the row structs, behind the table's end for NewRow to hand out again.
func (m *Mapper) Init(policy Policy) *Mapper {
	d, s := m.dst, m.sft
	clear(d.byGID)
	clear(s.byKind)
	*d = DST{entries: d.entries[:0], byGID: d.byGID}
	*s = SFT{byKind: s.byKind}
	*m = Mapper{dst: d, sft: s, policy: policy}
	return m
}

// DST returns the Device Status Table.
func (m *Mapper) DST() *DST { return m.dst }

// SFT returns the Scheduler Feedback Table.
func (m *Mapper) SFT() *SFT { return m.sft }

// SetRecorder installs the observability recorder: every selection then
// emits a structured decision-audit record (the DST rows the policy saw,
// the SFT's history for the class, the pick). A nil recorder disables
// auditing.
func (m *Mapper) SetRecorder(rec *trace.Recorder) { m.rec = rec }

// Select answers one device-selection request: the policy picks a GID and
// the mapper binds it in the DST. Every policy already skips non-Healthy and
// ineligible rows whenever a Healthy eligible one exists, so the mapper
// binds what the policy names.
func (m *Mapper) Select(req Request) GID {
	gid := m.policy.Select(req, m.dst, m.sft)
	m.dst.Bind(gid, req.Kind)
	m.selections++
	return gid
}

// SelectAt is Select with the caller's clock, emitting a decision-audit
// record when a recorder is installed. The DST snapshot is taken before
// the winning bind mutates the table, so the record shows exactly what the
// policy consulted.
func (m *Mapper) SelectAt(now sim.Time, req Request) GID {
	if !m.rec.Enabled() {
		return m.Select(req)
	}
	d := m.auditStart(now, req)
	gid := m.Select(req)
	d.Picked = int(gid)
	m.rec.RecordDecision(d)
	return gid
}

// auditStart snapshots the tables into a decision-audit record before the
// pick mutates them. Partitionable rows carry their free capacity so slice
// audits show exactly which devices could fit the profile.
func (m *Mapper) auditStart(now sim.Time, req Request) trace.Decision {
	d := trace.Decision{
		At: now, App: req.AppID, Class: req.Kind, Node: req.Node,
		Tenant: req.Tenant, Policy: m.policy.Name(),
		Rows: make([]trace.DecisionRow, 0, m.dst.Len()),
	}
	for _, e := range m.dst.Entries() {
		row := trace.DecisionRow{
			GID: int(e.GID), Node: e.Node, Health: e.Health.String(),
			Load: e.Load, Weight: e.Weight,
		}
		if e.Partitionable {
			row.FreeFrac = e.FreeFrac
			row.FreeMem = e.FreeMem
		}
		d.Rows = append(d.Rows, row)
	}
	if h, ok := m.sft.Lookup(req.Kind); ok {
		d.SFTSamples = h.Samples
		d.SFTExec = h.ExecTime
	}
	return d
}

// SelectSliceAt answers a slice-placement request: the policy picks the
// partitionable device the requested profile should be carved from. ok is
// false, and gid −1, when no eligible device currently fits the profile —
// the caller parks the tenant until capacity frees and retries. The mapper
// neither carves nor binds here: the placement layer owns the carve
// (DST.CarveCapacity and the new slice row). Every attempt — including a
// no-fit parking — is decision-audited when a recorder is installed
// (Picked −1 means parked).
func (m *Mapper) SelectSliceAt(now sim.Time, req Request) (gid GID, ok bool) {
	gid = -1
	for _, e := range m.dst.Entries() {
		if eligible(e, req) {
			ok = true
			break
		}
	}
	if ok {
		gid = m.policy.Select(req, m.dst, m.sft)
		m.selections++
	}
	if m.rec.Enabled() {
		d := m.auditStart(now, req)
		d.Picked = int(gid)
		m.rec.RecordDecision(d)
	}
	return gid, ok
}

// ReportFailure folds one failed call against gid into the failure detector
// and returns the row's resulting health, so callers can decide between a
// retry (Suspect) and a failover (Dead).
func (m *Mapper) ReportFailure(gid GID) Health {
	return m.dst.MarkFailure(gid)
}

// ReportRecovered records a successful call against a previously suspect
// device, returning its row to Healthy.
func (m *Mapper) ReportRecovered(gid GID) {
	m.dst.MarkRecovered(gid)
}

// Spills is always 0: the mapper binds what the policy picks. It stays only
// for the benchmark's balancer.spills counter.
func (m *Mapper) Spills() int { return 0 }

// Release undoes a binding when the application exits.
func (m *Mapper) Release(gid GID, kind string) {
	m.dst.Unbind(gid, kind)
}

// Feedback folds a device-level report into the SFT.
func (m *Mapper) Feedback(fb *rpcproto.Feedback) {
	if fb == nil {
		return
	}
	m.sft.Record(fb)
	m.feedbacks++
}

// Stats returns selection and feedback counters.
func (m *Mapper) Stats() (selections, feedbacks int) {
	return m.selections, m.feedbacks
}
