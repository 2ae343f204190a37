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
	spills     int // selections rerouted off a non-Healthy pick
	failures   int // failed-call reports absorbed
}

// NewMapper wires a mapper over the gPool's DST with the given policy.
func NewMapper(dst *DST, policy Policy) *Mapper {
	return &Mapper{dst: dst, sft: NewSFT(), policy: policy}
}

// DST returns the Device Status Table.
func (m *Mapper) DST() *DST { return m.dst }

// SFT returns the Scheduler Feedback Table.
func (m *Mapper) SFT() *SFT { return m.sft }

// SetRecorder installs the observability recorder: every selection then
// emits a structured decision-audit record (the DST rows the policy saw,
// the SFT's history for the class, the raw and final picks). A nil
// recorder disables auditing.
func (m *Mapper) SetRecorder(rec *trace.Recorder) { m.rec = rec }

// Select answers one device-selection request: the policy picks a GID and
// the mapper records the binding in the DST.
func (m *Mapper) Select(req Request) GID {
	gid, _, _ := m.pick(req)
	return gid
}

// SelectAt is Select with the caller's clock, emitting a decision-audit
// record when a recorder is installed. The DST snapshot is taken before
// the winning bind mutates the table, so the record shows exactly what the
// policy consulted.
func (m *Mapper) SelectAt(now sim.Time, req Request) GID {
	if !m.rec.Enabled() {
		gid, _, _ := m.pick(req)
		return gid
	}
	d := m.auditStart(now, req)
	gid, raw, spilled := m.pick(req)
	d.Raw, d.Picked, d.Spilled = int(raw), int(gid), spilled
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
// false when no eligible device currently fits the profile — the caller
// parks the tenant until capacity frees and retries. The mapper neither
// carves nor binds here: the placement layer owns the carve
// (DST.CarveCapacity and the new slice row). Every attempt — including a
// no-fit parking — is decision-audited when a recorder is installed
// (Picked −1 means parked).
func (m *Mapper) SelectSliceAt(now sim.Time, req Request) (GID, bool) {
	anyFit := false
	for _, e := range m.dst.Entries() {
		if eligible(e, req) {
			anyFit = true
			break
		}
	}
	gid, raw := GID(-1), GID(-1)
	if anyFit {
		gid = m.policy.Select(req, m.dst, m.sft)
		raw = gid
		if e := m.dst.Entry(gid); e == nil || !eligible(e, req) {
			// The policy named an ineligible row (a stale rotation or a
			// slice-unaware policy): spill to the least-loaded fit.
			alt, ok := argminWhere(m.dst, req, func(e *DSTEntry) float64 {
				return float64(e.Load) / e.Weight
			}, true)
			if !ok {
				anyFit = false
			}
			gid = alt
			m.spills++
		}
		m.selections++
	}
	if m.rec.Enabled() {
		d := m.auditStart(now, req)
		d.Raw, d.Picked, d.Spilled = int(raw), int(gid), gid != raw
		if !anyFit {
			d.Raw, d.Picked = -1, -1
		}
		m.rec.RecordDecision(d)
	}
	if !anyFit {
		return 0, false
	}
	return gid, true
}

// pick runs the policy and the mapper's spill-over, binds the winner and
// returns (final, policy's raw answer, spilled). A policy may still name a
// non-Healthy device (stale round-robin state, or a pool with no healthy
// rows); the mapper spills such picks over to the least-loaded healthy
// survivor when one exists.
func (m *Mapper) pick(req Request) (gid, raw GID, spilled bool) {
	gid = m.policy.Select(req, m.dst, m.sft)
	if m.dst.Entry(gid) == nil && m.dst.Len() > 0 {
		gid = 0
	}
	raw = gid
	if e := m.dst.Entry(gid); e != nil && e.Health != Healthy {
		if alt, ok := argminWhere(m.dst, req, func(e *DSTEntry) float64 {
			return float64(e.Load) / e.Weight
		}, true); ok && alt != gid {
			gid = alt
			spilled = true
			m.spills++
		}
	}
	m.dst.Bind(gid, req.Kind)
	m.selections++
	return gid, raw, spilled
}

// ReportFailure folds one failed call against gid into the failure detector
// and returns the row's resulting health, so callers can decide between a
// retry (Suspect) and a failover (Dead).
func (m *Mapper) ReportFailure(gid GID) Health {
	m.failures++
	return m.dst.MarkFailure(gid)
}

// ReportRecovered records a successful call against a previously suspect
// device, returning its row to Healthy.
func (m *Mapper) ReportRecovered(gid GID) {
	m.dst.MarkRecovered(gid)
}

// Spills returns how many selections were rerouted off a non-Healthy pick.
func (m *Mapper) Spills() int { return m.spills }

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
