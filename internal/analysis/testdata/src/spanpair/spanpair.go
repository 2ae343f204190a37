// Fixture for the spanpair analyzer: every Begin must reach an End on all
// control-flow exits, or transfer ownership of the SpanID.
package spanpair

import "repro/internal/trace"

func good(r *trace.Recorder) {
	sp := r.Begin("good")
	r.End(sp)
}

// missing: the implicit fall-through exit leaves sp open when !c.
func missing(r *trace.Recorder, c bool) {
	sp := r.Begin("missing") // want `span sp is not ended on every path out of missing`
	if c {
		r.End(sp)
	}
}

// early: the guard return skips the End.
func early(r *trace.Recorder, c bool) {
	sp := r.Begin("early") // want `span sp is not ended on every path out of early`
	if c {
		return
	}
	r.End(sp)
}

// panics: the explicit panic edge reaches Exit with sp open.
func panics(r *trace.Recorder, c bool) {
	sp := r.Begin("panics") // want `span sp is not ended on every path out of panics`
	if c {
		panic("boom")
	}
	r.End(sp)
}

// deferred: a deferred End discharges every exit, including the early
// return and the panic edge.
func deferred(r *trace.Recorder, c bool) {
	sp := r.Begin("deferred")
	defer r.End(sp)
	if c {
		return
	}
	if !c {
		panic("unreachable")
	}
	r.Event(sp, "late")
}

// neutral: SetGID and Event use the ID without closing it.
func neutral(r *trace.Recorder) {
	sp := r.Begin("neutral")
	r.SetGID(sp, 7)
	r.Event(sp, "tick")
	r.End(sp)
}

// transfer: returning the ID moves the obligation to the caller.
func transfer(r *trace.Recorder) trace.SpanID {
	sp := r.Begin("transfer")
	return sp
}

// handoff: passing the ID to any non-neutral call transfers ownership.
func handoff(r *trace.Recorder, sink func(trace.SpanID)) {
	sp := r.Begin("handoff")
	sink(sp)
}

// holder keeps a span past the function that opened it.
type holder struct{ sp trace.SpanID }

// stored: storing the ID into a field transfers ownership, directly or from
// a local.
func stored(r *trace.Recorder, h *holder) {
	h.sp = r.Begin("stored")
	sp := r.Begin("stored later")
	h.sp = sp
}

// dropped: a Begin whose result is never bound can never be ended.
func dropped(r *trace.Recorder) {
	r.Begin("dropped") // want `span opened and immediately discarded`
}

// loopSpan: open and close within each iteration is clean across the back
// edge.
func loopSpan(r *trace.Recorder, n int) {
	for i := 0; i < n; i++ {
		sp := r.Begin("iter")
		r.Event(sp, "work")
		r.End(sp)
	}
}

// allowed: the caller closes it through a side table; suppressed.
func allowed(r *trace.Recorder) {
	sp := r.Begin("allowed") //lint:allow spanpair -- fixture: closed by the collector via side table
	_ = sp
}
