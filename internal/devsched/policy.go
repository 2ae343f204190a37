package devsched

import "repro/internal/sim"

// Policy decides which backend threads are awake in the coming epoch.
// Implementations must be deterministic given the entry list (which the
// Scheduler supplies in app-id order).
type Policy interface {
	Name() string
	// Pick returns the entries to keep awake until the next evaluation. It
	// runs every epoch and on every kick, so it allocates nothing in steady
	// state: the result lives in the policy's or cfg's scratch and is valid
	// until the next Pick on either. The pick is empty if and only if no
	// entry has work, which is how the Dispatcher learns it may sleep
	// (AllAwake, which never runs one, keeps every entry).
	Pick(now sim.Time, entries []*Entry, cfg *Config) []*Entry
}

// AllAwake is the pass-through policy: every backend thread may submit at
// will. It is the device policy in the pure workload-balancing experiments.
type AllAwake struct{}

// Name implements Policy.
func (AllAwake) Name() string { return "none" }

// Pick implements Policy.
func (AllAwake) Pick(now sim.Time, entries []*Entry, cfg *Config) []*Entry { return entries }

// pickSlots bounds the wake set of LAS and PS: one thread per GPU engine.
const pickSlots = 3

// insertLeast places e into the ascending top[:n], which keeps the len(top)
// least entries by the strict total order before, and returns the new count.
func insertLeast(top []*Entry, n int, e *Entry, before func(a, b *Entry) bool) int {
	i := n
	for i > 0 && before(e, top[i-1]) {
		i--
	}
	if i == len(top) {
		return n
	}
	if n < len(top) {
		n++
	}
	copy(top[i+1:n], top[i:])
	top[i] = e
	return n
}

// result returns cfg's pick buffer cut to its first n entries (nil for none)
// and clears the rest: it holds no entry beyond the turn that picked it.
func (cfg *Config) result(n int) []*Entry {
	clear(cfg.picked[n:])
	if n == 0 {
		return nil
	}
	return cfg.picked[:n]
}

// LAS is Least Attained Service: each epoch the threads whose decayed
// cumulative GPU service (eq. 1) is smallest — among threads with pending
// requests — get priority. Short-episode jobs finish sooner, minimizing CPU
// stall time and maximizing throughput, at a known cost in fairness. The
// dispatcher keeps the lasWidth least-served threads awake: the top priority
// level runs, and the runners-up keep the device's remaining engines from
// idling while the leader is between requests.
type LAS struct{}

// lasWidth is the number of priority levels kept awake.
const lasWidth = pickSlots

// Name implements Policy.
func (LAS) Name() string { return "LAS" }

// Pick implements Policy.
func (LAS) Pick(now sim.Time, entries []*Entry, cfg *Config) []*Entry {
	n := 0
	for _, e := range entries {
		if e.HasWork() {
			n = insertLeast(cfg.picked[:lasWidth], n, e, lessServed)
		}
	}
	return cfg.result(n)
}

// lessServed orders entries by (CGS, AppID).
func lessServed(a, b *Entry) bool {
	return a.CGS < b.CGS || a.CGS == b.CGS && a.AppID < b.AppID
}

// TFS is True Fair-Share: tenants receive GPU residency proportional to
// their weights. At most one tenant's threads are awake at a time; a penalty
// history charges tenants that overshoot their slice (asynchronously
// submitted work keeps accruing after the thread sleeps), and unused shares
// redistribute to tenants with work (work conservation).
type TFS struct {
	penalty  map[int64]float64 // overshoot charged so far, per tenant
	current  int64
	sliceEnd sim.Time
	turnBase float64 // the current tenant's attained service at turn start
	turnLen  sim.Time
	active   bool

	// Scratch rebuilt every turn in backing arrays that survive it: the
	// tenants present, in id order, and the entries with work, in app-id order.
	views []tenantView
	work  []*Entry
}

// tenantView is one tenant summed over its entries this turn.
type tenantView struct {
	id       int64
	weight   int // of its first entry
	attained float64
	hasWork  bool
}

// NewTFS returns a fresh fair-share policy instance (state is per device).
func NewTFS() *TFS { return &TFS{penalty: make(map[int64]float64)} }

// reset makes t the policy NewTFS returns, keeping its map and scratch.
func (t *TFS) reset() {
	if t.penalty == nil {
		t.penalty = make(map[int64]float64)
	}
	clear(t.penalty)
	clear(t.work)
	*t = TFS{penalty: t.penalty, views: t.views[:0], work: t.work[:0]}
}

// Name implements Policy.
func (t *TFS) Name() string { return "TFS" }

// Pick implements Policy.
func (t *TFS) Pick(now sim.Time, entries []*Entry, cfg *Config) []*Entry {
	if cap(t.work) < len(entries) {
		// Room for every entry to have work and be its own tenant, so the
		// tally writes by index.
		n := 2 * len(entries)
		t.views, t.work = make([]tenantView, 0, n), make([]*Entry, 0, n)
	}
	// The current tenant keeps the device while its slice lasts and it has
	// work, whatever the others stand at: only its entries are read.
	if t.active && now < t.sliceEnd {
		if work := t.list(entries, t.current); len(work) > 0 {
			return work
		}
	}

	views := t.views[:0]
	for _, e := range entries {
		i := 0
		for i < len(views) && views[i].id < e.TenantID {
			i++
		}
		if i == len(views) || views[i].id != e.TenantID {
			views = views[:len(views)+1]
			copy(views[i+1:], views[i:])
			views[i] = tenantView{id: e.TenantID, weight: e.Weight}
		}
		views[i].attained += float64(e.Attained)
		views[i].hasWork = views[i].hasWork || e.HasWork()
	}

	if t.active {
		// Turn over: penalize overshoot beyond the allocated slice.
		for i := range views {
			if views[i].id == t.current {
				used := views[i].attained - t.turnBase
				alloc := float64(t.turnLen)
				if used > alloc {
					t.penalty[t.current] += used - alloc
				}
			}
		}
		t.active = false
	}
	// Choose the tenant with the least weighted (attained + penalty) among
	// tenants with pending work — the "least attained fair share". The views
	// are in id order, so a tie stays with the lower id.
	var pick *tenantView
	var bestKey float64
	for i := range views {
		if tv := &views[i]; tv.hasWork {
			if key := (tv.attained + t.penalty[tv.id]) / float64(tv.weight); pick == nil || key < bestKey {
				pick, bestKey = tv, key
			}
		}
	}
	if pick == nil {
		clear(t.work)
		t.work = t.work[:0]
		return nil
	}
	t.current = pick.id
	t.turnLen = tfsBaseSlice * sim.Time(pick.weight)
	t.sliceEnd = now + t.turnLen
	t.turnBase = pick.attained
	t.active = true
	return t.list(entries, pick.id)
}

// list lists tenant's entries with work, in app-id order, and clears what the
// previous list held beyond them: no entry stays past the turn after it was
// listed.
func (t *TFS) list(entries []*Entry, tenant int64) []*Entry {
	work := t.work[:0]
	for _, e := range entries {
		if e.TenantID == tenant && e.HasWork() {
			work = append(work, e)
		}
	}
	clear(t.work[len(work):max(len(work), len(t.work))])
	t.work = work
	return work
}

// PS is Phase Selection: wake one thread per GPU engine phase so that the
// kernel engine and both copy engines stay busy simultaneously — the
// "guitar chord" the scheduler is named after. Unfilled engine slots fall
// back to the phase priority KL > H2D = D2H > DFL; ties within a phase go to
// the thread with least attained service, which keeps PS nearly as fair as
// TFS. PS sees a phase change at its next turn (the epoch boundary, or a
// sleeping thread's Turn kick); the change itself kicks nothing.
type PS struct{}

// psFill is the phase priority; its first pickSlots phases are the engines'.
var psFill = [...]Phase{PhaseKL, PhaseH2D, PhaseD2H, PhaseDFL}

// Name implements Policy.
func (PS) Name() string { return "PS" }

// Pick implements Policy.
func (PS) Pick(now sim.Time, entries []*Entry, cfg *Config) []*Entry {
	// The pickSlots least-attained candidates of each phase, in order: no
	// pick reaches deeper into a phase than that.
	var top [PhaseKL + 1][pickSlots]*Entry
	var have, taken [PhaseKL + 1]int
	for _, e := range entries {
		ph := e.Phase
		if ph == PhaseIdle {
			ph = PhaseDFL
		}
		if ph >= PhaseDFL && ph <= PhaseKL && e.HasWork() {
			have[ph] = insertLeast(top[ph][:], have[ph], e, lessAttained)
		}
	}
	// One per engine first: kernel, then the two copy directions.
	n := 0
	for _, ph := range psFill[:pickSlots] {
		if have[ph] > 0 {
			cfg.picked[n] = top[ph][0]
			taken[ph] = 1
			n++
		}
	}
	// Fill remaining slots by phase priority.
	for _, ph := range psFill {
		for ; n < pickSlots && taken[ph] < have[ph]; n++ {
			cfg.picked[n] = top[ph][taken[ph]]
			taken[ph]++
		}
	}
	return cfg.result(n)
}

// lessAttained orders entries by (Attained, AppID).
func lessAttained(a, b *Entry) bool {
	return a.Attained < b.Attained || a.Attained == b.Attained && a.AppID < b.AppID
}
