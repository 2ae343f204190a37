package cluster

import (
	"cmp"
	"slices"

	"repro/internal/balancer"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Placement records one tenant's admission: which supernode took it, when,
// and what it cost to get there.
type Placement struct {
	Tenant    int      // 1-based global tenant id (birth order)
	Supernode int      // index into Config.Supernodes
	Node      int      // arrival node within the supernode (rotation)
	Slots     int      // admission slots held for the tenant's lifetime
	At        sim.Time // commit instant (≥ the tenant's birth instant)
	Wait      sim.Time // admission wait: At − birth (nonzero only after parking)
	Retries   int      // conflict retries consumed before the commit
}

// PlacementLog is the deterministic output of the placement engine: a pure
// function of (seed, arrival spec, fleet, policy, staleness knobs).
type PlacementLog struct {
	Born     int // tenants the arrival process produced
	Placed   int // tenants committed to a supernode
	Rejected int // tenants turned away (park overflow, unplaceable, horizon)
	Parked   int // tenants that waited in the park queue at least once

	Conflicts  int // optimistic commits beaten by the authoritative ledger
	Refreshes  int // snapshot refreshes (staleness boundary crossings)
	PeakParked int // high-water mark of the park queue

	// Placements lists every admission in commit order; the supernode
	// runs launch exactly these streams.
	Placements []Placement
}

// parked is one tenant waiting in the admission queue.
type parked struct {
	tenant int
	birth  workload.TenantBirth
}

// departure is a scheduled capacity release: a placed tenant's declared
// lifetime ending.
type departure struct {
	at     sim.Time
	tenant int
	sn     int
	slots  int
}

// departures holds the scheduled releases latest first by (time, tenant id),
// so the next is last. The tenant id tiebreak keeps equal-instant releases
// deterministic and makes the order total.
type departures []departure

// push inserts d in order.
func (h *departures) push(d departure) {
	i, _ := slices.BinarySearchFunc(*h, d, func(x, t departure) int {
		return cmp.Or(cmp.Compare(t.at, x.at), cmp.Compare(t.tenant, x.tenant))
	})
	*h = slices.Insert(*h, i, d) // bounded by peak placed tenants
}

// pop removes and returns the earliest departure.
func (h *departures) pop() (d departure) {
	d, *h = (*h)[len(*h)-1], (*h)[:len(*h)-1]
	return d
}

// maxRetries bounds the refresh-and-retry loop after a commit conflict
// before the tenant parks.
const maxRetries = 3

// engine is the shared-state placement state machine.
type engine struct {
	cfg  Config
	caps []int // per-supernode capacity (authoritative, immutable)

	// ledgerFree is the authoritative free-slot ledger: every commit and
	// release lands here immediately. Placement decisions never read it
	// directly — they read the snapshot — but commits validate against it.
	ledgerFree []int

	// snapFree is the scheduler's snapshot of the ledger, refreshed every
	// SnapshotEvery commits (and on park-queue drains). Between refreshes
	// it drifts from the ledger — commits it hasn't absorbed make it
	// optimistic, releases it hasn't seen make it pessimistic — which is
	// exactly the staleness a shared-state multi-scheduler race produces.
	snapFree     []int
	sinceRefresh int

	shapes []balancer.SliceShape // demand classes, for the frag policy

	log  PlacementLog
	park []parked // bounded FIFO admission queue
	dep  departures

	perSNPlaced []int // placements per supernode (node rotation counter)
}

func newEngine(cfg Config) *engine {
	e := &engine{cfg: cfg}
	e.caps = make([]int, len(cfg.Supernodes))
	e.ledgerFree = make([]int, len(cfg.Supernodes))
	e.snapFree = make([]int, len(cfg.Supernodes))
	e.perSNPlaced = make([]int, len(cfg.Supernodes))
	for i, sn := range cfg.Supernodes {
		e.caps[i] = sn.Capacity()
		e.ledgerFree[i] = e.caps[i]
		e.snapFree[i] = e.caps[i]
	}
	// The demand classes the population can present: the unit tenant and,
	// when the spec emits big tenants, their BigSlots demand.
	e.shapes = []balancer.SliceShape{{Name: "1s", Frac: 1, Mem: 1}}
	if cfg.Arrivals.BigEvery > 0 {
		big := cfg.Arrivals.BigSlots
		if big <= 0 {
			big = 2
		}
		if big > 1 {
			e.shapes = append(e.shapes, balancer.SliceShape{Name: "big", Frac: big, Mem: int64(big)})
		}
	}
	return e
}

// refresh copies the ledger into the snapshot.
func (e *engine) refresh() {
	copy(e.snapFree, e.ledgerFree)
	e.sinceRefresh = 0
	e.log.Refreshes++
}

// fragScoreAt returns balancer.FragScore for a synthetic cluster-scope DST
// row describing a supernode with the given free slots: the share of demand
// classes its free hole cannot serve, weighted by the hole's size. This is
// the same measure the Frag slice policy optimizes per device, lifted to
// admission slots.
func (e *engine) fragScoreAt(sn, free int) float64 {
	row := balancer.DSTEntry{
		Partitionable: true,
		TotalFrac:     e.caps[sn], FreeFrac: free,
		TotalMem: int64(e.caps[sn]), FreeMem: int64(free),
		Shapes: e.shapes,
	}
	return balancer.FragScore(&row)
}

// pick selects a supernode from the snapshot for a tenant demanding slots,
// or -1 when the snapshot shows no room anywhere.
func (e *engine) pick(slots int) int {
	best := -1
	switch e.cfg.Policy {
	case PolicyFrag:
		// Fragmentation gradient: the supernode whose frag score degrades
		// the least by hosting this tenant. Strict < keeps ties on the
		// lowest index.
		bestDelta := 0.0
		for sn, free := range e.snapFree {
			if free < slots {
				continue
			}
			delta := e.fragScoreAt(sn, free-slots) - e.fragScoreAt(sn, free)
			if best < 0 || delta < bestDelta {
				best, bestDelta = sn, delta
			}
		}
	default: // PolicyLeastLoaded
		bestFree := 0
		for sn, free := range e.snapFree {
			if free >= slots && free > bestFree {
				best, bestFree = sn, free
			}
		}
	}
	return best
}

// commit applies a placement to the authoritative ledger and ages the
// snapshot. The snapshot deliberately does not absorb the commit — it only
// learns about it at the next refresh.
func (e *engine) commit(sn, slots int) {
	e.ledgerFree[sn] -= slots
	if e.ledgerFree[sn] < 0 {
		panic("cluster: ledger overcommitted") // unreachable: tryPlace validates
	}
	e.sinceRefresh++
	if e.sinceRefresh >= e.cfg.SnapshotEvery {
		e.refresh()
	}
}

// tryPlace runs the optimistic placement loop for one tenant: pick from the
// snapshot, validate against the ledger, refresh and retry on conflict.
// Returns the chosen supernode and retries consumed, or ok=false when the
// fleet has no room within maxRetries.
func (e *engine) tryPlace(slots int) (sn, retries int, ok bool) {
	for attempt := 0; ; attempt++ {
		cand := e.pick(slots)
		if cand >= 0 && e.ledgerFree[cand] >= slots {
			e.commit(cand, slots)
			return cand, attempt, true
		}
		if cand >= 0 {
			// The snapshot promised room the ledger no longer has: a
			// conflict, the price of optimism over stale state.
			e.log.Conflicts++
		}
		if attempt >= maxRetries {
			return -1, attempt, false
		}
		e.refresh()
		if e.pick(slots) < 0 {
			// Even fresh state has no room; retrying cannot help.
			return -1, attempt, false
		}
	}
}

// admit places tenant (1-based id) with the given birth at virtual time
// now, appending the Placement and scheduling the departure.
func (e *engine) admit(tenant int, b workload.TenantBirth, now sim.Time, sn, retries int) {
	node := 0
	if n := len(e.cfg.Supernodes[sn].Nodes); n > 0 {
		node = e.perSNPlaced[sn] % n
	}
	e.perSNPlaced[sn]++
	e.log.Placed++
	e.log.Placements = append(e.log.Placements, Placement{
		Tenant: tenant, Supernode: sn, Node: node, Slots: b.Slots,
		At: now, Wait: now - b.At, Retries: retries,
	})
	e.dep.push(departure{at: now + b.Life, tenant: tenant, sn: sn, slots: b.Slots})
}

// release processes one departure: the ledger gets the slots back
// immediately; the snapshot stays stale until the next refresh.
func (e *engine) release(d departure) {
	e.ledgerFree[d.sn] += d.slots
	if e.ledgerFree[d.sn] > e.caps[d.sn] {
		panic("cluster: ledger over-released") // unreachable
	}
}

// drainPark re-attempts the park queue head-first after capacity returned.
// Strict FIFO: a head that still does not fit blocks the queue (admission
// order is part of the tier's fairness contract), so the drain stops there.
func (e *engine) drainPark(now sim.Time) {
	e.refresh() // the release that woke us is a state-store event
	for len(e.park) > 0 {
		head := e.park[0]
		sn, retries, ok := e.tryPlace(head.birth.Slots)
		if !ok {
			return
		}
		e.park = e.park[1:]
		e.admit(head.tenant, head.birth, now, sn, retries)
	}
}

// maxCapacity returns the largest single-supernode capacity.
func (e *engine) maxCapacity() int {
	m := 0
	for _, c := range e.caps {
		if c > m {
			m = c
		}
	}
	return m
}

// place runs the whole placement timeline: tenant births from the arrival
// population interleaved with the departures of already-placed tenants, in
// virtual-time order with departures winning ties (capacity frees before
// the same-instant arrival asks for it, matching the state store applying
// releases before admissions at a barrier).
func (e *engine) place(births []workload.TenantBirth) *PlacementLog {
	e.log.Born = len(births)
	maxCap := e.maxCapacity()
	for i, b := range births {
		tenant := i + 1
		// Departures strictly before — or tied with — this birth land first.
		for len(e.dep) > 0 && e.dep[len(e.dep)-1].at <= b.At {
			d := e.dep.pop()
			e.release(d)
			e.drainPark(d.at)
		}
		if b.Slots > maxCap {
			// No supernode could ever host this demand; parking would
			// block the queue forever.
			e.log.Rejected++
			continue
		}
		if sn, retries, ok := e.tryPlace(b.Slots); ok {
			e.admit(tenant, b, b.At, sn, retries)
			continue
		}
		if len(e.park) >= e.cfg.ParkCapacity {
			e.log.Rejected++
			continue
		}
		e.park = append(e.park, parked{tenant: tenant, birth: b})
		e.log.Parked++
		if len(e.park) > e.log.PeakParked {
			e.log.PeakParked = len(e.park)
		}
	}
	// Drain the tail: remaining departures may still admit parked tenants.
	for len(e.dep) > 0 {
		d := e.dep.pop()
		e.release(d)
		e.drainPark(d.at)
	}
	// Tenants still parked when the timeline ends were never served.
	e.log.Rejected += len(e.park)
	e.park = nil
	return &e.log
}

// checkInvariants panics if the conservation law broke: every born tenant
// is exactly one of placed, currently parked, or rejected.
func (l *PlacementLog) checkInvariants(currentlyParked int) {
	if l.Placed+currentlyParked+l.Rejected != l.Born {
		panic("cluster: silent tenant loss (placed+parked+rejected != born)")
	}
}
