package devsched

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/sim"
)

// The policies as they were before Pick stopped allocating — maps, sort.Slice
// and a fresh slice a turn — kept as the oracle the in-place ones are held to.

type refLAS struct{}

func (refLAS) Pick(now sim.Time, entries []*Entry, cfg *Config) []*Entry {
	var work []*Entry
	for _, e := range entries {
		if e.HasWork() {
			work = append(work, e)
		}
	}
	sort.Slice(work, func(i, j int) bool {
		if work[i].CGS != work[j].CGS {
			return work[i].CGS < work[j].CGS
		}
		return work[i].AppID < work[j].AppID
	})
	if len(work) > lasWidth {
		work = work[:lasWidth]
	}
	return work
}

type refTFS struct {
	usage    map[int64]float64
	penalty  map[int64]float64
	current  int64
	sliceEnd sim.Time
	turnBase float64
	turnLen  sim.Time
	active   bool
}

type refTenantView struct {
	id       int64
	weight   int
	attained float64
	work     []*Entry
}

func newRefTFS() *refTFS {
	return &refTFS{usage: make(map[int64]float64), penalty: make(map[int64]float64)}
}

func (t *refTFS) Pick(now sim.Time, entries []*Entry, cfg *Config) []*Entry {
	tenants := map[int64]*refTenantView{}
	order := []int64{}
	for _, e := range entries {
		tv, ok := tenants[e.TenantID]
		if !ok {
			tv = &refTenantView{id: e.TenantID, weight: e.Weight}
			tenants[e.TenantID] = tv
			order = append(order, e.TenantID)
		}
		tv.attained += float64(e.Attained)
		if e.HasWork() {
			tv.work = append(tv.work, e)
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, id := range order {
		t.usage[id] = tenants[id].attained
	}

	if t.active {
		if cur, ok := tenants[t.current]; ok && now < t.sliceEnd && len(cur.work) > 0 {
			return cur.work
		}
		if cur, ok := tenants[t.current]; ok {
			used := cur.attained - t.turnBase
			alloc := float64(t.turnLen)
			if used > alloc {
				t.penalty[t.current] += used - alloc
			}
		}
		t.active = false
	}

	var best *refTenantView
	var bestKey float64
	for _, id := range order {
		tv := tenants[id]
		if len(tv.work) == 0 {
			continue
		}
		key := (t.usage[id] + t.penalty[id]) / float64(tv.weight)
		if best == nil || key < bestKey || (key == bestKey && id < best.id) {
			best, bestKey = tv, key
		}
	}
	if best == nil {
		return nil
	}
	t.current = best.id
	t.turnLen = tfsBaseSlice * sim.Time(best.weight)
	t.sliceEnd = now + t.turnLen
	t.turnBase = best.attained
	t.active = true
	return best.work
}

type refPS struct{}

func (refPS) Pick(now sim.Time, entries []*Entry, cfg *Config) []*Entry {
	groups := map[Phase][]*Entry{}
	for _, e := range entries {
		if !e.HasWork() {
			continue
		}
		ph := e.Phase
		if ph == PhaseIdle {
			ph = PhaseDFL
		}
		groups[ph] = append(groups[ph], e)
	}
	for _, ph := range []Phase{PhaseKL, PhaseH2D, PhaseD2H, PhaseDFL} {
		g := groups[ph]
		sort.Slice(g, func(i, j int) bool {
			if g[i].Attained != g[j].Attained {
				return g[i].Attained < g[j].Attained
			}
			return g[i].AppID < g[j].AppID
		})
	}
	const slots = 3
	picked := make([]*Entry, 0, slots)
	used := map[int]bool{}
	take := func(ph Phase) bool {
		for _, e := range groups[ph] {
			if !used[e.AppID] {
				picked = append(picked, e)
				used[e.AppID] = true
				return true
			}
		}
		return false
	}
	take(PhaseKL)
	take(PhaseH2D)
	take(PhaseD2H)
	for _, ph := range []Phase{PhaseKL, PhaseH2D, PhaseD2H, PhaseDFL} {
		for len(picked) < slots && take(ph) {
		}
		if len(picked) >= slots {
			break
		}
	}
	return picked
}

// picker is what the two generations of a policy have in common.
type picker interface {
	Pick(now sim.Time, entries []*Entry, cfg *Config) []*Entry
}

func appIDs(es []*Entry) []int {
	ids := make([]int, len(es))
	for i, e := range es {
		ids[i] = e.AppID
	}
	return ids
}

// history is a seeded random life of one device's RCB: every step changes
// what a policy can see — who has work, phases, attained service, membership,
// the clock — in ways that keep the app-id order the Scheduler guarantees.
type history struct {
	rng     *rand.Rand
	entries []*Entry
	backlog map[int]*int
	tenants int
	nextApp int
	now     sim.Time
	cfg     Config
}

func newHistory(seed int64) *history {
	h := &history{
		rng:     rand.New(rand.NewSource(seed)),
		backlog: map[int]*int{},
		cfg:     DefaultConfig(),
	}
	h.tenants = 1 + h.rng.Intn(5)
	for n := 1 + h.rng.Intn(32); n > 0; n-- {
		h.register()
	}
	return h
}

// register appends an application: ids only grow, so the list stays ordered.
// A tenant's entries may disagree on weight; the policy takes the first's.
func (h *history) register() {
	h.nextApp += 1 + h.rng.Intn(3)
	pending := new(int)
	*pending = h.rng.Intn(2)
	h.backlog[h.nextApp] = pending
	h.entries = append(h.entries, &Entry{
		AppID:    h.nextApp,
		TenantID: int64(1 + h.rng.Intn(h.tenants)),
		Weight:   1 + h.rng.Intn(3),
		Phase:    Phase(h.rng.Intn(int(PhaseKL) + 1)),
		Backlog:  func() int { return *pending },
	})
}

var serviceDeltas = []sim.Time{0, 0, sim.Millisecond, sim.Millisecond, 3 * sim.Millisecond, 25 * sim.Millisecond}

func (h *history) step() {
	rng := h.rng
	switch rng.Intn(4) {
	case 0: // same instant: a kick
	case 1, 2:
		h.now += epoch
	default: // past any slice a weight of 3 can buy
		h.now += 4 * tfsBaseSlice
	}
	for _, e := range h.entries {
		if rng.Intn(4) == 0 {
			*h.backlog[e.AppID] = rng.Intn(3)
		}
		if rng.Intn(4) == 0 {
			e.Phase = Phase(rng.Intn(int(PhaseKL) + 1))
		}
		// Service comes in a few sizes, so exact ties on Attained and on CGS
		// (between entries and against their own past) happen all the time.
		if rng.Intn(2) == 0 {
			e.Attained += serviceDeltas[rng.Intn(len(serviceDeltas))]
		}
		if rng.Intn(2) == 0 {
			e.CGS = float64(rng.Intn(4))
		}
	}
	if len(h.entries) > 1 && rng.Intn(8) == 0 {
		i := rng.Intn(len(h.entries))
		h.entries[i].exited = true
		h.entries = append(h.entries[:i], h.entries[i+1:]...)
	}
	if len(h.entries) < 32 && rng.Intn(8) == 0 {
		h.register()
	}
	// Now and then a whole tenant goes idle, or everybody does.
	if rng.Intn(50) == 0 {
		idle := int64(1 + rng.Intn(h.tenants))
		all := rng.Intn(4) == 0
		for _, e := range h.entries {
			if all || e.TenantID == idle {
				*h.backlog[e.AppID] = 0
			}
		}
	}
}

// TestPoliciesMatchReference drives each in-place policy and its oracle through
// the same random histories: the picked app ids agree on every turn, a pick is
// empty exactly when no entry has work (the Policy contract the Dispatcher
// reads idleness from), and TFS's carried state agrees after every turn.
func TestPoliciesMatchReference(t *testing.T) {
	const (
		seeds = 6
		turns = 4000
	)
	policies := []struct {
		name string
		make func() (got, want picker)
	}{
		{"LAS", func() (picker, picker) { return LAS{}, refLAS{} }},
		{"PS", func() (picker, picker) { return PS{}, refPS{} }},
		{"TFS", func() (picker, picker) { return NewTFS(), newRefTFS() }},
		{"TFS reused", func() (picker, picker) { return reusedTFS(), newRefTFS() }},
	}
	for _, pol := range policies {
		for seed := int64(1); seed <= seeds; seed++ {
			h := newHistory(seed)
			got, want := pol.make()
			picks := 0
			for turn := 0; turn < turns; turn++ {
				h.step()
				g := appIDs(got.Pick(h.now, h.entries, &h.cfg))
				w := appIDs(want.Pick(h.now, h.entries, &h.cfg))
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("%s seed %d turn %d (%d entries, now %v): picked %v, reference %v",
						pol.name, seed, turn, len(h.entries), h.now, g, w)
				}
				if anyWork := slices.ContainsFunc(h.entries, (*Entry).HasWork); anyWork != (len(g) > 0) {
					t.Fatalf("%s seed %d turn %d: picked %v with work on an entry: %v", pol.name, seed, turn, g, anyWork)
				}
				picks += len(g)
				if tfs, ok := got.(*TFS); ok {
					ref := want.(*refTFS)
					if tfs.current != ref.current || tfs.sliceEnd != ref.sliceEnd || tfs.turnBase != ref.turnBase ||
						tfs.turnLen != ref.turnLen || tfs.active != ref.active || !reflect.DeepEqual(tfs.penalty, ref.penalty) {
						t.Fatalf("TFS seed %d turn %d: state %+v, reference %+v", seed, turn, tfs, ref)
					}
				}
			}
			if picks < turns {
				t.Fatalf("%s seed %d: %d picks in %d turns, the history starves the policy", pol.name, seed, picks, turns)
			}
		}
	}
}

// reusedTFS is the TFS of a scheduler re-initialised after it ran a history
// of its own: Init must leave it as NewTFS would.
func reusedTFS() *TFS {
	k := sim.NewKernel(1)
	s := New(k, testDev(k), 0, "TFS", Config{})
	for h, turn := newHistory(99), 0; turn < 500; turn++ {
		h.step()
		s.policy.Pick(h.now, h.entries, &h.cfg)
	}
	s.Init(k, s.dev, 0, "TFS", Config{})
	return s.policy.(*TFS)
}

func backlogged(id int, tenant int64, ph Phase) *Entry {
	return &Entry{AppID: id, TenantID: tenant, Weight: 1, Phase: ph, Backlog: constBacklog(1)}
}

func TestNobodyHasWorkPicksNil(t *testing.T) {
	cfg := DefaultConfig()
	idle := []*Entry{{AppID: 1, TenantID: 1, Weight: 1, Backlog: constBacklog(0)}, {AppID: 2, TenantID: 2, Weight: 1}}
	for _, pol := range []Policy{LAS{}, NewTFS(), PS{}} {
		if got := pol.Pick(0, idle, &cfg); got != nil {
			t.Errorf("%s picked %v with no work anywhere", pol.Name(), appIDs(got))
		}
		if got := pol.Pick(0, nil, &cfg); got != nil {
			t.Errorf("%s picked %v from no entries", pol.Name(), appIDs(got))
		}
	}
}

// The current tenant's last entry unregisters mid-slice: the slice ends without
// a penalty (there is nothing left to measure it on) and the next tenant runs.
func TestTFSCurrentTenantLeavesMidSlice(t *testing.T) {
	cfg := DefaultConfig()
	tfs := NewTFS()
	a, b := backlogged(1, 100, PhaseKL), backlogged(2, 200, PhaseKL)
	if got := appIDs(tfs.Pick(0, []*Entry{a, b}, &cfg)); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("first pick %v, want [1]", got)
	}
	a.Attained = 10 * tfsBaseSlice
	a.exited = true
	if got := appIDs(tfs.Pick(sim.Millisecond, []*Entry{b}, &cfg)); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("pick after the current tenant left %v, want [2]", got)
	}
	if len(tfs.penalty) != 0 || tfs.current != 200 || tfs.sliceEnd != sim.Millisecond+tfsBaseSlice {
		t.Fatalf("state after the current tenant left: %+v", tfs)
	}
}

// A tenant whose entries all go idle loses its slice at once, and competes on
// its usage like anyone else when they come back.
func TestTFSTenantGoesIdleAndReturns(t *testing.T) {
	cfg := DefaultConfig()
	tfs := NewTFS()
	pending := 1
	a1 := &Entry{AppID: 1, TenantID: 100, Weight: 1, Backlog: func() int { return pending }}
	a2 := &Entry{AppID: 3, TenantID: 100, Weight: 1, Backlog: func() int { return pending }}
	b := backlogged(2, 200, PhaseKL)
	entries := []*Entry{a1, b, a2}
	if got := appIDs(tfs.Pick(0, entries, &cfg)); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("first pick %v, want tenant 100's [1 3]", got)
	}
	a1.Attained, pending = sim.Millisecond, 0
	if got := appIDs(tfs.Pick(sim.Millisecond, entries, &cfg)); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("pick with tenant 100 idle %v, want [2]", got)
	}
	b.Attained, pending = 2*sim.Millisecond, 1
	if got := appIDs(tfs.Pick(2*sim.Millisecond, entries, &cfg)); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("tenant 100's return cut tenant 200's slice short: %v", got)
	}
	if got := appIDs(tfs.Pick(sim.Millisecond+tfsBaseSlice, entries, &cfg)); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("pick after tenant 200's slice %v, want the less-served tenant 100's [1 3]", got)
	}
}

func TestPSEveryThreadInOnePhase(t *testing.T) {
	cfg := DefaultConfig()
	for _, ph := range []Phase{PhaseKL, PhaseH2D, PhaseD2H, PhaseDFL, PhaseIdle} {
		var entries []*Entry
		for id := 1; id <= 5; id++ {
			e := backlogged(id, 1, ph)
			e.Attained = sim.Time(10 - id) // the later the id, the less attained
			entries = append(entries, e)
		}
		entries[1].Attained = entries[4].Attained // a tie: app 2 goes before app 5
		if got := appIDs(PS{}.Pick(0, entries, &cfg)); !reflect.DeepEqual(got, []int{2, 5, 4}) {
			t.Errorf("all in %v: picked %v, want [2 5 4]", ph, got)
		}
	}
}

// An idle-phase thread with work is a default-phase one: it competes with DFL
// threads on attained service and yields to every engine phase.
func TestPSIdleFoldsIntoDefault(t *testing.T) {
	cfg := DefaultConfig()
	idle, dfl, kl := backlogged(1, 1, PhaseIdle), backlogged(2, 1, PhaseDFL), backlogged(3, 1, PhaseKL)
	dfl.Attained = 1
	if got := appIDs(PS{}.Pick(0, []*Entry{idle, dfl, kl}, &cfg)); !reflect.DeepEqual(got, []int{3, 1, 2}) {
		t.Fatalf("picked %v, want [3 1 2]", got)
	}
	idle.Attained = 2
	if got := appIDs(PS{}.Pick(0, []*Entry{idle, dfl, kl}, &cfg)); !reflect.DeepEqual(got, []int{3, 2, 1}) {
		t.Fatalf("picked %v, want [3 2 1]", got)
	}
}

func TestLASMoreEqualEntriesThanWidth(t *testing.T) {
	cfg := DefaultConfig()
	var entries []*Entry
	for id := 1; id <= lasWidth+4; id++ {
		e := backlogged(id, 1, PhaseKL)
		e.CGS = 7
		entries = append(entries, e)
	}
	want := []int{1, 2, 3}
	if got := appIDs(LAS{}.Pick(0, entries, &cfg)); !reflect.DeepEqual(got, want) {
		t.Fatalf("picked %v, want the lowest ids %v", got, want)
	}
	// The order is (CGS, AppID) whatever order the entries arrive in.
	for i, j := 0, len(entries)-1; i < j; i, j = i+1, j-1 {
		entries[i], entries[j] = entries[j], entries[i]
	}
	if got := appIDs(LAS{}.Pick(0, entries, &cfg)); !reflect.DeepEqual(got, want) {
		t.Fatalf("reversed entries: picked %v, want %v", got, want)
	}
}

// The scratch a pick is built in holds no entry beyond the turn after the one
// that listed it, so an application that exited is not kept alive by it.
func TestPickScratchDropsDepartedEntries(t *testing.T) {
	cfg := DefaultConfig()
	tfs := NewTFS()
	var entries []*Entry
	for id := 1; id <= 6; id++ {
		entries = append(entries, backlogged(id, int64(1+id%2), PhaseKL))
	}
	stay := entries[:1]
	for _, pol := range []Policy{LAS{}, PS{}, tfs} {
		pol.Pick(0, entries, &cfg)
		pol.Pick(0, stay, &cfg)
		held := append(append([]*Entry(nil), cfg.picked[:]...), tfs.work[:cap(tfs.work)]...)
		for _, e := range held {
			if e != nil && e != stay[0] {
				t.Errorf("%s: scratch still holds app %d after a turn without it", pol.Name(), e.AppID)
			}
		}
	}
}

// pickShape is the repo benchmark's devsched driver: eight backlogged entries
// of four tenants in mixed phases, the result ranged and mutated.
func pickShape() []*Entry {
	phases := []Phase{PhaseKL, PhaseH2D, PhaseD2H, PhaseDFL}
	entries := make([]*Entry, 8)
	for i := range entries {
		entries[i] = &Entry{
			AppID: i + 1, TenantID: int64(i%4 + 1), Weight: 1 + i%2,
			Phase: phases[i%len(phases)], Backlog: func() int { return 1 },
		}
	}
	return entries
}

func TestPickSteadyStateZeroAlloc(t *testing.T) {
	cfg := DefaultConfig()
	for _, pol := range []Policy{NewTFS(), LAS{}, PS{}} {
		entries := pickShape()
		turn := 0
		allocs := testing.AllocsPerRun(1000, func() {
			now := sim.Time(turn) * 10 * sim.Millisecond
			turn++
			for _, e := range pol.Pick(now, entries, &cfg) {
				e.Attained += sim.Millisecond
				e.CGS++
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per Pick, want 0", pol.Name(), allocs)
		}
	}
}

// TestDispatcherTurnZeroAlloc is the same budget one level up: a real
// Scheduler's whole turn — Request Monitor refresh from the device, Pick,
// wake/sleep marking, re-arming the epoch timer — with no recorder installed.
// AllocsPerRun counts the whole process's mallocs, so one window of 10 000
// turns also reads whatever the runtime allocated on its own account meanwhile
// (a single window does in one run of make cover in three); the least of five
// windows on the same warm kernel does not, and an allocation the turn makes
// is in all five, 10 000 times over.
func TestDispatcherTurnZeroAlloc(t *testing.T) {
	const epochs = 10000
	for _, policy := range []string{"TFS", "LAS", "PS"} {
		k := sim.NewKernel(1)
		s := New(k, testDev(k), 0, policy, Config{})
		for i, e := range pickShape() {
			s.register(e.AppID, e.TenantID, e.Weight, "X", e.Backlog).Phase = Phase(1 + i%4)
		}
		k.RunUntil(100 * epoch) // warm-up: scratch grown, timer slots and event pool primed
		turns := s.gen
		allocs := math.Inf(1)
		for window := 0; window < 5; window++ {
			allocs = min(allocs, testing.AllocsPerRun(1, func() { k.RunUntil(k.Now() + epochs*epoch) }))
		}
		if turns = s.gen - turns; turns < 5*epochs {
			t.Fatalf("%s: %d turns in %d epochs, the dispatcher is not turning", s.policy.Name(), turns, 5*epochs)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocs over %d dispatcher turns in the quietest of five windows, want 0", s.policy.Name(), allocs, epochs)
		}
		s.Close()
		k.Close()
	}
}

// TestPSPhaseChangeAloneDoesNotKick pins the model as it has always run: a
// phase flip between epochs causes no dispatcher turn, so PS acts on it at the
// epoch boundary (or at an earlier WaitTurn or membership kick). Making
// SetPhaseEntry kick is a model change — it moves every PS golden — to be made on
// purpose; see EXPERIMENTS.md "Known divergences and why", item 4.
func TestPSPhaseChangeAloneDoesNotKick(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k, testDev(k), 0, "PS", Config{})
	var es []*Entry
	for id := 1; id <= 4; id++ {
		es = append(es, s.register(id, int64(id), 1, "X", constBacklog(1)))
		s.SetPhaseEntry(es[id-1], PhaseKL)
	}
	k.RunUntil(epoch / 2)
	awake := func() string { return fmt.Sprint(es[0].Awake, es[1].Awake, es[2].Awake, es[3].Awake) }
	if got := awake(); got != "true true true false" {
		t.Fatalf("first turn woke %s, want the three lowest ids", got)
	}
	// App 4 moves to a copy engine nobody is feeding: PS would wake it in
	// place of a third kernel launcher — when it next looks.
	gen := s.gen
	s.SetPhaseEntry(es[3], PhaseH2D)
	k.RunUntil(epoch - 1)
	if s.gen != gen || awake() != "true true true false" {
		t.Fatalf("phase change caused a turn before the epoch boundary: gen %d -> %d, awake %s", gen, s.gen, awake())
	}
	k.RunUntil(epoch)
	if s.gen != gen+1 || awake() != "true true false true" {
		t.Fatalf("epoch boundary: gen %d -> %d, awake %s, want one turn waking app 4 for app 3", gen, s.gen, awake())
	}
	s.Close()
	k.Close()
}
