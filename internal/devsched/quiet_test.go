package devsched

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gpu"
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/trace"
)

// A quiet history is an RCB history on a real kernel and device: backend
// threads register at staggered instants, run a few gated GPU operations each,
// sit idle with work pending now and then, and unregister; between RunUntil
// windows the driver flips a live entry's phase. Run once with the
// Dispatcher's idle hook installed and once without, the two must agree on
// everything the model can see.
type quietHistory struct {
	policy int      // 0 PS, 1 LAS, 2 TFS
	lag    sim.Time // the Request Monitor's AccountingLag
	wide   bool     // seven threads, so more than three entries have work
	seed   int64
}

func (h quietHistory) String() string {
	return fmt.Sprintf("%s lag %v wide %v seed %d", [...]string{"PS", "LAS", "TFS"}[h.policy], h.lag, h.wide, h.seed)
}

// quietRun is what a run of a history leaves: the scheduler's view of every
// entry after each real turn, by instant; the trace (registrations, waits,
// wakes and sleeps); the Unregister reports in order; and the real turns.
type quietRun struct {
	turns   map[sim.Time][]string
	trace   *trace.Set
	reports []rpcproto.Feedback
	real    int
}

// turnState renders what a turn leaves in the Request Monitor and the gate.
func (s *Scheduler) turnState() string {
	out := ""
	for _, e := range s.entries {
		out += fmt.Sprintf("%d:%v/%v/%x/%v/%v ", e.AppID, e.Awake, e.Attained, math.Float64bits(e.CGS), e.lastRefresh, e.epochSample)
	}
	return out
}

func (h quietHistory) run(hooked bool) quietRun {
	k := sim.NewKernel(1)
	defer k.Close()
	dev := testDev(k)
	pol := [...]func() Policy{func() Policy { return PS{} }, func() Policy { return LAS{} }, func() Policy { return NewTFS() }}[h.policy]()
	s := New(k, dev, 0, pol, Config{AccountingLag: h.lag})
	rec := trace.New()
	s.SetRecorder(rec)
	out := quietRun{turns: make(map[sim.Time][]string)}
	// The Dispatcher, started ahead of the first registration so each real
	// turn can be observed.
	s.disp = k.GoDaemon(nameFor(0), func(d *sim.Daemon) {
		s.dispatch(d)
		out.real++
		out.turns[d.Now()] = append(out.turns[d.Now()], s.turnState())
	})
	if hooked {
		s.disp.SetIdle(s.idle)
	}
	threads := 3
	if h.wide {
		threads = 7
	}
	ctx := dev.NewContext()
	for i := 0; i < threads; i++ {
		rng := rand.New(rand.NewSource(h.seed*101 + int64(i)))
		st := ctx.NewStream()
		k.Go(fmt.Sprintf("bt%d", i), func(p *sim.Proc) {
			p.Sleep(sim.Time(rng.Intn(1000)) * sim.Millisecond)
			pending := 3 + rng.Intn(12)
			e := new(Entry)
			s.Register(e, i+1, int64(1+i%3), 1+i%2, "X", func() int { return pending })
			for pending > 0 {
				op := &gpu.Op{AppID: i + 1}
				switch rng.Intn(3) {
				case 0:
					op.Kind, op.Compute = gpu.OpKernel, float64(1e5+rng.Intn(6e7)) // up to 60 ms
					s.SetPhaseEntry(e, PhaseKL)
				case 1:
					op.Kind, op.Bytes = gpu.OpH2D, int64(1+rng.Intn(200000)) // up to 20 ms
					s.SetPhaseEntry(e, PhaseH2D)
				default:
					op.Kind, op.Bytes = gpu.OpD2H, int64(1+rng.Intn(200000))
					s.SetPhaseEntry(e, PhaseD2H)
				}
				for !s.Turn(e) {
					p.WaitSignal(&e.Wake)
				}
				p.Wait(st.Submit(op))
				if rng.Intn(3) == 0 {
					p.Sleep(sim.Time(rng.Intn(400)) * sim.Millisecond) // idle, with work pending
				}
				pending--
			}
			var fb rpcproto.Feedback
			s.Unregister(e, &fb)
			out.reports = append(out.reports, fb)
		})
	}
	rng := rand.New(rand.NewSource(h.seed))
	for _, pending := k.NextEventTime(); pending; _, pending = k.NextEventTime() {
		window := sim.Time(1+rng.Intn(40)) * sim.Millisecond
		if rng.Intn(4) == 0 {
			window *= 25 // a re-entry ends the quiet: some windows hold long quiet spans
		}
		k.RunUntil(k.Now() + window)
		if n := len(s.entries); n > 0 && rng.Intn(2) == 0 {
			s.SetPhaseEntry(s.entries[rng.Intn(n)], Phase(rng.Intn(int(PhaseKL)+1)))
		}
		if k.Now() > 100*sim.Second {
			break // a history that does not drain fails on the pending threads below
		}
	}
	s.Close()
	k.Run()
	out.trace = rec.Snapshot()
	if len(out.reports) != threads {
		panic(fmt.Sprintf("%v: %d of %d threads finished", h, len(out.reports), threads))
	}
	return out
}

// check runs h both ways and reports the first difference, and how many
// turns the hook skipped.
func (h quietHistory) check(t *testing.T) (skipped int) {
	t.Helper()
	every, quiet := h.run(false), h.run(true)
	for at, got := range quiet.turns {
		if want := every.turns[at]; !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: at %v the turns with the hook left\n%q\nand every turn\n%q", h, at, got, want)
		}
	}
	if !reflect.DeepEqual(quiet.reports, every.reports) {
		t.Fatalf("%v: Unregister reports with the hook\n%+v\nand every turn\n%+v", h, quiet.reports, every.reports)
	}
	if !reflect.DeepEqual(quiet.trace, every.trace) {
		t.Fatalf("%v: the traces differ:\n%+v\n%+v", h, quiet.trace.Events, every.trace.Events)
	}
	return every.real - quiet.real
}

// TestQuietTurnsMatchEveryTurn holds the Dispatcher's idle hook to the turns
// it skips: over seeded histories of every policy, with and without
// accounting lag, with at most three entries with work and with more, the
// hooked Dispatcher wakes and sleeps the same threads at the same instants,
// leaves the same Request Monitor state after every turn it takes and writes
// the same reports. Every combination must skip turns.
func TestQuietTurnsMatchEveryTurn(t *testing.T) {
	for policy := 0; policy < 3; policy++ {
		for _, lag := range []sim.Time{0, 100 * sim.Millisecond} {
			for _, wide := range []bool{false, true} {
				skipped := 0
				for seed := int64(1); seed <= 4; seed++ {
					skipped += quietHistory{policy, lag, wide, seed}.check(t)
				}
				if skipped == 0 {
					t.Errorf("%v: no turn skipped in four histories", quietHistory{policy, lag, wide, 0})
				}
			}
		}
	}
}

// FuzzQuietTurns is the same check on the fuzzer's histories.
func FuzzQuietTurns(f *testing.F) {
	f.Add(uint8(0), false, true, int64(1))
	f.Fuzz(func(t *testing.T, policy uint8, lag, wide bool, seed int64) {
		h := quietHistory{policy: int(policy % 3), wide: wide, seed: seed}
		if lag {
			h.lag = 100 * sim.Millisecond
		}
		h.check(t)
	})
}
