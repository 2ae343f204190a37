package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
)

const look = sim.Time(60) // the RemoteLink-style lookahead used throughout

// record is one observed delivery in the ring scenario.
type record struct {
	Shard int
	At    sim.Time
	Token int
}

// ringRun builds n shard kernels passing tokens around a ring with varied
// (but deterministic) service times and hop delays, each hop sent as a
// closure (Send) or, with put, as a (queue, value) message (SendPut), runs the
// composition, and returns the per-shard observation logs concatenated in
// shard order plus the coordinator for stats inspection. workers is
// NewCoordinator's third argument, which nothing reads.
func ringRun(t *testing.T, n, workers, tokens, hops int, put bool) ([]record, *Coordinator) {
	t.Helper()
	kernels := make([]*sim.Kernel, n)
	queues := make([]*sim.Queue[any], n)
	logs := make([][]record, n)
	for i := range kernels {
		kernels[i] = sim.NewKernel(int64(i + 1))
		queues[i] = sim.NewQueue[any](kernels[i])
	}
	co := NewCoordinator(kernels, look, workers)
	for i := 0; i < n; i++ {
		i := i
		sh := co.Shard(i)
		kernels[i].Go(fmt.Sprintf("ring-%d", i), func(p *sim.Proc) {
			for {
				v := queues[i].Get(p).(int)
				logs[i] = append(logs[i], record{Shard: i, At: p.Now(), Token: v})
				if v >= tokens*hops {
					continue // token retired; keep serving others
				}
				// Service time and next hop vary with the token value so
				// same-instant deliveries and out-of-order hops both occur.
				p.Sleep(sim.Time(v*7%45) + 1)
				dst := (i + 1 + v%maxInt(1, n-1)) % n
				next := v + 1
				if put {
					sh.SendPut(dst, look+sim.Time(v%3)*13, queues[dst], next)
				} else {
					sh.Send(dst, look+sim.Time(v%3)*13, func() { queues[dst].Put(next) })
				}
			}
		})
	}
	// Seed the ring from shard 0 with a burst of tokens at distinct times.
	for tok := 0; tok < tokens; tok++ {
		tok := tok
		kernels[0].After(sim.Time(tok*11), func() { queues[0].Put(tok * hops / hops) })
	}
	co.Run()
	defer co.Close()
	var all []record
	for i := 0; i < n; i++ {
		all = append(all, logs[i]...)
	}
	return all, co
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestRingWorkerInvariance: the ring exercises windows of several shards and
// cross-shard messages, and a second run reproduces the first.
func TestRingWorkerInvariance(t *testing.T) {
	ref, refCo := ringRun(t, 4, 1, 6, 40, false)
	if len(ref) == 0 {
		t.Fatal("reference run produced no deliveries")
	}
	refStats := refCo.Stats()
	got, co := ringRun(t, 4, 1, 6, 40, false)
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("delivery log diverged on a rerun")
	}
	if s := co.Stats(); !reflect.DeepEqual(s, refStats) {
		t.Fatalf("stats diverged on a rerun: %+v vs %+v", s, refStats)
	}
	if refStats.Windows == 0 {
		t.Fatalf("ring run never exercised a multi-shard window: %+v", refStats)
	}
	if refStats.Messages == 0 {
		t.Fatal("no cross-shard messages delivered")
	}
	if refStats.MaxActive < 2 {
		t.Fatalf("MaxActive = %d, want >= 2", refStats.MaxActive)
	}
}

// goroutineID is the "goroutine N" prefix of the caller's stack header.
func goroutineID() string {
	var buf [64]byte
	return strings.Join(strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[:2], " ")
}

// TestWindowStepsShardsInOrderOnCallersGoroutine: a composition is one
// goroutine. Four kernels hold timers at the same instants, two to a window,
// and append to one unsynchronized log: every callback runs on the goroutine
// that called Run, a window runs shard 0 through its horizon, then shard 1,
// and so on, and neither NewCoordinator nor Run starts a goroutine whatever
// the third argument says.
func TestWindowStepsShardsInOrderOnCallersGoroutine(t *testing.T) {
	const n, windows = 4, 3
	// Two instants to a window, every other window empty.
	at := func(w, k int) sim.Time { return sim.Time(2*w)*look + sim.Time(k)*look/2 }
	self := goroutineID()
	for _, third := range []int{0, 1, 4} {
		before := runtime.NumGoroutine()
		kernels := make([]*sim.Kernel, n)
		var log, want []record
		for i := range kernels {
			kernels[i] = sim.NewKernel(1)
			for e := 0; e < 2*windows; e++ {
				kernels[i].After(at(e/2, e%2), func() {
					if id := goroutineID(); id != self {
						t.Errorf("third=%d: shard %d ran on %s, Run was called on %s", third, i, id, self)
					}
					log = append(log, record{Shard: i, At: kernels[i].Now()})
				})
			}
		}
		for w := 0; w < windows; w++ {
			for i := 0; i < n; i++ {
				want = append(want, record{Shard: i, At: at(w, 0)}, record{Shard: i, At: at(w, 1)})
			}
		}
		// An earlier test's goroutine may still be winding down, so the
		// bound is one-sided.
		co := NewCoordinator(kernels, look, third)
		if g := runtime.NumGoroutine(); g > before {
			t.Fatalf("third=%d: NewCoordinator left %d goroutines, %d before", third, g, before)
		}
		co.Run()
		if g := runtime.NumGoroutine(); g > before {
			t.Fatalf("third=%d: Run left %d goroutines, %d before", third, g, before)
		}
		if !reflect.DeepEqual(log, want) {
			t.Fatalf("third=%d: windows stepped\n%v\nwant ascending shard id inside each window\n%v", third, log, want)
		}
		if s := co.Stats(); s.Windows != windows || s.MaxActive != n || s.SoloRuns != 0 {
			t.Fatalf("third=%d: want %d windows of %d shards and no solo run, got %+v", third, windows, n, s)
		}
	}
}

func TestShardCountCollapse(t *testing.T) {
	// The same ring logic on 2 shards vs 4 shards is a different partition
	// (different topology), but it must still reproduce itself.
	ref, _ := ringRun(t, 2, 1, 4, 25, false)
	got, _ := ringRun(t, 2, 1, 4, 25, false)
	if len(ref) == 0 || !reflect.DeepEqual(got, ref) {
		t.Fatal("2-shard ring diverged on a rerun")
	}
}

func TestSoloModeStopOnSend(t *testing.T) {
	run := func() ([]record, Stats) {
		kA := sim.NewKernel(1)
		kB := sim.NewKernel(2)
		qB := sim.NewQueue[int](kB)
		var logA, logB []record
		co := NewCoordinator([]*sim.Kernel{kA, kB}, look, 1)
		shA := co.Shard(0)
		kA.Go("busy", func(p *sim.Proc) {
			for step := 0; step < 1000; step++ {
				p.Sleep(10)
				logA = append(logA, record{Shard: 0, At: p.Now(), Token: step})
				if step == 500 {
					v := step
					shA.Send(1, look, func() { qB.Put(v) })
				}
			}
		})
		kB.Go("idle-then-listen", func(p *sim.Proc) {
			p.Sleep(200_000) // far beyond shard A's burst
			logB = append(logB, record{Shard: 1, At: p.Now(), Token: -1})
			v := qB.Get(p)
			logB = append(logB, record{Shard: 1, At: p.Now(), Token: v})
		})
		co.Run()
		co.Close()
		return append(logA, logB...), co.Stats()
	}
	ref, stats := run()
	if stats.SoloRuns == 0 {
		t.Fatalf("expected solo runs while shard B idles, got %+v", stats)
	}
	if stats.SoloStops == 0 {
		t.Fatalf("the send at step 500 should cut a solo run short: %+v", stats)
	}
	// The message was sent at t=5010 and must arrive when B wakes at 200000.
	last := ref[len(ref)-1]
	if last.Token != 500 || last.At != 200_000 {
		t.Fatalf("B received %+v, want token 500 at 200000", last)
	}
}

func TestSingleShardMatchesPlainKernel(t *testing.T) {
	build := func(k *sim.Kernel) *sim.Queue[int] {
		q := sim.NewQueue[int](k)
		k.Go("producer", func(p *sim.Proc) {
			for i := 0; i < 100; i++ {
				p.Sleep(sim.Time(i%9) + 1)
				q.Put(i)
			}
		})
		k.Go("consumer", func(p *sim.Proc) {
			for i := 0; i < 100; i++ {
				q.Get(p)
				p.Sleep(3)
			}
		})
		return q
	}
	ref := sim.NewKernel(7)
	build(ref)
	ref.Run()

	k := sim.NewKernel(7)
	build(k)
	co := NewCoordinator([]*sim.Kernel{k}, look, 4)
	defer co.Close()
	co.Run()
	if k.Now() != ref.Now() || k.Dispatched() != ref.Dispatched() {
		t.Fatalf("single-shard composition: now=%v disp=%d, plain kernel: now=%v disp=%d",
			k.Now(), k.Dispatched(), ref.Now(), ref.Dispatched())
	}
	if s := co.Stats(); s.Windows != 0 {
		t.Fatalf("a 1-shard composition should only ever run solo: %+v", s)
	}
}

func TestRunUntilClampsClocks(t *testing.T) {
	kA := sim.NewKernel(1)
	kB := sim.NewKernel(2)
	fired := 0
	kA.After(100, func() { fired++ })
	kA.After(5_000, func() { fired++ })
	kB.After(9_000, func() { fired++ })
	co := NewCoordinator([]*sim.Kernel{kA, kB}, look, 1)
	defer co.Close()
	co.RunUntil(1_000)
	if fired != 1 {
		t.Fatalf("fired %d timers by t=1000, want 1", fired)
	}
	if kA.Now() != 1_000 || kB.Now() != 1_000 {
		t.Fatalf("clocks not clamped: A=%v B=%v, want 1000", kA.Now(), kB.Now())
	}
	co.RunUntil(10_000)
	if fired != 3 {
		t.Fatalf("fired %d timers by t=10000, want 3", fired)
	}
}

func TestSelfSendIsALocalTimer(t *testing.T) {
	k := sim.NewKernel(1)
	co := NewCoordinator([]*sim.Kernel{k, sim.NewKernel(2)}, look, 1)
	defer co.Close()
	hit := sim.Time(0)
	// Below-lookahead delay is legal for a self-send.
	co.Shard(0).Send(0, 5, func() { hit = k.Now() })
	co.Run()
	if hit != 5 {
		t.Fatalf("self-send fired at %v, want 5", hit)
	}
	if s := co.Stats(); s.Messages != 0 {
		t.Fatalf("self-send must not count as a cross-shard message: %+v", s)
	}
}

func TestSendBelowLookaheadPanics(t *testing.T) {
	co := NewCoordinator([]*sim.Kernel{sim.NewKernel(1), sim.NewKernel(2)}, look, 1)
	defer co.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("cross-shard send below the lookahead did not panic")
		}
	}()
	co.Shard(0).Send(1, look-1, func() {})
}

func TestSendToUnknownShardPanics(t *testing.T) {
	co := NewCoordinator([]*sim.Kernel{sim.NewKernel(1)}, look, 1)
	defer co.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("send to out-of-range shard did not panic")
		}
	}()
	co.Shard(0).Send(3, look, func() {})
}

func TestNewCoordinatorValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty kernel set", func() { NewCoordinator(nil, look, 1) })
	mustPanic("zero lookahead", func() {
		NewCoordinator([]*sim.Kernel{sim.NewKernel(1), sim.NewKernel(2)}, 0, 1)
	})
}

// A single kernel has no peers, so it needs no lookahead: Send is a kernel
// timer at any delay and Run is the kernel's own.
func TestSingleKernelNeedsNoLookahead(t *testing.T) {
	k := sim.NewKernel(1)
	co := NewCoordinator([]*sim.Kernel{k}, 0, 0)
	defer co.Close()
	var at []sim.Time
	k.Go("sender", func(p *sim.Proc) {
		p.Sleep(10)
		co.Shard(0).Send(0, 0, func() { at = append(at, k.Now()) })
		co.Shard(0).Send(0, 5, func() { at = append(at, k.Now()) })
	})
	co.Run()
	if len(at) != 2 || at[0] != 10 || at[1] != 15 {
		t.Fatalf("self-sends ran at %v, want [10 15]", at)
	}
	if s := co.Stats(); s.Windows != 0 || s.Messages != 0 || s.SoloRuns != 0 {
		t.Fatalf("single-kernel run used the window protocol: %+v", s)
	}
}

func TestAccessors(t *testing.T) {
	ks := []*sim.Kernel{sim.NewKernel(1), sim.NewKernel(2), sim.NewKernel(3)}
	co := NewCoordinator(ks, look, 16)
	defer co.Close()
	for i := range ks {
		if co.Shard(i).K != ks[i] {
			t.Fatalf("shard %d handle mismatch", i)
		}
	}
	if co.Stats().Lookahead != look {
		t.Fatalf("Stats().Lookahead = %v, want %v", co.Stats().Lookahead, look)
	}
}

func TestQuiescentGapsAreCheap(t *testing.T) {
	// Two shards exchanging one message across a vast idle gap: the window
	// loop must not iterate per-lookahead across the gap.
	kA := sim.NewKernel(1)
	kB := sim.NewKernel(2)
	qB := sim.NewQueue[int](kB)
	co := NewCoordinator([]*sim.Kernel{kA, kB}, look, 1)
	defer co.Close()
	shA := co.Shard(0)
	kA.Go("late-sender", func(p *sim.Proc) {
		p.Sleep(10_000_000) // 10 virtual seconds of nothing
		shA.Send(1, look, func() { qB.Put(1) })
	})
	got := sim.Time(0)
	kB.Go("receiver", func(p *sim.Proc) {
		qB.Get(p)
		got = p.Now()
	})
	co.Run()
	if got != 10_000_000+look {
		t.Fatalf("delivery at %v, want %v", got, sim.Time(10_000_000+look))
	}
	s := co.Stats()
	if total := s.Windows + s.SoloRuns; total > 20 {
		t.Fatalf("crossing a 10s idle gap took %d loop iterations: %+v", total, s)
	}
}

// refInject is inject as it was while a destination's pending list was an
// unordered slice: sort all of it by (at, src, seq) on every call, binary-
// search the horizon, copy the rest down. It is the oracle the ordered
// mailbox is held to.
func refInject(pend []message, horizon sim.Time) (due, rest []message) {
	sort.Slice(pend, func(a, b int) bool {
		if pend[a].at != pend[b].at {
			return pend[a].at < pend[b].at
		}
		if pend[a].src != pend[b].src {
			return pend[a].src < pend[b].src
		}
		return pend[a].seq < pend[b].seq
	})
	cut := sort.Search(len(pend), func(x int) bool { return pend[x].at > horizon })
	due = append(due, pend[:cut]...)
	return due, append(pend[:0], pend[cut:]...)
}

// TestMailboxMatchesSortReference drives one destination's mailbox and the
// reference with the same traffic: four sources whose delivery instants
// wander (a later send often lands earlier, and equal instants across and
// within sources are common), drained in shard order, against horizons that
// sometimes release everything, sometimes part and sometimes nothing. What
// the destination kernel then runs — which message, at which instant, in
// which order — must be the reference's sorted prefix, call after call.
func TestMailboxMatchesSortReference(t *testing.T) {
	type delivery struct {
		at  sim.Time
		src int
		seq uint64
	}
	const srcs, dst, rounds = 4, 4, 500
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		kernels := make([]*sim.Kernel, srcs+1)
		for i := range kernels {
			kernels[i] = sim.NewKernel(1)
		}
		co := NewCoordinator(kernels, look, 1)
		var got []delivery
		var ref []message
		delivered, leftPending := 0, 0
		horizon := sim.Time(0)
		for round := 0; round < rounds; round++ {
			for src := 0; src < srcs; src++ {
				s := co.Shard(src)
				for n := rng.Intn(5); n > 0; n-- {
					s.seqCtr++
					d := delivery{horizon + look + sim.Time(rng.Intn(4))*look/2, src, s.seqCtr}
					m := message{at: d.at, src: src, dst: dst, seq: d.seq, fn: func() {
						got = append(got, delivery{kernels[dst].Now(), d.src, d.seq})
					}}
					s.outbox = append(s.outbox, m)
					ref = append(ref, m)
				}
				co.drain(s)
			}
			horizon += sim.Time(rng.Intn(3)) * look / 2
			var due []message
			due, ref = refInject(ref, horizon)
			got = got[:0]
			co.inject(dst, horizon)
			kernels[dst].RunUntil(horizon)
			if len(got) != len(due) {
				t.Fatalf("seed %d round %d: %d deliveries by %v, reference has %d", seed, round, len(got), horizon, len(due))
			}
			for x, m := range due {
				if want := (delivery{m.at, m.src, m.seq}); got[x] != want {
					t.Fatalf("seed %d round %d: delivery %d is %+v, reference has %+v", seed, round, x, got[x], want)
				}
			}
			delivered += len(due)
			if len(ref) > 0 {
				leftPending++
			}
			if mb := &co.pending[dst]; len(mb.buf)-mb.head != len(ref) {
				t.Fatalf("seed %d round %d: %d messages left pending, reference has %d", seed, round, len(mb.buf)-mb.head, len(ref))
			}
		}
		if s := co.Stats(); s.Messages != uint64(delivered) {
			t.Fatalf("seed %d: Stats().Messages = %d, delivered %d", seed, s.Messages, delivered)
		}
		if delivered < rounds || leftPending < rounds/4 {
			t.Fatalf("seed %d: %d deliveries, %d rounds left a remainder: the script did not exercise both", seed, delivered, leftPending)
		}
		co.Close()
	}
}

// TestSendPutMatchesSendClosure: SendPut is Send of the closure that puts —
// the ring delivers the same tokens at the same instants through the same
// windows, solo runs and solo stops, in the same number of kernel events — a
// self-send is a local timer below the lookahead, and the same two misuses
// panic.
func TestSendPutMatchesSendClosure(t *testing.T) {
	want, wantCo := ringRun(t, 4, 1, 6, 40, false)
	if s := wantCo.Stats(); s.Windows == 0 || s.SoloStops == 0 || s.Messages == 0 {
		t.Fatalf("the ring must run windows, stop a solo run and deliver messages: %+v", s)
	}
	for _, workers := range []int{1, 2} {
		got, co := ringRun(t, 4, workers, 6, 40, true)
		if !reflect.DeepEqual(got, want) || co.Stats() != wantCo.Stats() {
			t.Fatalf("workers=%d: SendPut ring diverged from Send's: %+v vs %+v", workers, co.Stats(), wantCo.Stats())
		}
		for i := range co.shards {
			if g, w := co.Shard(i).K.Dispatched(), wantCo.Shard(i).K.Dispatched(); g != w {
				t.Fatalf("workers=%d: shard %d dispatched %d events with SendPut, %d with Send", workers, i, g, w)
			}
		}
	}

	co := NewCoordinator([]*sim.Kernel{sim.NewKernel(1), sim.NewKernel(2)}, look, 1)
	defer co.Close()
	sh := co.Shard(0)
	q := sim.NewQueue[any](sh.K)
	sh.SendPut(0, 5, q, 7)
	co.Run()
	if v, ok := q.TryGet(); !ok || v != 7 || sh.K.Now() != 5 || co.Stats().Messages != 0 {
		t.Fatalf("self-SendPut delivered %v (%v) at %v with %+v, want 7 at 5 and no mailbox message", v, ok, sh.K.Now(), co.Stats())
	}
	for name, send := range map[string]func(){
		"below the lookahead": func() { sh.SendPut(1, look-1, q, 1) },
		"to an unknown shard": func() { sh.SendPut(2, look, q, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SendPut %s did not panic", name)
				}
			}()
			send()
		}()
	}
}

// TestWindowSteadyStateZeroAlloc: four kernels pass tokens round a ring over
// SendPut fast enough that nearly every iteration is a window of several
// shards. Once mailboxes, outboxes, timer slots and waiter rings have grown,
// a window — inject, run, barrier, drain — allocates nothing.
func TestWindowSteadyStateZeroAlloc(t *testing.T) {
	const n = 4
	kernels := make([]*sim.Kernel, n)
	queues := make([]*sim.Queue[any], n)
	for i := range kernels {
		kernels[i] = sim.NewKernel(int64(i + 1))
		queues[i] = sim.NewQueue[any](kernels[i])
	}
	co := NewCoordinator(kernels, look, 1)
	defer co.Close()
	for i := 0; i < n; i++ {
		i, sh := i, co.Shard(i)
		kernels[i].Go("relay", func(p *sim.Proc) {
			for hop := 0; ; hop++ {
				tok := queues[i].Get(p)
				p.Sleep(sim.Time(hop%7) + 1)
				// Mostly the next shard, sometimes the one after, with
				// delays that reorder arrivals at the destination.
				dst := (i + 1 + hop%2) % n
				sh.SendPut(dst, look+sim.Time(hop%3)*20, queues[dst], tok)
			}
		})
		for tok := 0; tok < 6; tok++ {
			kernels[i].AfterPut(sim.Time(tok*5), queues[i], any(new(int)))
		}
	}
	limit := 200 * look
	co.RunUntil(limit) // warm up
	before := co.Stats()
	const runs, span = 20, 100 * look
	allocs := testing.AllocsPerRun(runs, func() {
		limit += span
		co.RunUntil(limit)
	})
	after := co.Stats()
	windows := after.Windows - before.Windows
	if windows < (runs+1)*50 || after.Messages-before.Messages < windows {
		t.Fatalf("measured stretch ran %d windows and %d messages: not steady cross traffic (%+v)", windows, after.Messages-before.Messages, after)
	}
	if allocs != 0 {
		t.Fatalf("%v allocations per %d windows in steady state, want 0", allocs, windows/(runs+1))
	}
}
