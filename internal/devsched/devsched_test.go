package devsched

import (
	"fmt"
	"testing"

	"repro/internal/gpu"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

func testDev(k *sim.Kernel) *gpu.Device {
	spec := gpu.Spec{
		Name: "t", ComputeRate: 1000, MemBandwidth: 100,
		H2DBandwidth: 10, D2HBandwidth: 10, CopyEngines: 2,
		ContextSwitch: 0, TimeSlice: sim.Millisecond, MemBytes: 1 << 20, Weight: 1,
	}
	return gpu.NewDevice(k, spec, 0)
}

func constBacklog(n int) func() int { return func() int { return n } }

// WaitTurn parks p until the dispatcher has the thread holding e awake: the
// blocking form of Turn.
func (s *Scheduler) WaitTurn(p *sim.Proc, e *Entry) {
	for !s.Turn(e) {
		p.WaitSignal(&e.Wake)
	}
}

// register is Register into a new entry.
func (s *Scheduler) register(appID int, tenant int64, weight int, kind string, backlog func() int) *Entry {
	e := new(Entry)
	s.Register(e, appID, tenant, weight, kind, backlog)
	return e
}

func TestRegisterAssignsSignalIDs(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k, testDev(k), 0, "none", Config{})
	e1 := s.register(1, 10, 1, "DC", constBacklog(0))
	e2 := s.register(2, 11, 1, "MC", constBacklog(0))
	if e1.SignalID == e2.SignalID {
		t.Fatal("signal ids collide")
	}
	if !e1.Awake || !e2.Awake {
		t.Fatal("AllAwake entries should be born awake")
	}
	if got := len(s.entries); got != 2 || s.entries[0] != e1 || s.entries[1] != e2 {
		t.Fatalf("Entries = %v, want the two in app-id order", s.entries)
	}
}

func TestUnregisterProducesFeedback(t *testing.T) {
	k := sim.NewKernel(1)
	dev := testDev(k)
	s := New(k, dev, 3, "none", Config{})
	var e *Entry
	k.Go("app", func(p *sim.Proc) {
		e = s.register(1, 10, 1, "DC", constBacklog(0))
		st := dev.NewContext().NewStream()
		op := &gpu.Op{Kind: gpu.OpKernel, Compute: 50000, AppID: 1}
		p.Wait(st.Submit(op))
		p.Sleep(50) // total wall 100us, GPU 50us
		fb := new(rpcproto.Feedback)
		if !s.Unregister(e, fb) {
			t.Error("no feedback returned")
			return
		}
		if fb.Kind != "DC" || fb.GID != 3 {
			t.Errorf("feedback identity: %+v", fb)
		}
		if fb.GPUTime != 50 {
			t.Errorf("GPUTime = %v, want 50us", fb.GPUTime)
		}
		if fb.GPUUtil < 0.45 || fb.GPUUtil > 0.55 {
			t.Errorf("GPUUtil = %v, want ~0.5", fb.GPUUtil)
		}
	})
	k.Run()
	if len(s.entries) != 0 || s.Unregister(e, nil) {
		t.Fatal("entry not removed")
	}
}

func TestLASNooneHasWork(t *testing.T) {
	cfg := DefaultConfig()
	if got := (LAS{}).Pick(0, []*Entry{{AppID: 1, Backlog: constBacklog(0)}}, &cfg); got != nil {
		t.Fatalf("LAS picked %v with no work", got)
	}
}

func TestTFSWeightsScaleSlices(t *testing.T) {
	cfg := DefaultConfig()
	tfs := NewTFS()
	e1 := &Entry{AppID: 1, TenantID: 100, Weight: 3, Backlog: constBacklog(1)}
	e2 := &Entry{AppID: 2, TenantID: 200, Weight: 1, Backlog: constBacklog(1)}
	got := tfs.Pick(0, []*Entry{e1, e2}, &cfg)
	if got[0].TenantID != 100 && got[0].TenantID != 200 {
		t.Fatal("no pick")
	}
	// Whoever won, its slice should be weight-scaled.
	want := tfsBaseSlice * sim.Time(got[0].Weight)
	if tfs.turnLen != want {
		t.Fatalf("slice = %v, want %v", tfs.turnLen, want)
	}
}

func TestTFSWorkConserving(t *testing.T) {
	cfg := DefaultConfig()
	tfs := NewTFS()
	e1 := &Entry{AppID: 1, TenantID: 100, Weight: 1, Backlog: constBacklog(0)}
	e2 := &Entry{AppID: 2, TenantID: 200, Weight: 1, Backlog: constBacklog(1)}
	got := tfs.Pick(0, []*Entry{e1, e2}, &cfg)
	if len(got) != 1 || got[0].TenantID != 200 {
		t.Fatalf("TFS picked %v; idle tenant should be skipped", got)
	}
	// All idle → nothing awake.
	e2.Backlog = constBacklog(0)
	if got := tfs.Pick(sim.Second, []*Entry{e1, e2}, &cfg); got != nil {
		t.Fatalf("picked %v with no work anywhere", got)
	}
}

func TestTFSPenalizesOvershoot(t *testing.T) {
	cfg := DefaultConfig()
	tfs := NewTFS()
	e1 := &Entry{AppID: 1, TenantID: 100, Weight: 1, Backlog: constBacklog(1)}
	e2 := &Entry{AppID: 2, TenantID: 200, Weight: 1, Backlog: constBacklog(1)}
	entries := []*Entry{e1, e2}
	first := tfs.Pick(0, entries, &cfg)
	winner := first[0]
	// The winner massively overshoots its slice (async work landing late).
	winner.Attained = 10 * tfsBaseSlice
	tfs.Pick(tfsBaseSlice+1, entries, &cfg)
	if tfs.penalty[winner.TenantID] <= 0 {
		t.Fatal("no overshoot penalty recorded")
	}
}

func TestPSIdleTreatedAsDefault(t *testing.T) {
	cfg := DefaultConfig()
	entries := []*Entry{
		{AppID: 1, Phase: PhaseIdle, Backlog: constBacklog(1)},
	}
	got := PS{}.Pick(0, entries, &cfg)
	if len(got) != 1 {
		t.Fatalf("PS ignored an idle-phase entry with work")
	}
}

func TestWaitTurnReleasesImmediatelyWhenAwake(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k, testDev(k), 0, "none", Config{})
	e := s.register(1, 1, 1, "X", constBacklog(1))
	var waited sim.Time
	k.Go("bt", func(p *sim.Proc) {
		t0 := p.Now()
		s.WaitTurn(p, e)
		waited = p.Now() - t0
	})
	k.Run()
	if waited != 0 {
		t.Fatalf("WaitTurn blocked %v for an awake entry", waited)
	}
}

func TestPhaseStrings(t *testing.T) {
	for ph, want := range map[Phase]string{
		PhaseIdle: "IDLE", PhaseDFL: "DFL", PhaseH2D: "H2D",
		PhaseD2H: "D2H", PhaseKL: "KL",
	} {
		if ph.String() != want {
			t.Fatalf("%d.String() = %q, want %q", ph, ph.String(), want)
		}
	}
	if Phase(9).String() != "Phase(9)" {
		t.Fatal("unknown phase formatting")
	}
}

func TestWeightDefaultsToOne(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k, testDev(k), 0, "none", Config{})
	e := s.register(1, 1, 0, "X", constBacklog(0))
	if e.Weight != 1 {
		t.Fatalf("weight = %d, want 1", e.Weight)
	}
}

func TestConfigDefaults(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k, testDev(k), 0, "", Config{})
	if _, ok := s.policy.(AllAwake); !ok {
		t.Fatal("the empty policy name should be AllAwake")
	}
	if s.cfg.LASDecay != 0.8 {
		t.Fatalf("defaults not applied: %+v", s.cfg)
	}
}

func TestPSDispatcherKeepsAtMostThreeAwake(t *testing.T) {
	// Six backend threads with rotating phases under a live PS dispatcher:
	// the awake set must never exceed the engine-slot count.
	k := sim.NewKernel(1)
	dev := testDev(k)
	s := New(k, dev, 0, "PS", Config{})
	ctx := dev.NewContext()
	maxAwake := 0
	countAwake := func() {
		n := 0
		for _, e := range s.entries {
			if e.Awake {
				n++
			}
		}
		if n > maxAwake {
			maxAwake = n
		}
	}
	for i := 0; i < 6; i++ {
		i := i
		st := ctx.NewStream()
		pending := 6
		e := s.register(i+1, int64(i), 1, "X", func() int { return pending })
		k.Go(fmt.Sprintf("bt%d", i), func(p *sim.Proc) {
			for j := 0; j < 6; j++ {
				var op *gpu.Op
				switch (i + j) % 3 {
				case 0:
					s.SetPhaseEntry(e, PhaseKL)
					op = &gpu.Op{Kind: gpu.OpKernel, Compute: 5000, AppID: i + 1}
				case 1:
					s.SetPhaseEntry(e, PhaseH2D)
					op = &gpu.Op{Kind: gpu.OpH2D, Bytes: 100, AppID: i + 1}
				default:
					s.SetPhaseEntry(e, PhaseD2H)
					op = &gpu.Op{Kind: gpu.OpD2H, Bytes: 100, AppID: i + 1}
				}
				s.WaitTurn(p, e)
				countAwake()
				p.Wait(st.Submit(op))
				pending--
			}
		})
	}
	k.Run()
	if maxAwake > 3 {
		t.Fatalf("PS kept %d threads awake, cap is 3", maxAwake)
	}
	if maxAwake == 0 {
		t.Fatal("nothing ever ran")
	}
}

// Kick and Close before any dispatcher exists — no registration yet, or the
// pass-through policy, which never starts one — do nothing: no process, no
// activation.
func TestKickBeforeDispatcherStartsIsNoop(t *testing.T) {
	for name, policy := range map[string]string{"unregistered": "LAS", "all-awake": "none"} {
		k := sim.NewKernel(1)
		dev := testDev(k)
		k.Run() // park the device driver
		s := New(k, dev, 0, policy, Config{})
		if name == "all-awake" {
			s.register(1, 1, 1, "X", constBacklog(1))
		}
		procs := k.ProcCount()
		s.Kick()
		s.Close()
		if _, pending := k.NextEventTime(); pending || k.ProcCount() != procs {
			t.Errorf("%s: Kick scheduled work: pending=%v procs %d -> %d", name, pending, procs, k.ProcCount())
		}
	}
}

// The dispatcher is a daemon: idle, it is reported blocked under its process
// name like the coroutine it replaced, and Close removes it.
func TestIdleDispatcherIsBlockedUntilClosed(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k, testDev(k), 7, "LAS", Config{})
	s.register(1, 1, 1, "X", constBacklog(0))
	k.Run()
	if got := fmt.Sprint(k.Blocked()); got != "[devsched-7 gpu0-driver]" {
		t.Fatalf("Blocked = %s, want [devsched-7 gpu0-driver]", got)
	}
	s.Close()
	k.Run()
	if got := fmt.Sprint(k.Blocked()); got != "[gpu0-driver]" {
		t.Fatalf("Blocked after Close = %s, want [gpu0-driver]", got)
	}
}
