package devsched

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/gpu"
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/trace"
)

const (
	// epoch is the dispatcher's re-evaluation period (the scheduling
	// epoch). The LAS time quantum and TFS slices are multiples of it.
	epoch = 5 * sim.Millisecond

	// tfsBaseSlice is the per-weight-unit residency slice of TFS.
	tfsBaseSlice = 20 * sim.Millisecond
)

// Config tunes the scheduler.
type Config struct {
	// LASDecay is k in CGS_n = k·GS_n + (1-k)·CGS_{n-1}; the paper uses
	// 0.8.
	LASDecay float64

	// AccountingLag is the staleness of the Request Monitor's view of
	// attained service. Strings reads per-stream accounting continuously
	// (lag 0); Rain's per-process backends only observe usage at request
	// boundaries, which the paper identifies as the source of its
	// scheduling error. The scheduler refreshes an entry's accounting only
	// when at least this much time has passed since its last refresh.
	AccountingLag sim.Time

	// picked is where LAS and PS, stateless value types, build their pick: it
	// must outlive the call, and every caller of Pick owns a Config.
	picked [pickSlots]*Entry
}

// DefaultConfig returns the configuration used in the experiments.
func DefaultConfig() Config {
	return Config{LASDecay: 0.8}
}

// Scheduler is the per-device GPU scheduler.
type Scheduler struct {
	k      *sim.Kernel
	dev    *gpu.Device
	gid    int
	cfg    Config
	policy Policy
	tfs    TFS // the policy when it is TFS, whose state is per device

	entries []*Entry // maintained in ascending AppID order
	gen     uint64   // dispatcher pick generation (see dispatch)
	nextSig int
	disp    sim.Daemon // the Dispatcher, once ensureDispatcher has started it
	closed  bool
	rec     *trace.Recorder
	nameFn  func() string // the Dispatcher's name and step, bound once
	stepFn  func(*sim.Daemon)
}

// SetRecorder installs the observability recorder: registrations,
// unregistrations and dispatcher wake/sleep transitions then emit events,
// and waits for a Turn emit spans. A nil recorder disables all of it.
func (s *Scheduler) SetRecorder(rec *trace.Recorder) { s.rec = rec }

// Names are the device policies' figure labels, "none" the pass-through
// AllAwake's: the names a Scheduler runs.
var Names = []string{"none", "TFS", "LAS", "PS"}

// CheckName returns an error unless name is one of Names.
func CheckName(name string) error {
	if !slices.Contains(Names, name) {
		return fmt.Errorf("devsched: unknown device policy %q", name)
	}
	return nil
}

// New creates a scheduler for dev (identified cluster-wide by gid) running
// the device policy named policy, one of Names; the pass-through "none" (or
// "") disables dispatch gating.
func New(k *sim.Kernel, dev *gpu.Device, gid int, policy string, cfg Config) *Scheduler {
	return new(Scheduler).Init(k, dev, gid, policy, cfg)
}

// Init makes *s, new or reused once its kernel has been reset or closed, the
// scheduler New returns; its RCB list keeps its array, and its TFS its map
// and scratch. It returns s.
func (s *Scheduler) Init(k *sim.Kernel, dev *gpu.Device, gid int, policy string, cfg Config) *Scheduler {
	if cfg.LASDecay <= 0 || cfg.LASDecay > 1 {
		cfg.LASDecay = DefaultConfig().LASDecay
	}
	*s = Scheduler{
		k: k, dev: dev, gid: gid, cfg: cfg, tfs: s.tfs,
		entries: s.entries[:0], nameFn: s.nameFn, stepFn: s.stepFn,
	}
	switch policy {
	case "", "none":
		s.policy = AllAwake{}
	case "TFS":
		s.tfs.reset()
		s.policy = &s.tfs
	case "LAS":
		s.policy = LAS{}
	case "PS":
		s.policy = PS{}
	default:
		panic(CheckName(policy))
	}
	return s
}

// Register performs the Request Manager's registration into e, an entry the
// caller owns: it fills the RCB row, assigns the thread its signal id (the
// 3-way handshake's step 2) and lists the row; the backend thread then honours
// e.Wake. The backlog callback lets the dispatcher see whether the thread has
// pending requests.
func (s *Scheduler) Register(e *Entry, appID int, tenant int64, weight int, kind string, backlog func() int) {
	if weight <= 0 {
		weight = 1
	}
	s.nextSig++
	*e = Entry{
		AppID:      appID,
		TenantID:   tenant,
		Weight:     weight,
		Kind:       kind,
		Registered: s.k.Now(),
		Backlog:    backlog,
		SignalID:   s.nextSig,
		Phase:      PhaseIdle,
		acct:       s.dev.Acct(appID),
	}
	// With the pass-through policy threads are born awake; real policies
	// gate them through the dispatcher.
	if _, ok := s.policy.(AllAwake); ok {
		e.Awake = true
	}
	// Insert in AppID order: the dispatcher hands s.entries to the policy
	// directly, and the Policy contract promises app-id order.
	i := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].AppID >= appID })
	s.entries = append(s.entries, nil)
	copy(s.entries[i+1:], s.entries[i:])
	s.entries[i] = e
	s.rec.Event(trace.KRegister, s.k.Now(), kind, appID, s.gid, int64(e.SignalID))
	s.ensureDispatcher()
	s.Kick()
}

// Unregister removes the application holding RCB entry e and writes the
// Feedback Engine's report, which the backend piggybacks on the
// cudaThreadExit reply, into fb unless fb is nil. It reports false, and
// writes nothing, for an entry already removed.
func (s *Scheduler) Unregister(e *Entry, fb *rpcproto.Feedback) bool {
	if e.exited {
		return false
	}
	s.refreshEntry(e)
	if fb != nil {
		e.feedback(s.k.Now(), s.gid, fb)
	}
	e.exited = true
	for i, x := range s.entries {
		if x == e {
			s.entries = append(s.entries[:i], s.entries[i+1:]...)
			break
		}
	}
	s.rec.Event(trace.KUnregister, s.k.Now(), e.Kind, e.AppID, s.gid, int64(e.Attained))
	s.Kick()
	return true
}

// SetPhaseEntry records the current GPU phase of the thread holding RCB entry
// e (backend threads get it from Register). Nothing is kicked: PS sees it at
// its next turn (the epoch boundary, or an earlier Turn's kick).
func (s *Scheduler) SetPhaseEntry(e *Entry, ph Phase) {
	e.Phase = ph
}

// Turn reports whether the thread holding e may run now; if not, the thread
// waits on e.Wake and asks again. A sleeping thread arriving with fresh work
// nudges the dispatcher so an idle device never sits on a parked request until
// the next epoch.
func (s *Scheduler) Turn(e *Entry) bool {
	if e.Awake {
		if e.waiting {
			e.waiting = false
			s.rec.End(e.waitSpan, s.k.Now())
		}
		return true
	}
	if !e.waiting {
		e.waiting = true
		e.waitSpan = s.rec.Begin(trace.KWait, 0, s.k.Now(), "wait-turn", e.AppID, s.gid, int64(e.SignalID))
		s.Kick()
	}
	return false
}

// Kick forces a dispatcher re-evaluation at the current instant. It does
// nothing while no dispatcher is waiting, in particular before one exists.
func (s *Scheduler) Kick() { s.disp.Kick() }

// Close stops the dispatcher once it next wakes.
func (s *Scheduler) Close() {
	s.closed = true
	s.Kick()
}

// ensureDispatcher starts the dispatcher daemon on first registration.
// AllAwake needs no dispatcher.
func (s *Scheduler) ensureDispatcher() {
	if s.disp.Kernel() != nil { // started
		return
	}
	if _, ok := s.policy.(AllAwake); ok {
		return
	}
	if s.stepFn == nil {
		s.nameFn, s.stepFn = s.name, s.dispatch
	}
	s.k.StartDaemon(&s.disp, s.nameFn, s.stepFn)
}

func (s *Scheduler) name() string { return fmt.Sprintf("devsched-%d", s.gid) }

// dispatch is one turn of the Dispatcher: every epoch (or kick) it refreshes
// the Request Monitor's accounting and applies the policy's wake set.
func (s *Scheduler) dispatch(d *sim.Daemon) {
	if s.closed {
		d.Exit()
		return
	}
	if len(s.entries) == 0 {
		d.WaitKick()
		return
	}
	s.refresh()
	// The policy sees the live slice (already app-id ordered; policies
	// never reorder it). Picks are marked with a generation counter on
	// the entry, replacing a per-epoch set allocation.
	s.gen++
	now := d.Now()
	awake := s.policy.Pick(now, s.entries, &s.cfg)
	for _, e := range awake {
		e.pickGen = s.gen
	}
	for _, e := range s.entries {
		want := e.pickGen == s.gen
		if want && !e.Awake {
			e.Awake = true
			e.Wake.Notify()
			s.rec.Event(trace.KWake, now, "", e.AppID, s.gid, 0)
		} else if !want && e.Awake {
			e.Awake = false
			s.rec.Event(trace.KSleep, now, "", e.AppID, s.gid, 0)
		}
	}
	if len(awake) == 0 {
		// No entry has work (the Policy contract): sleep until a thread
		// shows up with work (Turn kicks) or membership changes.
		d.WaitKick()
		return
	}
	d.WaitKickTimeout(epoch)
}

// refresh updates every entry's Request Monitor state from the device.
func (s *Scheduler) refresh() {
	for _, e := range s.entries {
		s.refreshEntry(e)
	}
}

// refreshEntry pulls the device-side accounting for one entry and advances
// the decayed-service estimate (eq. 1) across the epoch boundary. The
// scheduler's view includes any context-switch overhead the driver charged
// to the application: a per-process-context runtime (Rain) cannot tell the
// two apart, which is the accounting error the paper attributes Rain's
// fairness loss to. Under Strings' packed context the charge is always
// zero, so the view is exact.
func (s *Scheduler) refreshEntry(e *Entry) {
	now := s.k.Now()
	if s.cfg.AccountingLag > 0 && e.lastRefresh != 0 && now-e.lastRefresh < s.cfg.AccountingLag {
		return
	}
	e.lastRefresh = now
	u := e.acct.Usage()
	cur := u.Service + u.SwitchCharge
	gs := cur - e.epochSample
	if gs < 0 {
		gs = 0
	}
	e.epochSample = cur
	e.Attained = cur
	e.XferTime = u.TransferTime
	e.MemTraffic = u.MemTraffic
	k := s.cfg.LASDecay
	// Each product is rounded on its own (the explicit conversions), so no
	// architecture fuses the sum into one multiply-add and the decay reads
	// the same bits everywhere.
	e.CGS = float64(k*float64(gs)) + float64((1-k)*e.CGS)
}
