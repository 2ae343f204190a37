package balancer

import (
	"reflect"
	"testing"

	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// pool4 builds a heterogeneous 2-node, 4-GPU DST resembling the supernode:
// node 0 = {Quadro2000 w1.0, TeslaC2050 w2.2}, node 1 = {Quadro4000 w1.3,
// TeslaC2070 w2.3}.
func pool4() *DST {
	return NewDST([]*DSTEntry{
		{GID: 0, Node: 0, LocalDev: 0, Name: "Quadro2000", Weight: 1.0, MemBandwidth: 5200},
		{GID: 1, Node: 0, LocalDev: 1, Name: "TeslaC2050", Weight: 2.2, MemBandwidth: 18000},
		{GID: 2, Node: 1, LocalDev: 0, Name: "Quadro4000", Weight: 1.3, MemBandwidth: 11200},
		{GID: 3, Node: 1, LocalDev: 1, Name: "TeslaC2070", Weight: 2.3, MemBandwidth: 18000},
	})
}

func fb(kind string, exec, gput, xfer sim.Time, bw, util float64) *rpcproto.Feedback {
	return &rpcproto.Feedback{Kind: kind, ExecTime: exec, GPUTime: gput,
		XferTime: xfer, MemBW: bw, GPUUtil: util}
}

func TestGRRRoundRobin(t *testing.T) {
	dst := pool4()
	g := NewGRR()
	want := []GID{0, 1, 2, 3, 0, 1}
	for i, w := range want {
		if got := g.Select(Request{}, dst, NewSFT()); got != w {
			t.Fatalf("GRR pick %d = %v, want %v", i, got, w)
		}
	}
}

func TestGMinPicksLeastLoadedPreferringLocal(t *testing.T) {
	dst := pool4()
	dst.Bind(0, "DC")
	dst.Bind(1, "DC")
	// GIDs 2,3 tie at load 0; requester on node 1 → local GID 2 wins.
	if got := (GMin{}).Select(Request{Node: 1}, dst, NewSFT()); got != 2 {
		t.Fatalf("GMin = %v, want 2 (local tie-break)", got)
	}
	// Requester on node 0 with all equal load: first local (GID 0).
	dst2 := pool4()
	if got := (GMin{}).Select(Request{Node: 0}, dst2, NewSFT()); got != 0 {
		t.Fatalf("GMin on empty pool = %v, want 0", got)
	}
}

func TestGWtMinUsesWeights(t *testing.T) {
	dst := pool4()
	// One app everywhere: weighted loads 1/1.0, 1/2.2, 1/1.3, 1/2.3 →
	// GID 3 (2.3) has the minimum.
	for gid := GID(0); gid < 4; gid++ {
		dst.Bind(gid, "DC")
	}
	if got := (GWtMin{}).Select(Request{Node: 0}, dst, NewSFT()); got != 3 {
		t.Fatalf("GWtMin = %v, want 3", got)
	}
}

func TestDSTBindUnbind(t *testing.T) {
	dst := pool4()
	dst.Bind(1, "MC")
	dst.Bind(1, "MC")
	dst.Bind(1, "DC")
	e := dst.Entry(1)
	if e.Load != 3 || !reflect.DeepEqual(e.BoundKinds, []KindCount{{"DC", 1}, {"MC", 2}}) {
		t.Fatalf("entry = %+v", e)
	}
	dst.Unbind(1, "MC")
	dst.Unbind(1, "DC")
	if e.Load != 1 || !reflect.DeepEqual(e.BoundKinds, []KindCount{{"MC", 1}}) {
		t.Fatalf("after unbind: %+v", e)
	}
	dst.Unbind(1, "ZZ") // unknown kind must not underflow
	if e.Load != 0 {
		t.Fatalf("load = %d", e.Load)
	}
	dst.Unbind(1, "ZZ")
	if e.Load != 0 {
		t.Fatal("load went negative")
	}
	if dst.Entry(99) != nil {
		t.Fatal("out-of-range Entry should be nil")
	}
}

func TestSFTRunningMeans(t *testing.T) {
	sft := NewSFT()
	sft.Record(fb("MC", 100, 50, 10, 1000, 0.5))
	sft.Record(fb("MC", 200, 150, 30, 3000, 0.7))
	e, ok := sft.Lookup("MC")
	if !ok || e.Samples != 2 {
		t.Fatalf("lookup = %+v, %v", e, ok)
	}
	if e.ExecTime != 150 || e.GPUTime != 100 || e.XferTime != 20 {
		t.Fatalf("means = %+v", e)
	}
	if e.MemBW != 2000 || e.GPUUtil != 0.6 {
		t.Fatalf("means = %+v", e)
	}
	if sft.Samples("XX") != 0 {
		t.Fatal("phantom samples")
	}
	sft.Record(nil)                  // must not panic
	sft.Record(&rpcproto.Feedback{}) // empty kind ignored
	if len(sft.byKind) != 1 {
		t.Fatalf("kinds = %v", sft.byKind)
	}
}

func TestRTFBalancesOnMeasuredRuntime(t *testing.T) {
	dst := pool4()
	sft := NewSFT()
	sft.Record(fb("DC", 30e6, 27e6, 0, 63, 0.9))
	sft.Record(fb("GA", 2e6, 0.02e6, 0, 18, 0.01))
	// GID 0 holds one DC (30s of work at weight 1); GID 1 holds one GA
	// (2s at weight 2.2). RTF sends the next DC to a GPU with less time
	// load — not GID 0.
	dst.Bind(0, "DC")
	dst.Bind(1, "GA")
	got := (rtf{}).Select(Request{Kind: "DC", Node: 0}, dst, sft)
	if got == 0 {
		t.Fatalf("RTF = %v; stacked onto the 30s backlog", got)
	}
}

// The Policy Arbiter is RTF's only no-history path: ByName's RTF answers a
// class without history with GWtMin's pick.
func TestRTFFallsBackWithoutHistory(t *testing.T) {
	dst := pool4()
	sft := NewSFT()
	pol, err := ByName("RTF")
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Kind: "DC", Node: 0}
	want := (GWtMin{}).Select(req, dst, sft)
	if got := pol.Select(req, dst, sft); got != want {
		t.Fatalf("RTF without history = %v, want GWtMin's %v", got, want)
	}
}

func TestGUFSeparatesHighUtilApps(t *testing.T) {
	dst := pool4()
	sft := NewSFT()
	sft.Record(fb("DC", 30e6, 27e6, 0, 63, 0.9))   // high util
	sft.Record(fb("GA", 2e6, 0.02e6, 0, 18, 0.01)) // low util
	dst.Bind(1, "DC")                              // busy app on the big GPU
	// Another DC must avoid GID 1 despite its attractive weight.
	if got := (guf{}).Select(Request{Kind: "DC", Node: 0}, dst, sft); got == 1 {
		t.Fatal("GUF collocated two high-utilization apps")
	}
	// A GA (near-zero util) can happily share GID 1's class of device.
	got := (guf{}).Select(Request{Kind: "GA", Node: 0}, dst, sft)
	if dst.Entry(got) == nil {
		t.Fatal("invalid pick")
	}
}

func TestDTFPairsContrastingTransferProfiles(t *testing.T) {
	dst := pool4()
	sft := NewSFT()
	sft.Record(fb("MC", 8e6, 6.8e6, 5.8e6, 3000, 0.85)) // transfer-heavy
	sft.Record(fb("DC", 30e6, 27e6, 0.001e6, 63, 0.9))  // compute-heavy
	dst.Bind(1, "MC")
	dst.Bind(3, "DC")
	// A new MC should prefer the device holding the contrasting DC (GID 3)
	// over the one holding another MC (GID 1), all else similar.
	got := (dtf{}).Select(Request{Kind: "MC", Node: 1}, dst, sft)
	if got == 1 {
		t.Fatal("DTF stacked two transfer-bound apps")
	}
}

func TestMBFAvoidsBandwidthCollocation(t *testing.T) {
	dst := pool4()
	sft := NewSFT()
	sft.Record(fb("HI", 25e6, 21.6e6, 0.04e6, 13000, 0.86)) // bandwidth hog
	sft.Record(fb("DC", 30e6, 27e6, 0.001e6, 63, 0.9))      // light on bandwidth
	dst.Bind(1, "HI")
	dst.Bind(3, "DC")
	// Another HI must not land on GID 1 next to the first HI.
	if got := (mbf{}).Select(Request{Kind: "HI", Node: 0}, dst, sft); got == 1 {
		t.Fatal("MBF collocated two bandwidth-bound apps")
	}
	// A DC is indifferent to bandwidth pressure; it must still balance.
	got := (mbf{}).Select(Request{Kind: "DC", Node: 0}, dst, sft)
	if dst.Entry(got) == nil {
		t.Fatal("invalid pick")
	}
}

// stubbornPolicy always answers the same GID.
type stubbornPolicy struct{ gid GID }

func (s stubbornPolicy) Name() string                   { return "stubborn" }
func (s stubbornPolicy) Select(Request, *DST, *SFT) GID { return s.gid }

func TestArbiterSwitchesAfterFeedback(t *testing.T) {
	dst := pool4()
	sft := NewSFT()
	a := &Arbiter{stubbornPolicy{gid: 1}, stubbornPolicy{gid: 2}}
	req := Request{Kind: "MC", Node: 0}
	if a.Select(req, dst, sft) != 1 {
		t.Fatal("switched with no feedback")
	}
	sft.Record(fb("DC", 8e6, 6.8e6, 5.8e6, 3000, 0.85))
	if a.Select(req, dst, sft) != 1 {
		t.Fatal("switched on another class's feedback")
	}
	sft.Record(fb("MC", 8e6, 6.8e6, 5.8e6, 3000, 0.85))
	if a.Select(req, dst, sft) != 2 {
		t.Fatal("did not switch on the class's first report")
	}
	if n := (&Arbiter{GWtMin{}, rtf{}}).Name(); n != "PA(GWtMin→RTF)" {
		t.Fatalf("Name = %q", n)
	}
}

func TestByNameRegistry(t *testing.T) {
	for _, n := range Names() {
		p, err := ByName(n)
		if err != nil || p == nil {
			t.Fatalf("ByName(%q) = %v, %v", n, p, err)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestMapperLifecycle(t *testing.T) {
	m := NewMapper(pool4(), NewGRR())
	req := Request{AppID: 1, Kind: "MC", Node: 0}
	gid := m.Select(req)
	if m.DST().Entry(gid).Load != 1 {
		t.Fatal("Select did not bind")
	}
	m.Feedback(fb("MC", 8e6, 6.8e6, 5.8e6, 3000, 0.85))
	if m.SFT().Samples("MC") != 1 {
		t.Fatal("feedback not recorded")
	}
	m.Release(gid, "MC")
	if m.DST().Entry(gid).Load != 0 {
		t.Fatal("Release did not unbind")
	}
	sel, fbs := m.Stats()
	if sel != 1 || fbs != 1 {
		t.Fatalf("stats = %d, %d", sel, fbs)
	}
	m.Feedback(nil)
	if _, fbs := m.Stats(); fbs != 1 {
		t.Fatal("nil feedback counted")
	}
}

func TestMapperDistributesLoadRoundRobin(t *testing.T) {
	m := NewMapper(pool4(), NewGRR())
	for i := 0; i < 8; i++ {
		m.Select(Request{AppID: i, Kind: "MC", Node: 0})
	}
	for _, e := range m.DST().Entries() {
		if e.Load != 2 {
			t.Fatalf("GID %d load = %d, want 2", e.GID, e.Load)
		}
	}
}

func TestSFTDriftResetsHistory(t *testing.T) {
	sft := NewSFT()
	// Stable regime.
	for i := 0; i < 4; i++ {
		sft.Record(fb("MC", 8e6, 6.8e6, 5.8e6, 3000, 0.85))
	}
	if sft.DriftResets != 0 {
		t.Fatalf("premature drift reset")
	}
	// The class's behaviour shifts by 4x (e.g., a new input size).
	sft.Record(fb("MC", 32e6, 27e6, 23e6, 3000, 0.85))
	if sft.DriftResets != 1 {
		t.Fatalf("drift not detected: resets=%d", sft.DriftResets)
	}
	e, ok := sft.Lookup("MC")
	if !ok || e.Samples != 1 {
		t.Fatalf("history not relearned: %+v", e)
	}
	if e.ExecTime != 32e6 {
		t.Fatalf("relearned mean %v, want 32s", e.ExecTime)
	}
	// Small fluctuations never reset.
	sft.Record(fb("MC", 30e6, 26e6, 22e6, 3000, 0.85))
	sft.Record(fb("MC", 36e6, 28e6, 24e6, 3000, 0.85))
	sft.Record(fb("MC", 33e6, 27e6, 23e6, 3000, 0.85))
	if sft.DriftResets != 1 {
		t.Fatalf("spurious drift reset: %d", sft.DriftResets)
	}
}
