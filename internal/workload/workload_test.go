package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/sim"
)

func TestPairsLabelsAndOrder(t *testing.T) {
	ps := Pairs()
	if len(ps) != 24 {
		t.Fatalf("pairs = %d, want 24", len(ps))
	}
	if ps[0].Label != "A" || ps[0].Long != DXTC || ps[0].Short != BlackScholes {
		t.Fatalf("pair A = %v, want DC-BS", ps[0])
	}
	if ps[1].Long != DXTC || ps[1].Short != MonteCarlo {
		t.Fatalf("pair B = %v, want DC-MC", ps[1])
	}
	last := ps[23]
	if last.Label != "X" || last.Long != Eigenvalues || last.Short != SortingNetworks {
		t.Fatalf("pair X = %v, want EV-SN", last)
	}
	if ps[0].String() != "A(DC-BS)" {
		t.Fatalf("String = %q", ps[0].String())
	}
}

func TestSpecsGroupsAndRuntimeClasses(t *testing.T) {
	for _, k := range GroupAKinds {
		s := Specs[k]
		if s.Group != GroupA {
			t.Errorf("%v group = %v, want A", k, s.Group)
		}
		if s.SoloRuntime < 10*sim.Second || s.SoloRuntime > 55*sim.Second {
			t.Errorf("%v solo runtime %v outside the paper's 10-55s band", k, s.SoloRuntime)
		}
	}
	for _, k := range GroupBKinds {
		s := Specs[k]
		if s.Group != GroupB {
			t.Errorf("%v group = %v, want B", k, s.Group)
		}
		if s.SoloRuntime >= 10*sim.Second {
			t.Errorf("%v solo runtime %v should be < 10s", k, s.SoloRuntime)
		}
	}
	if DXTC.String() != "DC" || MonteCarlo.String() != "MC" {
		t.Fatal("short codes wrong")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Fatal("unknown kind formatting")
	}
}

// kernSoloTime is the per-iteration kernel solo duration on the reference
// device, in microseconds.
func kernSoloTime(p Profile) float64 {
	ct := p.KernCompute / (Reference.ComputeRate * p.KernOcc)
	bt := p.KernTraffic / Reference.MemBandwidth
	return math.Max(ct, bt)
}

// bandwidthDemand is the kernel's bandwidth-demand fraction on the reference
// device, the quantity derive caps at maxBWDemand.
func bandwidthDemand(p Profile) float64 {
	k := kernSoloTime(p)
	if k <= 0 {
		return 0
	}
	return p.KernTraffic / (Reference.MemBandwidth * k)
}

func TestProfileDerivationInternallyConsistent(t *testing.T) {
	for _, k := range AllKinds {
		p := ProfileFor(k)
		if p.Iters <= 0 || p.CPUPerIter < 0 || p.KernCompute < 0 {
			t.Fatalf("%v: degenerate profile %+v", k, p)
		}
		if p.KernOcc < minOcc-1e-9 || p.KernOcc > maxOcc+1e-9 {
			t.Fatalf("%v: occupancy %v out of bounds", k, p.KernOcc)
		}
		if p.BufBytes < 1<<20 || p.BufBytes > chunkBytes {
			t.Fatalf("%v: buffer %d out of range", k, p.BufBytes)
		}
		if bandwidthDemand(p) > maxBWDemand+1e-6 {
			t.Fatalf("%v: bandwidth demand %v exceeds cap", k, bandwidthDemand(p))
		}
		// The intended time budget must reassemble into the solo runtime.
		T := float64(p.SoloRuntime)
		g := p.GPUPct / 100
		x := math.Min(p.XferPct/100, maxXferFrac)
		cpu := float64(p.CPUPerIter) * float64(p.Iters)
		xfer := (float64(p.H2DPerIter)/Reference.H2DBandwidth +
			float64(p.D2HPerIter)/Reference.D2HBandwidth) * float64(p.Iters)
		kern := kernSoloTime(p) * float64(p.Iters)
		total := cpu + xfer + kern
		if math.Abs(total-T)/T > 0.02 {
			t.Errorf("%v: budget reassembles to %.2fs, want %.2fs", k, total/1e6, T/1e6)
		}
		if g > 0.05 && math.Abs(xfer/(xfer+kern)-x) > 0.05 {
			t.Errorf("%v: transfer frac %.3f, want %.3f", k, xfer/(xfer+kern), x)
		}
	}
}

func TestMemoryBoundAppsHaveLowOccupancyHighBW(t *testing.T) {
	hi := ProfileFor(Histogram)
	dc := ProfileFor(DXTC)
	if bandwidthDemand(hi) <= bandwidthDemand(dc) {
		t.Fatalf("HI bw demand %.3f should exceed DC %.3f", bandwidthDemand(hi), bandwidthDemand(dc))
	}
	if hi.KernOcc >= dc.KernOcc {
		t.Fatalf("HI occupancy %.3f should be below DC %.3f (memory-bound kernels stall)", hi.KernOcc, dc.KernOcc)
	}
}

// Run each application solo on the reference device with the bare runtime
// and verify the measured characteristics reproduce Table I's calibration
// targets. This is the substance of the Table I regeneration.
func TestSoloRunsMatchTableI(t *testing.T) {
	for _, k := range AllKinds {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			prof := ProfileFor(k)
			kern := sim.NewKernel(1)
			dev := gpu.NewDevice(kern, Reference, 0)
			rt := cuda.NewRuntime(kern, []*gpu.Device{dev}, cuda.Config{})
			app := &App{Profile: prof, ID: 1}
			var runErr error
			kern.Go("app", func(p *sim.Proc) {
				c := rt.NewThread(p, app.ID)
				runErr = app.Run(c)
			})
			kern.Run()
			if runErr != nil {
				t.Fatalf("run failed: %v", runErr)
			}
			T := float64(app.Finished - app.Started)
			want := float64(prof.SoloRuntime)
			if math.Abs(T-want)/want > 0.05 {
				t.Errorf("solo runtime %.2fs, want %.2fs", T/1e6, want/1e6)
			}
			gpuTime := float64(dev.AppService(app.ID))
			wantGPU := prof.GPUPct / 100 * math.Min(1, (float64(prof.GPUPct)/prof.GPUPct)) // fraction target
			_ = wantGPU
			gotFrac := gpuTime / T
			// The transfer-fraction clamp shifts heavily transfer-bound
			// apps; allow proportional tolerance.
			wantFrac := prof.GPUPct / 100
			if math.Abs(gotFrac-wantFrac) > 0.08 {
				t.Errorf("GPU fraction %.3f, want %.3f", gotFrac, wantFrac)
			}
			// Memory bandwidth as the paper measures it: kernel traffic
			// over GPU time (MB/s == B/us).
			bw := dev.AppMemTraffic(app.ID) / gpuTime
			wantBW := math.Min(prof.MemBWMB, maxBWDemand*Reference.MemBandwidth*
				(gpuTime-float64(dev.AppTransferTime(app.ID)))/gpuTime)
			if wantBW > 0 && math.Abs(bw-wantBW)/wantBW > 0.35 {
				t.Errorf("measured bw %.1f MB/s, want ≈%.1f", bw, wantBW)
			}
		})
	}
}

func TestExpInterArrivalStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 20000
	lambda := sim.Time(1000)
	var sum float64
	for i := 0; i < n; i++ {
		d := ExpInterArrival(rng, lambda)
		if d < 0 {
			t.Fatal("negative inter-arrival")
		}
		sum += float64(d)
	}
	mean := sum / n
	if math.Abs(mean-1000) > 30 {
		t.Fatalf("mean inter-arrival %.1f, want ~1000", mean)
	}
}

func TestStreamSpecArrivalsMonotone(t *testing.T) {
	s := StreamSpec{Kind: MonteCarlo, Count: 50, Lambda: 500}
	rng := rand.New(rand.NewSource(7))
	ts := s.Arrivals(rng)
	if len(ts) != 50 {
		t.Fatalf("arrivals = %d", len(ts))
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] < ts[i-1] {
			t.Fatal("arrivals not monotone")
		}
	}
}

func TestEffectiveLambdaProportionalToRuntime(t *testing.T) {
	s := StreamSpec{Kind: MonteCarlo}
	want := sim.Time(0.6 * float64(ProfileFor(MonteCarlo).SoloRuntime))
	if got := s.EffectiveLambda(); got != want {
		t.Fatalf("EffectiveLambda = %v, want %v", got, want)
	}
	s.Lambda = 123
	if got := s.EffectiveLambda(); got != 123 {
		t.Fatalf("explicit lambda ignored: %v", got)
	}
	s = StreamSpec{Kind: DXTC, LambdaFactor: 1.5}
	want = sim.Time(1.5 * float64(ProfileFor(DXTC).SoloRuntime))
	if got := s.EffectiveLambda(); got != want {
		t.Fatalf("factor lambda = %v, want %v", got, want)
	}
}

func TestDeterministicArrivals(t *testing.T) {
	s := StreamSpec{Kind: Scan, Count: 10, Lambda: 100}
	a := s.Arrivals(rand.New(rand.NewSource(5)))
	b := s.Arrivals(rand.New(rand.NewSource(5)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different arrivals")
		}
	}
}

func TestPipelinedStyleFasterSolo(t *testing.T) {
	run := func(style Style) sim.Time {
		kern := sim.NewKernel(1)
		dev := gpu.NewDevice(kern, Reference, 0)
		rt := cuda.NewRuntime(kern, []*gpu.Device{dev}, cuda.Config{})
		app := &App{Profile: ProfileFor(MonteCarlo), Style: style, ID: 1}
		var runErr error
		kern.Go("app", func(p *sim.Proc) {
			runErr = app.Run(rt.NewThread(p, app.ID))
		})
		kern.Run()
		if runErr != nil {
			t.Fatalf("%v run failed: %v", style, runErr)
		}
		return app.Finished - app.Started
	}
	syncT := run(StyleSync)
	pipeT := run(StylePipelined)
	// Double buffering overlaps CPU, copies and kernels: the pipelined MC
	// must be materially faster than the synchronous one.
	if float64(pipeT) > 0.8*float64(syncT) {
		t.Fatalf("pipelined %v not clearly faster than sync %v", pipeT, syncT)
	}
}

func TestPipelinedMemoryCleanup(t *testing.T) {
	kern := sim.NewKernel(1)
	dev := gpu.NewDevice(kern, Reference, 0)
	rt := cuda.NewRuntime(kern, []*gpu.Device{dev}, cuda.Config{})
	app := &App{Profile: ProfileFor(SortingNetworks), Style: StylePipelined, ID: 1}
	kern.Go("app", func(p *sim.Proc) {
		if err := app.Run(rt.NewThread(p, app.ID)); err != nil {
			t.Errorf("run: %v", err)
		}
	})
	kern.Run()
	if dev.MemUsed() != 0 {
		t.Fatalf("pipelined app leaked %d bytes", dev.MemUsed())
	}
}

func TestStyleString(t *testing.T) {
	if StyleSync.String() != "sync" || StylePipelined.String() != "pipelined" {
		t.Fatal("style names wrong")
	}
}

// Property: derivation stays internally consistent for arbitrary plausible
// Table I rows, not just the ten shipped ones.
func TestQuickDeriveArbitraryRows(t *testing.T) {
	f := func(gpuPct, xferPct, bwRaw uint16, secs, iters uint8) bool {
		s := Spec{
			Kind: DXTC, Name: "X", Short: "XX", Group: GroupA,
			GPUPct:      float64(gpuPct%9900)/100 + 0.5, // 0.5..99.5
			XferPct:     float64(xferPct % 100),
			MemBWMB:     float64(bwRaw % 16000),
			SoloRuntime: sim.Time(int64(secs%50)+1) * sim.Second,
			Iters:       int(iters%40) + 1,
		}
		p := derive(s, Reference)
		if p.CPUPerIter < 0 || p.H2DPerIter < 0 || p.D2HPerIter < 0 {
			return false
		}
		if p.KernOcc < minOcc-1e-9 || p.KernOcc > maxOcc+1e-9 {
			return false
		}
		if p.KernCompute < 0 || p.KernTraffic < 0 {
			return false
		}
		if bandwidthDemand(p) > maxBWDemand+1e-6 {
			return false
		}
		// Reassembled budget within 5% of the target runtime.
		total := float64(p.CPUPerIter)*float64(p.Iters) +
			(float64(p.H2DPerIter)/Reference.H2DBandwidth+
				float64(p.D2HPerIter)/Reference.D2HBandwidth)*float64(p.Iters) +
			kernSoloTime(p)*float64(p.Iters)
		T := float64(s.SoloRuntime)
		return total > 0.9*T && total < 1.1*T
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
