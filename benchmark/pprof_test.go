package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// profileBuilder hand-assembles a pprof profile: one function and one
// location per distinct frame name, samples referencing them.
type profileBuilder struct {
	strtab  []string
	funcID  map[string]uint64
	body    []byte
	nextLoc uint64
}

func newProfileBuilder() *profileBuilder {
	return &profileBuilder{strtab: []string{""}, funcID: map[string]uint64{}}
}

func pbKey(b []byte, field, wire int) []byte {
	return binary.AppendUvarint(b, uint64(field<<3|wire))
}

func pbVarint(b []byte, field int, v uint64) []byte {
	return binary.AppendUvarint(pbKey(b, field, 0), v)
}

func pbBytes(b []byte, field int, data []byte) []byte {
	return append(binary.AppendUvarint(pbKey(b, field, 2), uint64(len(data))), data...)
}

// function returns the id of the function named name, emitting it on first use.
func (p *profileBuilder) function(name string) uint64 {
	if id, ok := p.funcID[name]; ok {
		return id
	}
	p.strtab = append(p.strtab, name)
	id := uint64(len(p.funcID) + 1)
	p.funcID[name] = id
	var fn []byte
	fn = pbVarint(fn, 1, id)
	fn = pbVarint(fn, 2, uint64(len(p.strtab)-1))
	fn = pbVarint(fn, 4, 0) // filename: ignored by the decoder
	p.body = pbBytes(p.body, 5, fn)
	return id
}

// location emits one location whose lines are the given functions, innermost
// (inlined) first, and returns its id.
func (p *profileBuilder) location(funcs ...string) uint64 {
	p.nextLoc++
	var loc []byte
	loc = pbVarint(loc, 1, p.nextLoc)
	loc = append(pbKey(loc, 3, 1), 0, 0, 0, 0, 0, 0, 0, 0) // a fixed64 the decoder must skip
	for _, f := range funcs {
		loc = pbBytes(loc, 4, pbVarint(nil, 1, p.function(f)))
	}
	p.body = pbBytes(p.body, 4, loc)
	return p.nextLoc
}

// sample emits one sample over the locations, packed or one varint at a time.
func (p *profileBuilder) sample(count uint64, packed bool, locs ...uint64) {
	var s []byte
	if packed {
		var ids []byte
		for _, l := range locs {
			ids = binary.AppendUvarint(ids, l)
		}
		s = pbBytes(s, 1, ids)
		s = pbBytes(s, 2, binary.AppendUvarint(binary.AppendUvarint(nil, count), count*10_000_000))
	} else {
		for _, l := range locs {
			s = pbVarint(s, 1, l)
		}
		s = pbVarint(s, 2, count)
	}
	p.body = pbBytes(p.body, 2, s)
}

func (p *profileBuilder) gzipped(t *testing.T) []byte {
	t.Helper()
	raw := slices.Clone(p.body)
	for _, s := range p.strtab {
		raw = pbBytes(raw, 6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDecodeProfileAndCharge(t *testing.T) {
	p := newProfileBuilder()
	// A simulated process of the gpu layer parked inside the kernel: the sim
	// frames are innermost, the coroutine trampoline is a sim frame outside.
	p.sample(3, true,
		p.location("repro/internal/sim.(*Proc).park", "repro/internal/sim.(*Proc).Wait"), // Wait with park inlined
		p.location("repro/internal/gpu.(*Device).driver"),
		p.location("repro/internal/sim.(*Kernel).spawn.func1"),
		p.location("runtime.corostart"))
	// The kernel's own run loop under its caller: sim's time, not core's.
	p.sample(5, false,
		p.location("repro/internal/sim.(*Kernel).RunUntil"),
		p.location("repro/internal/core.(*Cluster).Run"),
		p.location("main.main"))
	p.sample(1, true, p.location("runtime.futex"), p.location("runtime.notesleep"))
	p.sample(1, true, p.location("runtime.scanobject"), p.location("runtime.gcBgMarkWorker"))

	samples, err := decodeProfile(p.gzipped(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 {
		t.Fatalf("decoded %d samples, want 4", len(samples))
	}
	wantFrames := []string{
		"repro/internal/sim.(*Proc).park", "repro/internal/sim.(*Proc).Wait",
		"repro/internal/gpu.(*Device).driver", "repro/internal/sim.(*Kernel).spawn.func1",
		"runtime.corostart",
	}
	if !slices.Equal(samples[0].frames, wantFrames) || samples[0].count != 3 {
		t.Errorf("sample 0 = %v x%d, want %v x3", samples[0].frames, samples[0].count, wantFrames)
	}
	if samples[1].count != 5 || len(samples[1].frames) != 3 {
		t.Errorf("unpacked sample = %v x%d, want 3 frames x5", samples[1].frames, samples[1].count)
	}

	for i, want := range []string{"gpu", "sim", chargeRuntime, chargeGC} {
		if got := chargeStack(samples[i].frames); got != want {
			t.Errorf("sample %d %v charged to %q, want %q", i, samples[i].frames, got, want)
		}
	}
	shares := hostShares(samples)
	for k, want := range map[string]float64{
		"gpu": 30, "sim": 50, chargeRuntime: 10, chargeGC: 10, "sim.self": 80, "core": 0,
	} {
		if got := shares[k]; math.Abs(got-want) > 1e-9 {
			t.Errorf("share[%s] = %v, want %v", k, got, want)
		}
	}
}

func TestChargeStackDriverContext(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		// A timer callback run by the kernel loop belongs to its layer.
		{[]string{"repro/internal/gpu.(*Device).onTimer", "repro/internal/sim.(*Kernel).RunUntil", "repro/internal/core.(*Cluster).Run"}, "gpu"},
		// Construction: no sim frame anywhere.
		{[]string{"runtime.mallocgc", "repro/internal/gpu.NewDevice", "repro/internal/core.New", "main.main"}, "gpu"},
		// A shard worker driving a kernel: sim; the barrier itself: shard.
		{[]string{"repro/internal/sim.(*Kernel).RunUntil", "repro/internal/sim/shard.(*Coordinator).run.func1", "repro/internal/parallel.(*Team).runOne"}, "sim"},
		{[]string{"runtime.chanrecv", "repro/internal/sim/shard.(*Coordinator).run", "repro/internal/core.(*Cluster).Run"}, "shard"},
		// Kernel time asked for through a generic queue whose type argument
		// names another package.
		{[]string{"repro/internal/sim.(*Queue[repro/internal/core.mapperMsg]).Get", "repro/internal/core.(*Cluster).mapperLoop", "repro/internal/sim.(*Kernel).spawn.func1"}, "core"},
		// A package outside the named layers.
		{[]string{"repro/internal/trace.(*Recorder).Begin", "repro/internal/interpose.(*Interposer).call"}, "trace"},
	} {
		if got := chargeStack(tc.frames); got != tc.want {
			t.Errorf("chargeStack(%v) = %q, want %q", tc.frames, got, tc.want)
		}
	}
	if got := hostShares([]stackSample{{frames: []string{"repro/internal/trace.(*Recorder).Begin"}, count: 2}})["other"]; got != 100 {
		t.Errorf("a layer outside hostLayers got share %v under \"other\", want 100", got)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Kernel).RunUntil":               "sim",
		"repro/internal/sim/shard.(*Coordinator).run":         "shard",
		"repro/internal/sweep.Run[go.shape.float64]":          "sweep",
		"repro/internal/experiments.(*Suite).Fig9.func2":      "experiments",
		"repro/stringsched.RunMega":                           "stringsched",
		"repro/internal/sim.NewQueue[repro/internal/core.x]":  "sim",
		"main.(*coreInstance).pass":                           "",
		"runtime.mallocgc":                                    "",
		"iter.Pull[go.shape.struct {}].func1":                 "",
		"encoding/json.Marshal":                               "",
		"gpu":                                                 "",
		"repro/internal/metrics.Percentile":                   "metrics",
		"repro/internal/workload.(*App).Run":                  "workload",
		"repro/internal/rpcproto.Endpoint.Send":               "rpcproto",
		"repro/internal/devsched.(*Scheduler).WaitTurn":       "devsched",
		"repro/internal/cluster.Run.func1":                    "cluster",
		"repro/internal/balancer.(*Mapper).SelectAt":          "balancer",
		"repro/internal/packer.(*Port).Execute":               "packer",
		"repro/internal/interpose.(*Interposer).Launch":       "interpose",
		"repro/internal/cuda.(*Thread).Launch":                "cuda",
		"repro/internal/core.(*shardEnv).runApp":              "core",
		"repro/internal/gpu.(*Device).Stats":                  "gpu",
		"repro/internal/parallel.Map[go.shape.struct {...}]":  "parallel",
		"repro/internal/remoting.(*TCPBackend).Serve.func1":   "remoting",
		"repro/internal/sim.(*Ring[go.shape.struct {}]).Push": "sim",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestDecodeProfileRejectsGarbage(t *testing.T) {
	if _, err := decodeProfile([]byte("not gzip")); err == nil {
		t.Error("decodeProfile accepted bytes that are not gzip")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x12, 0x7f, 0x01}) // a sample claiming 127 bytes, holding 1
	zw.Close()
	if _, err := decodeProfile(buf.Bytes()); err == nil {
		t.Error("decodeProfile accepted a truncated message")
	}
}
