// Package scenario is the one description of a run — the fleet, the runtime
// and its policies, the request streams (or, for the cluster tier, an
// open-arrival population over N supernodes), the fault plan and the seed —
// as one value with one text form (DESIGN.md §3.1):
//
//	fleet=Quadro2000+TeslaC2050/Quadro4000+TeslaC2070;mode=strings;balance=GMin;dev=PS;streams=MC:8,DC:4@1;lambda=0.6;style=pipelined;seed=1
//	fleet=TeslaC2050{ctxswitch=0s};mode=rain;dev=TFS;streams=DC:8/every=1s,MC:40/every=500ms/weight=3;horizon=40s
//	supernodes=3;fleet=Quadro2000+TeslaC2050/Quadro2000+TeslaC2050;policy=frag;arrivals=poisson:rate=0.5,horizon=2400s;seed=3
//
// Parse and String share one key table per level (the scenario, a stream's
// options, a device's overrides); String leaves out the keys at their
// default, and Parse(s.String()) is s for every s that Parse accepts. Run is
// the one way a single deployment is built, run and checked.
package scenario

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/balancer"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/devsched"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/textform"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Scenario is one run: a single deployment of Fleet serving Streams, or, when
// Supernodes > 0, the cluster tier placing the Arrivals population over that
// many copies of Fleet with Policy.
type Scenario struct {
	Fleet      []core.NodeConfig
	Mode       core.Mode
	Balance    string // balancer policy
	Dev        string // device-level policy
	Streams    []Stream
	Lambda     float64 // a stream's mean inter-arrival, a fraction of its solo runtime
	Style      workload.Style
	Faults     faults.Plan
	BlockOnOOM bool

	Horizon  sim.Time // where the run is cut; 0 runs it to completion
	LinkBW   float64  // the cross-node link's MB/s (rpcproto.RemoteLink's if 0)
	LASDecay float64  // LAS's k (devsched.DefaultConfig's if 0)
	AcctLag  sim.Time // the Request Monitor's accounting staleness
	Timeout  sim.Time // the interposers' call timeout; 0 arms no recovery

	Supernodes int
	Policy     string // placement policy
	Arrivals   workload.OpenArrivalSpec

	Seed int64
}

// Stream is one tenant's request stream; tenants are numbered from 1 in
// stream order.
type Stream struct {
	Kind    workload.Kind
	Count   int
	Profile string // MIG slice profile ("1g".."7g"); empty for whole devices
	Node    int

	Lambda float64  // the scenario's Lambda for this stream; 0 keeps it
	Every  sim.Time // an absolute mean inter-arrival instead of Lambda
	Start  sim.Time // the offset of every arrival
	Weight int      // the tenant's weight; 0 is 1
}

// paperNode is the default fleet; Default shares it, so it is never written.
var paperNode = []core.NodeConfig{{Devices: []gpu.Spec{gpu.Quadro2000, gpu.TeslaC2050}}}

// Default is what a key left out holds: the paper's two-GPU node under
// Strings with GMin and no device-level policy, λ 0.6, the testbed's link
// and LAS's k = 0.8, seed 1.
func Default() Scenario {
	return Scenario{
		Fleet: paperNode, Mode: core.ModeStrings, Balance: "GMin", Dev: "none", Lambda: 0.6,
		LinkBW: rpcproto.RemoteLink.Bandwidth, LASDecay: devsched.DefaultConfig().LASDecay,
		Policy: cluster.PolicyLeastLoaded, Seed: 1,
	}
}

// def is Default(), what String compares each key against.
var def = Default()

// Which run reads a key (a textform.Field's Scope); single is 0, what
// textform's constructors leave.
const (
	single = iota
	both
	tier
)

// The names a key's value may take, in the order of the values they stand for.
var (
	modes  = []string{"cuda", "rain", "strings"}          // core.Mode
	styles = []string{"sync", "pipelined", "multithread"} // workload.Style
	devs   = devsched.Names                               // core.Config.DevPolicy
	specs  = []gpu.Spec{gpu.Quadro2000, gpu.Quadro4000, gpu.TeslaC2050, gpu.TeslaC2070}
	kinds  = []faults.Kind{faults.KillNode, faults.KillGPU, faults.StallGPU, faults.DegradeGPU}
)

var fields = []textform.Field[Scenario]{
	{Key: "supernodes", Scope: tier, Parse: func(s *Scenario, v string) (err error) {
		if s.Supernodes, err = strconv.Atoi(v); err != nil || s.Supernodes < 1 {
			return fmt.Errorf("%q is not a positive integer", v)
		}
		return nil
	}, Format: func(b []byte, s Scenario) []byte { return strconv.AppendInt(b, int64(s.Supernodes), 10) }},
	{Key: "fleet", Scope: both, Parse: func(s *Scenario, v string) (err error) {
		s.Fleet, err = textform.List(v, "/", func(node string) (n core.NodeConfig, err error) {
			n.Devices, err = textform.List(node, "+", parseDevice)
			return n, err
		})
		return err
	}, Format: func(b []byte, s Scenario) []byte {
		return textform.AppendList(b, s.Fleet, "/", func(b []byte, n core.NodeConfig) []byte { return textform.AppendList(b, n.Devices, "+", appendDevice) })
	}},
	textform.OneOf("mode", single, "mode", modes, func(s Scenario) string { return modes[s.Mode] },
		func(s *Scenario, v string) { s.Mode = core.Mode(slices.Index(modes, v)) }),
	textform.OneOf("balance", single, "balancing policy", append(balancer.Names(), "Frag"),
		func(s Scenario) string { return s.Balance }, func(s *Scenario, v string) { s.Balance = v }),
	textform.OneOf("dev", single, "device policy", devs, func(s Scenario) string { return s.Dev }, func(s *Scenario, v string) { s.Dev = v }),
	{Key: "streams", Scope: single, Parse: func(s *Scenario, v string) (err error) {
		s.Streams, err = textform.List(v, ",", parseStream)
		return err
	}, Format: func(b []byte, s Scenario) []byte { return textform.AppendList(b, s.Streams, ",", appendStream) }},
	textform.Number("lambda", math.Inf(1), func(s Scenario) float64 { return s.Lambda }, func(s *Scenario, f float64) { s.Lambda = f }),
	textform.OneOf("style", single, "style", styles, func(s Scenario) string { return styles[s.Style] },
		func(s *Scenario, v string) { s.Style = workload.Style(slices.Index(styles, v)) }),
	{Key: "faults", Scope: single, Parse: func(s *Scenario, v string) (err error) {
		s.Faults.Faults, err = textform.List(v, ",", parseFault)
		return err
	}, Format: func(b []byte, s Scenario) []byte { return textform.AppendList(b, s.Faults.Faults, ",", appendFault) }},
	{Key: "memguard", Scope: single, Parse: func(s *Scenario, v string) (err error) {
		s.BlockOnOOM, err = strconv.ParseBool(v)
		return err
	}, Format: func(b []byte, s Scenario) []byte { return strconv.AppendBool(b, s.BlockOnOOM) }},
	textform.Duration("horizon", 1, func(s Scenario) sim.Time { return s.Horizon }, func(s *Scenario, t sim.Time) { s.Horizon = t }),
	textform.Number("linkbw", math.Inf(1), func(s Scenario) float64 { return s.LinkBW }, func(s *Scenario, f float64) { s.LinkBW = f }),
	textform.Number("lasdecay", 1, func(s Scenario) float64 { return s.LASDecay }, func(s *Scenario, f float64) { s.LASDecay = f }),
	textform.Duration("acctlag", 0, func(s Scenario) sim.Time { return s.AcctLag }, func(s *Scenario, t sim.Time) { s.AcctLag = t }),
	textform.Duration("timeout", 0, func(s Scenario) sim.Time { return s.Timeout }, func(s *Scenario, t sim.Time) { s.Timeout = t }),
	textform.OneOf("policy", tier, "placement policy", cluster.Policies(),
		func(s Scenario) string { return s.Policy }, func(s *Scenario, v string) { s.Policy = v }),
	{Key: "arrivals", Scope: tier, Parse: func(s *Scenario, v string) (err error) {
		s.Arrivals, err = workload.ParseOpenArrivalSpec(v)
		return err
	}, Format: func(b []byte, s Scenario) []byte { return s.Arrivals.Append(b) }},
	{Key: "seed", Scope: both, Parse: func(s *Scenario, v string) (err error) {
		s.Seed, err = strconv.ParseInt(v, 10, 64)
		return err
	}, Format: func(b []byte, s Scenario) []byte { return strconv.AppendInt(b, s.Seed, 10) }},
}

// streamFields are a stream's options, each after a "/" behind its
// KIND:COUNT[:PROFILE][@NODE].
var streamFields = []textform.Field[Stream]{
	textform.Number("lambda", math.Inf(1), func(st Stream) float64 { return st.Lambda }, func(st *Stream, f float64) { st.Lambda = f }),
	textform.Duration("every", 1, func(st Stream) sim.Time { return st.Every }, func(st *Stream, t sim.Time) { st.Every = t }),
	textform.Duration("start", 0, func(st Stream) sim.Time { return st.Start }, func(st *Stream, t sim.Time) { st.Start = t }),
	{Key: "weight", Parse: func(st *Stream, v string) (err error) {
		if st.Weight, err = strconv.Atoi(v); err != nil || st.Weight < 1 {
			return fmt.Errorf("%q is not a positive integer", v)
		}
		if st.Weight == 1 {
			st.Weight = 0 // the default, which prints as nothing
		}
		return nil
	}, Format: func(b []byte, st Stream) []byte { return strconv.AppendInt(b, int64(st.Weight), 10) }},
}

// specFields are the device overrides, in braces behind a device's name.
var specFields = []textform.Field[gpu.Spec]{
	textform.Duration("ctxswitch", 0, func(d gpu.Spec) sim.Time { return d.ContextSwitch }, func(d *gpu.Spec, t sim.Time) { d.ContextSwitch = t }),
	{Key: "copyengines", Parse: func(d *gpu.Spec, v string) (err error) {
		if d.CopyEngines, err = strconv.Atoi(v); err != nil || d.CopyEngines < 1 || d.CopyEngines > 2 {
			return fmt.Errorf("%q is not 1 or 2", v)
		}
		return nil
	}, Format: func(b []byte, d gpu.Spec) []byte { return strconv.AppendInt(b, int64(d.CopyEngines), 10) }},
}

// Parse reads the text form; a key left out keeps its Default. An unknown or
// repeated key, a bad value, a key the run does not read and a scenario with
// nothing to run are errors. No input panics.
func Parse(text string) (Scenario, error) {
	s := Default()
	if err := textform.ParseKV(&s, strings.Split(text, ";"), fields); err != nil {
		return s, fmt.Errorf("scenario: %w", err)
	}
	unread := tier
	switch {
	case s.Supernodes > 0 && s.Arrivals.Process == "":
		return s, fmt.Errorf("scenario: supernodes= needs arrivals=")
	case s.Supernodes > 0:
		unread = single
	case len(s.Streams) == 0:
		return s, fmt.Errorf("scenario: no streams= to run (or supernodes= and arrivals= for the cluster tier)")
	}
	for _, f := range fields {
		if f.Scope == unread && !bytes.Equal(f.Format(nil, s), f.Format(nil, def)) {
			return s, fmt.Errorf("scenario: %s= has no effect on this run (supernodes=%d)", f.Key, s.Supernodes)
		}
	}
	return s, nil
}

// String is the text form, the keys at their default left out.
func (s Scenario) String() string { return string(s.Append(nil)) }

// Append appends the text form to b. It allocates nothing once b has room,
// so a memo can key on the text of every lookup.
func (s Scenario) Append(b []byte) []byte {
	b, _ = textform.AppendKV(b, "", ";", s, def, fields)
	return b
}

// Core returns the single deployment's configuration and request streams.
func (s Scenario) Core() (core.Config, []workload.StreamSpec) {
	cfg := core.Config{
		Seed: s.Seed, Nodes: s.Fleet, Mode: s.Mode, Balance: s.Balance,
		DevPolicy: s.Dev, BlockOnOOM: s.BlockOnOOM, Faults: s.Faults,
		Sched:       devsched.Config{LASDecay: s.LASDecay, AccountingLag: s.AcctLag},
		CallTimeout: s.Timeout,
	}
	if s.LinkBW > 0 {
		cfg.RemoteLink = rpcproto.LinkSpec{Latency: rpcproto.RemoteLink.Latency, Bandwidth: s.LinkBW}
	}
	streams := make([]workload.StreamSpec, len(s.Streams))
	for i, st := range s.Streams {
		streams[i] = workload.StreamSpec{
			Kind: st.Kind, Count: st.Count, Lambda: st.Every, LambdaFactor: s.Lambda, Node: st.Node,
			Tenant: int64(i + 1), Weight: max(st.Weight, 1), Style: s.Style, SliceProfile: st.Profile,
			Start: st.Start,
		}
		if st.Lambda > 0 {
			streams[i].LambdaFactor = st.Lambda
		}
	}
	return cfg, streams
}

// Cluster returns the cluster-tier run over Supernodes copies of the fleet.
func (s Scenario) Cluster() cluster.Config {
	sns := make([]cluster.Supernode, s.Supernodes)
	for i := range sns {
		sns[i].Nodes = s.Fleet
	}
	return cluster.Config{Seed: s.Seed, Supernodes: sns, Policy: s.Policy, Arrivals: s.Arrivals}
}

// Env is what a run borrows rather than describes: none of it is in the text
// form, and none of it changes what the run computes.
type Env struct {
	Traces   *workload.TraceBook
	Recorder *trace.Recorder
	Trace    bool // a utilization tracer on every device
}

// Run builds the single deployment in env, runs its streams to completion or
// to Horizon, and fails on an application error. The cluster comes back
// open, for its devices and traces to be read; the caller closes it.
func (s Scenario) Run(env Env) (*core.Cluster, *core.RunResult, error) {
	if s.Supernodes > 0 {
		return nil, nil, fmt.Errorf("a supernodes= scenario is the cluster tier's: run it with strings-bench -exp cluster -scenario")
	}
	cfg, streams := s.Core()
	cfg.Traces, cfg.Recorder, cfg.Trace = env.Traces, env.Recorder, env.Trace
	c, err := core.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	var r *core.RunResult
	if s.Horizon > 0 {
		r, err = c.RunUntil(streams, s.Horizon)
	} else {
		r, err = c.Run(streams)
	}
	if err == nil && len(r.Errors) > 0 {
		err = fmt.Errorf("application errors: %v", r.Errors)
	}
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	return c, r, nil
}

// parseStream reads a streams= item, KIND:COUNT[:PROFILE][@NODE][/KEY=VALUE]...
func parseStream(item string) (st Stream, err error) {
	head, opts, _ := strings.Cut(item, "/")
	rest, node, hasNode := strings.Cut(head, "@")
	parts := strings.Split(rest, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return st, fmt.Errorf("stream %q is not KIND:COUNT[:PROFILE][@NODE][/KEY=VALUE]...", item)
	}
	k, ok := workload.KindByCode(parts[0])
	if !ok {
		return st, fmt.Errorf("unknown benchmark %q; valid: %v", parts[0], workload.AllKinds)
	}
	st.Kind = k
	if st.Count, err = strconv.Atoi(parts[1]); err != nil || st.Count < 1 {
		return st, fmt.Errorf("stream %q: count must be at least 1", item)
	}
	if len(parts) == 3 {
		if st.Profile = parts[2]; st.Profile == "" {
			return st, fmt.Errorf("stream %q: empty slice profile", item)
		}
	}
	if hasNode {
		if st.Node, err = strconv.Atoi(node); err != nil || st.Node < 0 {
			return st, fmt.Errorf("stream %q: node must be a node index", item)
		}
	}
	if err := textform.ParseKV(&st, strings.Split(opts, "/"), streamFields); err != nil {
		return st, fmt.Errorf("stream %q: %w", item, err)
	}
	if st.Lambda > 0 && st.Every > 0 {
		return st, fmt.Errorf("stream %q: lambda= and every= both set its inter-arrival", item)
	}
	return st, nil
}

// appendStream appends a streams= item.
func appendStream(b []byte, st Stream) []byte {
	b = append(b, st.Kind.String()...)
	b = strconv.AppendInt(append(b, ':'), int64(st.Count), 10)
	if st.Profile != "" {
		b = append(append(b, ':'), st.Profile...)
	}
	if st.Node != 0 {
		b = strconv.AppendInt(append(b, '@'), int64(st.Node), 10)
	}
	b, _ = textform.AppendKV(b, "/", "/", st, Stream{}, streamFields)
	return b
}

// parseDevice reads a fleet= device, NAME[:mig][{KEY=VALUE,...}].
func parseDevice(item string) (gpu.Spec, error) {
	name, opts, hasOpts := strings.Cut(item, "{")
	base, mig := strings.CutSuffix(strings.TrimSpace(name), ":mig")
	i := slices.IndexFunc(specs, func(d gpu.Spec) bool { return d.Name == base })
	if i < 0 {
		return gpu.Spec{}, fmt.Errorf("unknown device %q; valid: Quadro2000, Quadro4000, TeslaC2050, TeslaC2070 (:mig partitions one, {KEY=VALUE,...} overrides its spec)", name)
	}
	d := specs[i]
	if mig {
		d = d.WithMIG()
	}
	if hasOpts {
		opts, ok := strings.CutSuffix(opts, "}")
		if !ok {
			return d, fmt.Errorf("device %q: overrides go in {KEY=VALUE,...}", item)
		}
		if err := textform.ParseKV(&d, strings.Split(opts, ","), specFields); err != nil {
			return d, fmt.Errorf("device %q: %w", item, err)
		}
	}
	return d, nil
}

// appendDevice appends a fleet= device: its name, and the overrides that set
// it apart from the spec of that name.
func appendDevice(b []byte, d gpu.Spec) []byte {
	b = append(b, d.Name...)
	if d.Partitionable() {
		b = append(b, ":mig"...)
	}
	i := slices.IndexFunc(specs, func(s gpu.Spec) bool { return s.Name == d.Name })
	if i < 0 {
		return b
	}
	b, n := textform.AppendKV(b, "{", ",", d, specs[i], specFields)
	if n > 0 {
		b = append(b, '}')
	}
	return b
}

// parseFault reads a faults= item: KillNode:NODE@AT, KillGPU:GID@AT,
// StallGPU:GID@AT/DURATION or DegradeGPU:GID@AT/FACTOR.
func parseFault(item string) (f faults.Fault, err error) {
	head, arg, hasArg := strings.Cut(item, "/")
	name, rest, ok1 := strings.Cut(head, ":")
	target, at, ok2 := strings.Cut(rest, "@")
	k := slices.IndexFunc(kinds, func(k faults.Kind) bool { return k.String() == name })
	n, err := strconv.Atoi(target)
	if !ok1 || !ok2 || k < 0 || err != nil || n < 0 {
		return f, fmt.Errorf("fault %q is not KillNode|KillGPU|StallGPU|DegradeGPU:TARGET@AT[/ARG]", item)
	}
	if f.Kind = kinds[k]; f.Kind == faults.KillNode {
		f.Node = n
	} else {
		f.GID = n
	}
	if f.At, err = textform.ParseDur(at); err != nil || f.At < 0 {
		return f, fmt.Errorf("fault %q: the instant must be a duration >= 0", item)
	}
	ok := !hasArg && f.Kind <= faults.KillGPU
	switch {
	case f.Kind == faults.StallGPU && hasArg:
		f.Dur, err = textform.ParseDur(arg)
		ok = err == nil && f.Dur > 0
	case f.Kind == faults.DegradeGPU && hasArg:
		f.Factor, err = strconv.ParseFloat(arg, 64)
		ok = err == nil && f.Factor > 0 && !math.IsInf(f.Factor, 0)
	}
	if !ok {
		return f, fmt.Errorf("fault %q: a stall takes /DURATION > 0, a degradation /FACTOR > 0, a kill nothing", item)
	}
	return f, nil
}

func appendFault(b []byte, f faults.Fault) []byte {
	target := f.GID
	if f.Kind == faults.KillNode {
		target = f.Node
	}
	b = strconv.AppendInt(append(append(b, f.Kind.String()...), ':'), int64(target), 10)
	b = textform.AppendDur(append(b, '@'), f.At)
	switch f.Kind {
	case faults.StallGPU:
		b = textform.AppendDur(append(b, '/'), f.Dur)
	case faults.DegradeGPU:
		b = strconv.AppendFloat(append(b, '/'), f.Factor, 'g', -1, 64)
	}
	return b
}
