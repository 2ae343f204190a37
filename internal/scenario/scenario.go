// Package scenario is the one description of a run — the fleet, the runtime
// and its policies, the request streams (or, for the cluster tier, an
// open-arrival population over N supernodes), the fault plan and the seed —
// as one value with one text form (DESIGN.md §3.1):
//
//	fleet=Quadro2000+TeslaC2050/Quadro4000+TeslaC2070;mode=strings;balance=GMin;dev=PS;streams=MC:8,DC:4@1;lambda=0.6;style=pipelined;seed=1
//	supernodes=3;fleet=Quadro2000+TeslaC2050/Quadro2000+TeslaC2050;policy=frag;arrivals=poisson:rate=0.5,horizon=2400s;seed=3
//
// Parse and String share one key table; String leaves out the keys at their
// default, and Parse(s.String()) is s for every s that Parse accepts.
package scenario

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/balancer"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/sim"
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
	Lambda     float64 // every stream's mean inter-arrival, a fraction of its solo runtime
	Style      workload.Style
	Faults     faults.Plan
	BlockOnOOM bool

	Supernodes int
	Policy     string // placement policy
	Arrivals   workload.OpenArrivalSpec

	Seed int64
}

// Stream is one tenant's request stream; tenants are numbered from 1 in
// stream order, each of weight 1.
type Stream struct {
	Kind    workload.Kind
	Count   int
	Profile string // MIG slice profile ("1g".."7g"); empty for whole devices
	Node    int
}

// Default is what a key left out holds: the paper's two-GPU node under
// Strings with GMin and no device-level policy, λ 0.6, seed 1.
func Default() Scenario {
	return Scenario{
		Fleet: []core.NodeConfig{{Devices: []gpu.Spec{gpu.Quadro2000, gpu.TeslaC2050}}},
		Mode:  core.ModeStrings, Balance: "GMin", Dev: "none", Lambda: 0.6,
		Policy: cluster.PolicyLeastLoaded, Seed: 1,
	}
}

// Which run reads a key.
const (
	both = iota
	single
	tier
)

// The names a key's value may take, in the order of the values they stand for.
var (
	modes  = []string{"cuda", "rain", "strings"}          // core.Mode
	styles = []string{"sync", "pipelined", "multithread"} // workload.Style
	devs   = []string{"none", "TFS", "LAS", "PS"}         // core.Config.DevPolicy
	specs  = []gpu.Spec{gpu.Quadro2000, gpu.Quadro4000, gpu.TeslaC2050, gpu.TeslaC2070}
	kinds  = []faults.Kind{faults.KillNode, faults.KillGPU, faults.StallGPU, faults.DegradeGPU}
)

// field is one key of the text form: the run that reads it, how its value
// parses into a scenario and how it prints from one.
type field struct {
	key    string
	scope  int
	parse  func(s *Scenario, v string) error
	format func(s *Scenario) string
}

var fields = []field{
	{"supernodes", tier, func(s *Scenario, v string) (err error) {
		if s.Supernodes, err = strconv.Atoi(v); err != nil || s.Supernodes < 1 {
			return fmt.Errorf("%q is not a positive integer", v)
		}
		return nil
	}, func(s *Scenario) string { return strconv.Itoa(s.Supernodes) }},
	{"fleet", both, func(s *Scenario, v string) (err error) {
		s.Fleet, err = list(v, "/", func(node string) (n core.NodeConfig, err error) {
			n.Devices, err = list(node, "+", func(name string) (gpu.Spec, error) {
				base, mig := strings.CutSuffix(name, ":mig")
				i := slices.IndexFunc(specs, func(d gpu.Spec) bool { return d.Name == base })
				if i < 0 {
					return gpu.Spec{}, fmt.Errorf("unknown device %q; valid: Quadro2000, Quadro4000, TeslaC2050, TeslaC2070 (:mig partitions one)", name)
				}
				if mig {
					return specs[i].WithMIG(), nil
				}
				return specs[i], nil
			})
			return n, err
		})
		return err
	}, func(s *Scenario) string {
		return join(s.Fleet, "/", func(n core.NodeConfig) string {
			return join(n.Devices, "+", func(d gpu.Spec) string {
				if d.Partitionable() {
					return d.Name + ":mig"
				}
				return d.Name
			})
		})
	}},
	{"mode", single, func(s *Scenario, v string) error {
		i, err := pick("mode", v, modes)
		s.Mode = core.Mode(i)
		return err
	}, func(s *Scenario) string { return modes[s.Mode] }},
	{"balance", single, func(s *Scenario, v string) (err error) {
		_, err = pick("balancing policy", v, append(balancer.Names(), "Frag"))
		s.Balance = v
		return err
	}, func(s *Scenario) string { return s.Balance }},
	{"dev", single, func(s *Scenario, v string) (err error) {
		_, err = pick("device policy", v, devs)
		s.Dev = v
		return err
	}, func(s *Scenario) string { return s.Dev }},
	{"streams", single, func(s *Scenario, v string) (err error) {
		s.Streams, err = list(v, ",", parseStream)
		return err
	}, func(s *Scenario) string { return join(s.Streams, ",", Stream.String) }},
	{"lambda", single, func(s *Scenario, v string) (err error) {
		if s.Lambda, err = strconv.ParseFloat(v, 64); err != nil || !(s.Lambda > 0) || math.IsInf(s.Lambda, 0) {
			return fmt.Errorf("%q is not a positive number", v)
		}
		return nil
	}, func(s *Scenario) string { return ftoa(s.Lambda) }},
	{"style", single, func(s *Scenario, v string) error {
		i, err := pick("style", v, styles)
		s.Style = workload.Style(i)
		return err
	}, func(s *Scenario) string { return styles[s.Style] }},
	{"faults", single, func(s *Scenario, v string) (err error) {
		s.Faults.Faults, err = list(v, ",", parseFault)
		return err
	}, func(s *Scenario) string { return join(s.Faults.Faults, ",", formatFault) }},
	{"memguard", single, func(s *Scenario, v string) (err error) {
		s.BlockOnOOM, err = strconv.ParseBool(v)
		return err
	}, func(s *Scenario) string { return strconv.FormatBool(s.BlockOnOOM) }},
	{"policy", tier, func(s *Scenario, v string) (err error) {
		_, err = pick("placement policy", v, cluster.Policies())
		s.Policy = v
		return err
	}, func(s *Scenario) string { return s.Policy }},
	{"arrivals", tier, func(s *Scenario, v string) (err error) {
		s.Arrivals, err = workload.ParseOpenArrivalSpec(v)
		return err
	}, func(s *Scenario) string {
		if s.Arrivals.Process == "" {
			return ""
		}
		return s.Arrivals.String()
	}},
	{"seed", both, func(s *Scenario, v string) (err error) {
		s.Seed, err = strconv.ParseInt(v, 10, 64)
		return err
	}, func(s *Scenario) string { return strconv.FormatInt(s.Seed, 10) }},
}

// Parse reads the text form; a key left out keeps its Default. An unknown or
// repeated key, a bad value, a key the run does not read and a scenario with
// nothing to run are errors. No input panics.
func Parse(text string) (Scenario, error) {
	s, def := Default(), Default()
	given := make([]bool, len(fields))
	for _, kv := range strings.Split(text, ";") {
		if strings.TrimSpace(kv) == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		key = strings.TrimSpace(key)
		i := slices.IndexFunc(fields, func(f field) bool { return f.key == key })
		switch {
		case !ok:
			return s, fmt.Errorf("scenario: field %q is not key=value", kv)
		case i < 0:
			return s, fmt.Errorf("scenario: unknown key %q", key)
		case given[i]:
			return s, fmt.Errorf("scenario: key %q given twice", key)
		}
		given[i] = true
		if err := fields[i].parse(&s, strings.TrimSpace(val)); err != nil {
			return s, fmt.Errorf("scenario: %s: %w", key, err)
		}
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
		if f.scope == unread && f.format(&s) != f.format(&def) {
			return s, fmt.Errorf("scenario: %s= has no effect on this run (supernodes=%d)", f.key, s.Supernodes)
		}
	}
	return s, nil
}

// String is the text form, the keys at their default left out.
func (s Scenario) String() string {
	def := Default()
	var out []string
	for _, f := range fields {
		if v := f.format(&s); v != f.format(&def) {
			out = append(out, f.key+"="+v)
		}
	}
	return strings.Join(out, ";")
}

// Core returns the single deployment's configuration and request streams.
func (s Scenario) Core() (core.Config, []workload.StreamSpec) {
	cfg := core.Config{
		Seed: s.Seed, Nodes: s.Fleet, Mode: s.Mode, Balance: s.Balance,
		DevPolicy: s.Dev, BlockOnOOM: s.BlockOnOOM, Faults: s.Faults,
	}
	streams := make([]workload.StreamSpec, len(s.Streams))
	for i, st := range s.Streams {
		streams[i] = workload.StreamSpec{
			Kind: st.Kind, Count: st.Count, LambdaFactor: s.Lambda, Node: st.Node,
			Tenant: int64(i + 1), Weight: 1, Style: s.Style, SliceProfile: st.Profile,
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

// parseStream reads a streams= item, KIND:COUNT[:PROFILE][@NODE].
func parseStream(item string) (st Stream, err error) {
	rest, node, hasNode := strings.Cut(item, "@")
	parts := strings.Split(rest, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return st, fmt.Errorf("stream %q is not KIND:COUNT[:PROFILE][@NODE]", item)
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
	return st, nil
}

// String is the stream's item in the streams= list.
func (st Stream) String() string {
	out := st.Kind.String() + ":" + strconv.Itoa(st.Count)
	if st.Profile != "" {
		out += ":" + st.Profile
	}
	if st.Node != 0 {
		out += "@" + strconv.Itoa(st.Node)
	}
	return out
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
	if f.At, err = parseDur(at); err != nil || f.At < 0 {
		return f, fmt.Errorf("fault %q: the instant must be a duration >= 0", item)
	}
	ok := !hasArg && f.Kind <= faults.KillGPU
	switch {
	case f.Kind == faults.StallGPU && hasArg:
		f.Dur, err = parseDur(arg)
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

func formatFault(f faults.Fault) string {
	target := f.GID
	if f.Kind == faults.KillNode {
		target = f.Node
	}
	out := fmt.Sprintf("%v:%d@%s", f.Kind, target, durString(f.At))
	switch f.Kind {
	case faults.StallGPU:
		out += "/" + durString(f.Dur)
	case faults.DegradeGPU:
		out += "/" + ftoa(f.Factor)
	}
	return out
}

// list parses a sep-separated value item by item; join prints one.
func list[T any](v, sep string, item func(string) (T, error)) ([]T, error) {
	var out []T
	for _, it := range strings.Split(v, sep) {
		x, err := item(strings.TrimSpace(it))
		if err != nil {
			return nil, err
		}
		out = append(out, x)
	}
	return out, nil
}

func join[T any](xs []T, sep string, item func(T) string) string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = item(x)
	}
	return strings.Join(out, sep)
}

// pick is v's index in names, or an error that lists them.
func pick(what, v string, names []string) (int, error) {
	if i := slices.Index(names, v); i >= 0 {
		return i, nil
	}
	return 0, fmt.Errorf("unknown %s %q; valid: %s", what, v, strings.Join(names, ", "))
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// parseDur reads a Go duration as a virtual time; durString prints one.
func parseDur(v string) (sim.Time, error) {
	d, err := time.ParseDuration(v)
	return sim.Time(d.Microseconds()), err
}

func durString(t sim.Time) string { return (time.Duration(t) * time.Microsecond).String() }
