// strings-run executes one configurable scenario: a runtime mode, a
// balancing policy, a device-level policy, and a set of request streams on
// a one- or two-node GPU server.
//
// Usage:
//
//	strings-run [-mode cuda|rain|strings] [-balance GRR|GMin|GWtMin|RTF|GUF|DTF|MBF]
//	            [-dev none|TFS|LAS|PS] [-streams MC:10,DC:5] [-nodes 1|2]
//	            [-lambda F] [-seed S]
//
// The -streams flag lists kind:count pairs; each stream becomes its own
// tenant, arriving at alternating nodes when -nodes=2.
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/workload"
)

func main() {
	mode := flag.String("mode", "strings", "runtime: cuda, rain or strings")
	balance := flag.String("balance", "GMin", "workload balancing policy")
	dev := flag.String("dev", "none", "device-level policy: none, TFS, LAS, PS")
	streamsArg := flag.String("streams", "MC:8,DC:4", "comma-separated kind:count streams")
	nodes := flag.Int("nodes", 1, "number of nodes (1 = 2 GPUs, 2 = 4-GPU supernode)")
	lambda := flag.Float64("lambda", 0.6, "mean inter-arrival as a fraction of solo runtime")
	styleArg := flag.String("style", "sync", "application style: sync, pipelined, multithread")
	memGuard := flag.Bool("memguard", false, "memory-pressure admission control: cudaMalloc waits for capacity instead of failing (every mode)")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	var style workload.Style
	switch strings.ToLower(*styleArg) {
	case "sync":
		style = workload.StyleSync
	case "pipelined":
		style = workload.StylePipelined
	case "multithread":
		style = workload.StyleMultiThread
	default:
		log.Fatalf("unknown style %q", *styleArg)
	}

	m, ok := core.ModeByName(*mode)
	if !ok {
		log.Fatalf("unknown mode %q", *mode)
	}
	cfg := core.Config{
		Seed:       *seed,
		Mode:       m,
		Balance:    *balance,
		DevPolicy:  *dev,
		BlockOnOOM: *memGuard,
	}
	cfg.Nodes = []core.NodeConfig{
		{Devices: []gpu.Spec{gpu.Quadro2000, gpu.TeslaC2050}},
	}
	switch *nodes {
	case 1:
	case 2:
		cfg.Nodes = append(cfg.Nodes, core.NodeConfig{
			Devices: []gpu.Spec{gpu.Quadro4000, gpu.TeslaC2070},
		})
	default:
		log.Fatalf("invalid -nodes %d (valid: 1 = one 2-GPU node, 2 = 4-GPU supernode)", *nodes)
	}

	var streams []workload.StreamSpec
	for i, part := range strings.Split(*streamsArg, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(kv) != 2 {
			log.Fatalf("bad stream %q (want KIND:COUNT)", part)
		}
		kind, ok := workload.KindByCode(kv[0])
		if !ok {
			log.Fatalf("unknown benchmark %q", kv[0])
		}
		count, err := strconv.Atoi(kv[1])
		if err != nil || count <= 0 {
			log.Fatalf("bad count in %q", part)
		}
		node := 0
		if *nodes == 2 {
			node = i % 2
		}
		streams = append(streams, workload.StreamSpec{
			Kind: kind, Count: count, LambdaFactor: *lambda,
			Node: node, Tenant: int64(i + 1), Weight: 1, Style: style,
		})
	}

	cluster, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	r, err := cluster.Run(streams)
	if err != nil {
		log.Fatal(err)
	}
	if len(r.Errors) > 0 {
		log.Fatalf("application errors: %v", r.Errors)
	}

	fmt.Printf("mode=%s balance=%s dev=%s nodes=%d seed=%d\n",
		cfg.Mode, cfg.Balance, cfg.DevPolicy, len(cfg.Nodes), cfg.Seed)
	fmt.Printf("requests: %d launched, %d finished, horizon %v\n\n",
		r.Launched, r.Finished, r.EndTime)
	for _, k := range r.Kinds() {
		fmt.Printf("  %-3v %3d requests, avg %v, p50 %v, p95 %v\n",
			k, len(r.Completions(k)), r.AvgCompletion(k),
			r.PercentileCompletion(k, 0.5), r.PercentileCompletion(k, 0.95))
	}
	fmt.Println()
	for gid, d := range cluster.Devices() {
		st := d.Stats()
		fmt.Printf("  GID %d %-12s kernels %4d, copies %4d, switches %3d, compute busy %v\n",
			gid, d.Spec().Name, st.KernelsDone, st.CopiesDone, st.Switches, st.ComputeBusy)
	}
}
