// Package faults is the deterministic fault injector: a sim-clock-driven
// daemon that fires a configured schedule of backend failures — killing a
// whole node, killing a single GPU, stalling a GPU for a while, or degrading
// its service rate — against any Target. The schedule fires exactly as given,
// on the virtual clock, so two runs of the same plan produce the same fault
// sequence event for event.
package faults

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Kind selects what a Fault does to its target.
type Kind int

// Fault kinds.
const (
	// KillNode permanently kills every GPU backend on Node.
	KillNode Kind = iota
	// KillGPU permanently kills the backend serving GID.
	KillGPU
	// StallGPU freezes the backend serving GID for Duration: calls in
	// flight hang, then service resumes.
	StallGPU
	// DegradeGPU multiplies the service time of every call on GID by
	// Factor from the fault time on.
	DegradeGPU
)

// String names the kind for traces and logs.
func (k Kind) String() string {
	switch k {
	case KillNode:
		return "KillNode"
	case KillGPU:
		return "KillGPU"
	case StallGPU:
		return "StallGPU"
	case DegradeGPU:
		return "DegradeGPU"
	default:
		return "Kind(?)"
	}
}

// Fault is one scheduled failure.
type Fault struct {
	At     sim.Time // virtual time the fault fires
	Kind   Kind
	Node   int      // KillNode target
	GID    int      // KillGPU / StallGPU / DegradeGPU target
	Dur    sim.Time // StallGPU: stall length
	Factor float64  // DegradeGPU: service-time multiplier (>1 slows)
}

// String renders the fault for traces.
func (f Fault) String() string {
	switch f.Kind {
	case KillNode:
		return fmt.Sprintf("%v(node=%d)@%d", f.Kind, f.Node, int64(f.At))
	case StallGPU:
		return fmt.Sprintf("%v(gid=%d,dur=%d)@%d", f.Kind, f.GID, int64(f.Dur), int64(f.At))
	case DegradeGPU:
		return fmt.Sprintf("%v(gid=%d,x%.2f)@%d", f.Kind, f.GID, f.Factor, int64(f.At))
	default:
		return fmt.Sprintf("%v(gid=%d)@%d", f.Kind, f.GID, int64(f.At))
	}
}

// Plan is a full injection schedule. The zero value is disabled.
type Plan struct {
	Faults []Fault
}

// Enabled reports whether the plan schedules any faults.
func (p Plan) Enabled() bool { return len(p.Faults) > 0 }

// Target is what the injector fires faults into (the cluster).
type Target interface {
	KillNode(node int)
	KillGPU(gid int)
	StallGPU(gid int, d sim.Time)
	DegradeGPU(gid int, factor float64)
}

// Start launches the injector on k: a daemon that sleeps until its next
// fault. A disabled plan starts nothing, so fault-free simulations carry zero
// extra events. Faults fire in (time, schedule-order) order.
func Start(k *sim.Kernel, plan Plan, t Target) {
	if !plan.Enabled() {
		return
	}
	seq := make([]Fault, len(plan.Faults))
	copy(seq, plan.Faults)
	sort.SliceStable(seq, func(i, j int) bool { return seq[i].At < seq[j].At })
	k.GoDaemon("fault-injector", func(d *sim.Daemon) {
		for ; len(seq) > 0; seq = seq[1:] {
			f := seq[0]
			if f.At > d.Now() {
				d.Sleep(f.At - d.Now())
				return
			}
			switch f.Kind {
			case KillNode:
				t.KillNode(f.Node)
			case KillGPU:
				t.KillGPU(f.GID)
			case StallGPU:
				t.StallGPU(f.GID, f.Dur)
			case DegradeGPU:
				t.DegradeGPU(f.GID, f.Factor)
			}
		}
		d.Exit()
	})
}
