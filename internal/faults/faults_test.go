package faults

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// recorder captures fired faults with their virtual timestamps.
type recorder struct {
	k   *sim.Kernel
	log []string
}

func (r *recorder) stamp(s string) { r.log = append(r.log, fmt.Sprintf("%d:%s", int64(r.k.Now()), s)) }

func (r *recorder) KillNode(node int)             { r.stamp(fmt.Sprintf("killnode(%d)", node)) }
func (r *recorder) KillGPU(gid int)               { r.stamp(fmt.Sprintf("killgpu(%d)", gid)) }
func (r *recorder) StallGPU(gid int, d sim.Time)  { r.stamp(fmt.Sprintf("stall(%d,%d)", gid, int64(d))) }
func (r *recorder) DegradeGPU(gid int, f float64) { r.stamp(fmt.Sprintf("degrade(%d,%.1f)", gid, f)) }

func runPlan(plan Plan) []string {
	k := sim.NewKernel(1)
	rec := &recorder{k: k}
	Start(k, plan, rec)
	k.Run()
	return rec.log
}

func TestDisabledPlanSpawnsNothing(t *testing.T) {
	k := sim.NewKernel(1)
	rec := &recorder{k: k}
	Start(k, Plan{}, rec)
	k.Run()
	if len(rec.log) != 0 {
		t.Fatalf("empty plan fired %v", rec.log)
	}
	if k.Now() != 0 {
		t.Fatalf("empty plan advanced the clock to %v", k.Now())
	}
}

func TestFaultsFireAtScheduledTimes(t *testing.T) {
	log := runPlan(Plan{Faults: []Fault{
		{At: 30 * sim.Second, Kind: KillNode, Node: 1},
		{At: 10 * sim.Second, Kind: StallGPU, GID: 2, Dur: sim.Second},
		{At: 20 * sim.Second, Kind: DegradeGPU, GID: 3, Factor: 1.5},
		{At: 10 * sim.Second, Kind: KillGPU, GID: 0},
	}})
	// Sorted by time; the two t=10s faults keep schedule order (stable sort).
	want := []string{
		fmt.Sprintf("%d:stall(2,%d)", int64(10*sim.Second), int64(sim.Second)),
		fmt.Sprintf("%d:killgpu(0)", int64(10*sim.Second)),
		fmt.Sprintf("%d:degrade(3,1.5)", int64(20*sim.Second)),
		fmt.Sprintf("%d:killnode(1)", int64(30*sim.Second)),
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("fired %v, want %v", log, want)
	}
}

func TestPlanInputNotMutated(t *testing.T) {
	in := []Fault{
		{At: 9 * sim.Second, Kind: KillGPU, GID: 1},
		{At: 1 * sim.Second, Kind: KillGPU, GID: 0},
	}
	orig := make([]Fault, len(in))
	copy(orig, in)
	runPlan(Plan{Faults: in})
	if !reflect.DeepEqual(in, orig) {
		t.Fatalf("Start mutated the caller's fault slice: %v", in)
	}
}

func TestStringsAreStable(t *testing.T) {
	cases := []struct {
		f    Fault
		want string
	}{
		{Fault{At: 5 * sim.Second, Kind: KillNode, Node: 1}, "KillNode(node=1)@5000000"},
		{Fault{At: sim.Second, Kind: KillGPU, GID: 2}, "KillGPU(gid=2)@1000000"},
		{Fault{Kind: StallGPU, GID: 3, Dur: sim.Second}, "StallGPU(gid=3,dur=1000000)@0"},
		{Fault{Kind: DegradeGPU, GID: 4, Factor: 1.5}, "DegradeGPU(gid=4,x1.50)@0"},
	}
	for _, c := range cases {
		if got := c.f.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
