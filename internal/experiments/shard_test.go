package experiments

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestFig10ShardInvariance runs a supernode figure — the topology that
// genuinely shards — at shard worker counts 1/2/4/8 and demands deeply equal
// tables: the conservative window protocol must make the barrier worker
// count invisible to every simulated number.
func TestFig10ShardInvariance(t *testing.T) {
	fig10 := func(shards int) string {
		s := NewSuite(Options{Seed: 3, Requests: 4,
			Pairs: workload.Pairs()[:3], Shards: shards})
		return s.Fig10().Format()
	}
	ref := fig10(1)
	for _, n := range []int{2, 4, 8} {
		if got := fig10(n); got != ref {
			t.Errorf("Fig10 diverged at Shards=%d:\nshards=1:\n%s\nshards=%d:\n%s",
				n, ref, n, got)
		}
	}
}

// TestShardRequestLogInvariance DeepEquals the full request log of a
// supernode scenario across shard counts — stronger than table equality:
// every request's placement and latency breakdown must match event for
// event.
func TestShardRequestLogInvariance(t *testing.T) {
	logs := func(shards int) []core.RequestEvent {
		s := NewSuite(Options{Seed: 5, Requests: 5, Shards: shards})
		r := s.run(scenario{
			key:     "shard-invariance-log",
			cfg:     core.Config{Nodes: supernode(), Mode: core.ModeStrings, Balance: "GMin"},
			streams: s.pairStreams(workload.Pairs()[0], true),
		})
		return r.SortedRequests()
	}
	ref := logs(1)
	if len(ref) == 0 {
		t.Fatal("reference run produced an empty request log")
	}
	for _, n := range []int{2, 4, 8} {
		if got := logs(n); !reflect.DeepEqual(got, ref) {
			t.Errorf("request log diverged at Shards=%d", n)
		}
	}
}

// TestFragGridShardInvariance runs the -exp frag grid at shard counts
// 1/2/4/8. MIG-partitionable fleets run on one kernel at any shard count by
// design (slice carving rewires devices mid-run), so invariance here is
// trivial — and this test pins that the collapse actually happens instead of
// a sharded run silently diverging.
func TestFragGridShardInvariance(t *testing.T) {
	frag := func(shards int) string {
		return NewSuite(Options{Seed: 1, Requests: 3, Shards: shards}).FragPacking().Format()
	}
	ref := frag(1)
	for _, n := range []int{2, 4, 8} {
		if got := frag(n); got != ref {
			t.Errorf("FragPacking diverged at Shards=%d", n)
		}
	}
}
