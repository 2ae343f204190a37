package experiments

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestFig10ShardInvariance runs a supernode figure — the topology that
// genuinely shards — on one kernel and on one kernel per node and demands
// equal tables: the node→kernel partition must be invisible to every
// simulated number.
func TestFig10ShardInvariance(t *testing.T) {
	fig10 := func(shards int) string {
		s := NewSuite(Options{Seed: 3, Requests: 4,
			Pairs: workload.Pairs()[:3], Shards: shards})
		return s.Fig10().Format()
	}
	if ref, got := fig10(0), fig10(1); got != ref {
		t.Errorf("Fig10 diverged:\nshards=0:\n%s\nshards=1:\n%s", ref, got)
	}
}

// TestShardRequestLogInvariance DeepEquals the full request log of a
// supernode scenario on one kernel and on one kernel per node — stronger than
// table equality: every request's placement and latency breakdown must match
// event for event, application ids (numbered per kernel) aside.
func TestShardRequestLogInvariance(t *testing.T) {
	logs := func(shards int) []core.RequestEvent {
		s := NewSuite(Options{Seed: 5, Requests: 5, Shards: shards})
		defer s.arena.Close()
		r := s.run(scenario{
			key:     "shard-invariance-log",
			cfg:     core.Config{Nodes: supernode(), Mode: core.ModeStrings, Balance: "GMin"},
			streams: s.pairStreams(workload.Pairs()[0], true),
		})
		reqs := r.SortedRequests()
		for i := range reqs {
			reqs[i].AppID = 0
		}
		return reqs
	}
	ref := logs(0)
	if len(ref) == 0 {
		t.Fatal("reference run produced an empty request log")
	}
	if got := logs(1); !reflect.DeepEqual(got, ref) {
		t.Error("request log diverged between Shards=0 and Shards=1")
	}
}

// TestFragGridShardInvariance runs the -exp frag grid with Shards off and on.
// MIG-partitionable fleets run on one kernel either way by design (slice
// carving rewires devices mid-run), so invariance here is trivial — and this
// test pins that the collapse actually happens instead of a sharded run
// silently diverging.
func TestFragGridShardInvariance(t *testing.T) {
	frag := func(shards int) string {
		return NewSuite(Options{Seed: 1, Requests: 3, Shards: shards}).FragPacking().Format()
	}
	if frag(1) != frag(0) {
		t.Error("FragPacking diverged between Shards=0 and Shards=1")
	}
}
