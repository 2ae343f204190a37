package cluster_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// goldenScenario is the pinned golden scenario: three two-node supernodes
// under a short big-tenant Poisson arrival mix.
const goldenScenario = "supernodes=3;fleet=Quadro2000+TeslaC2050/Quadro2000+TeslaC2050;" +
	"arrivals=poisson:rate=1.2,horizon=100s,kind=GA,life=25s,lambda=1s,bigevery=4,bigslots=5;seed=3"

// goldenCfg is the golden scenario's run under policy, traced.
func goldenCfg(t testing.TB, policy string) cluster.Config {
	sc, err := scenario.Parse(goldenScenario + ";policy=" + policy)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sc.Cluster()
	cfg.Traced = true
	return cfg
}

// clusterGolden pins the scenario's float metrics per policy to the exact
// values produced at commit time. Columns: p50, p99, p999 (seconds),
// fairness, avg admission wait, max admission wait (seconds), then one
// utilization per supernode.
var clusterGolden = map[string][]float64{
	"least-loaded": {2.026361, 2.051931, 2.078074, 0.975610421339, 8.291814, 12.446848, 0.0239414309032, 0.0183908870049, 0.0364374228538},
	"frag":         {2.026361, 2.05888, 2.090424, 0.974364474969, 2.854589, 7.905922, 0.0393823563618, 0.0186610897797, 0.0217368496483},
}

// clusterGoldenInts pins the scenario's exact counters per policy. Columns:
// born, placed, parked, rejected, conflicts, requests, finished, events. The
// event counts are 3 751 lower than while each backend process ran an accept
// loop: one wake-up per request's accept (3 739) and one start per GPU (12).
var clusterGoldenInts = map[string][]int{
	"least-loaded": {107, 107, 13, 0, 17, 3739, 3739, 757521},
	"frag":         {107, 107, 22, 0, 18, 3739, 3739, 756986},
}

// clusterGoldenSHA pins the sha256 of each policy's concatenated
// per-supernode JSONL trace (supernode order).
var clusterGoldenSHA = map[string]string{
	"least-loaded": "cdb9ff590474dedcfeec3231e559342f42a691ce628a372085879f00a33b4b23",
	"frag":         "3fe07c9e050011c92cb06c053c8eafb986d58c67d3b44a377a6842c611e18f67",
}

// goldenVector extracts the pinned float metrics from a result.
func goldenVector(r *cluster.Result) []float64 {
	v := []float64{
		sim.Time(r.P50).Seconds(), sim.Time(r.P99).Seconds(), sim.Time(r.P999).Seconds(),
		r.Fairness,
		r.AvgAdmissionWait.Seconds(), r.MaxAdmissionWait.Seconds(),
	}
	for _, sn := range r.Supernodes {
		v = append(v, sn.Utilization)
	}
	return v
}

// goldenInts extracts the pinned counters from a result.
func goldenInts(r *cluster.Result) []int {
	return []int{
		r.Log.Born, r.Log.Placed, r.Log.Parked, r.Log.Rejected, r.Log.Conflicts,
		r.Requests, r.Finished, int(r.Events),
	}
}

// goldenTrace concatenates the per-supernode traces and hashes them.
func goldenTrace(r *cluster.Result) string {
	var all []byte
	for _, sn := range r.Supernodes {
		all = append(all, sn.TraceJSONL...)
	}
	sum := sha256.Sum256(all)
	return hex.EncodeToString(sum[:])
}

// TestClusterGolden runs the pinned scenario for both policies through the
// execution-path variants (default, sequential, parallel-8) and
// demands every variant reproduce the committed 12-digit metrics, exact
// counters and trace hash — the cluster-tier analogue of TestFig9Golden.
func TestClusterGolden(t *testing.T) {
	const tol = 1e-9 // golden floats carry 12 significant digits
	variants := []struct {
		name   string
		mutate func(*cluster.Config)
	}{
		{"reused-kernels", func(*cluster.Config) {}},
		{"sequential", func(c *cluster.Config) { c.Workers = 1 }},
		{"parallel-8", func(c *cluster.Config) { c.Workers = 8 }},
	}
	for _, policy := range cluster.Policies() {
		var base *cluster.Result
		for vi, v := range variants {
			cfg := goldenCfg(t, policy)
			v.mutate(&cfg)
			r, err := cluster.Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", policy, v.name, err)
			}
			got := goldenVector(r)
			want := clusterGolden[policy]
			if len(got) != len(want) {
				t.Fatalf("%s/%s: %d metrics, want %d", policy, v.name, len(got), len(want))
			}
			for i, w := range want {
				if math.Abs(got[i]-w) > tol*math.Abs(w) {
					t.Errorf("%s/%s: metric %d = %.12g, want %.12g (cluster dispatch drifted)",
						policy, v.name, i, got[i], w)
				}
			}
			if gi, wi := goldenInts(r), clusterGoldenInts[policy]; !reflect.DeepEqual(gi, wi) {
				t.Errorf("%s/%s: counters %v, want %v", policy, v.name, gi, wi)
			}
			if sha := goldenTrace(r); sha != clusterGoldenSHA[policy] {
				t.Errorf("%s/%s: trace sha %s, want %s (span stream drifted)",
					policy, v.name, sha, clusterGoldenSHA[policy])
			}
			if vi == 0 {
				base = r
			} else if !reflect.DeepEqual(r, base) {
				t.Errorf("%s/%s: result not deeply equal to %s", policy, v.name, variants[0].name)
			}
		}
	}
}
