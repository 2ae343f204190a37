package sweep

import (
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

// TestFoldSeedOrderIndependence is the seed-folding determinism property:
// per-cell RNG streams are identical whether cells are visited in order
// 0..N-1, shuffled, or concurrently.
func TestFoldSeedOrderIndependence(t *testing.T) {
	const n = 200
	draw := func(cell int) [4]int64 {
		rng := rand.New(rand.NewSource(FoldSeed(99, uint64(cell), 7)))
		var out [4]int64
		for j := range out {
			out[j] = rng.Int63()
		}
		return out
	}
	var inOrder [n][4]int64
	for i := 0; i < n; i++ {
		inOrder[i] = draw(i)
	}
	// Shuffled visit order.
	perm := rand.New(rand.NewSource(5)).Perm(n)
	for _, i := range perm {
		if got := draw(i); got != inOrder[i] {
			t.Fatalf("cell %d stream changed under shuffled execution", i)
		}
	}
	// Concurrent visit order.
	for i, got := range parallel.Map(n, 8, draw) {
		if got != inOrder[i] {
			t.Fatalf("cell %d stream changed under concurrent execution", i)
		}
	}
}

func TestFoldSeedDistinctAndPositional(t *testing.T) {
	seen := map[int64][]uint64{}
	for i := uint64(0); i < 1000; i++ {
		s := FoldSeed(1, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("FoldSeed collision: parts %v and [%d]", prev, i)
		}
		seen[s] = []uint64{i}
	}
	if FoldSeed(1, 2, 3) == FoldSeed(1, 3, 2) {
		t.Error("FoldSeed is not positional")
	}
	if FoldSeed(1, 2) == FoldSeed(2, 2) {
		t.Error("FoldSeed ignores the base seed")
	}
	if KeySeed(1, "fig10/GMin/B") == KeySeed(1, "fig10/GMin/C") {
		t.Error("KeySeed collision on sibling keys")
	}
	if KeySeed(1, "x") != KeySeed(1, "x") {
		t.Error("KeySeed is not deterministic")
	}
}
