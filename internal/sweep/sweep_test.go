package sweep

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/metrics"
)

func TestRunOrdersResults(t *testing.T) {
	cells := make([]Cell[int], 100)
	for i := range cells {
		i := i
		cells[i] = Cell[int]{Key: fmt.Sprint(i), Run: func() int { return i * 3 }}
	}
	for _, par := range []int{1, 8} {
		got := Run(Engine{Parallel: par}, cells)
		for i, v := range got {
			if v != i*3 {
				t.Fatalf("parallel=%d: result[%d] = %d, want %d", par, i, v, i*3)
			}
		}
	}
}

// TestRunParallelEqualsSequential is the engine-level golden property: the
// same cell grid produces deeply equal results at Parallel 1 and 8.
func TestRunParallelEqualsSequential(t *testing.T) {
	build := func() []Cell[[]float64] {
		cells := make([]Cell[[]float64], 64)
		for i := range cells {
			i := i
			cells[i] = Cell[[]float64]{
				Key: fmt.Sprint(i),
				Run: func() []float64 {
					// Each cell derives its stream from its identity alone.
					rng := rand.New(rand.NewSource(FoldSeed(17, uint64(i))))
					out := make([]float64, 16)
					for j := range out {
						out[j] = rng.NormFloat64()
					}
					return out
				},
			}
		}
		return cells
	}
	seq := Run(Engine{Parallel: 1}, build())
	par := Run(Engine{Parallel: 8}, build())
	if !reflect.DeepEqual(seq, par) {
		t.Error("parallel run diverged from sequential run")
	}
}

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
	cells := make([]Cell[[4]int64], n)
	for i := range cells {
		i := i
		cells[i] = Cell[[4]int64]{Run: func() [4]int64 { return draw(i) }}
	}
	for i, got := range Run(Engine{Parallel: 8}, cells) {
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

func TestGridRoundTrip(t *testing.T) {
	g := NewGrid(3, 4, 5)
	if g.Size() != 60 || g.Dims() != 3 {
		t.Fatalf("Size=%d Dims=%d, want 60, 3", g.Size(), g.Dims())
	}
	flat := 0
	for a := 0; a < 3; a++ {
		for b := 0; b < 4; b++ {
			for c := 0; c < 5; c++ {
				// Row-major order: last axis fastest.
				if got := g.Flat(a, b, c); got != flat {
					t.Fatalf("Flat(%d,%d,%d) = %d, want %d", a, b, c, got, flat)
				}
				if g.Coord(flat, 0) != a || g.Coord(flat, 1) != b || g.Coord(flat, 2) != c {
					t.Fatalf("Coord(%d) = (%d,%d,%d), want (%d,%d,%d)", flat,
						g.Coord(flat, 0), g.Coord(flat, 1), g.Coord(flat, 2), a, b, c)
				}
				flat++
			}
		}
	}
}

func TestGridPanicsOnBadInput(t *testing.T) {
	for name, fn := range map[string]func(){
		"no axes":     func() { NewGrid() },
		"zero axis":   func() { NewGrid(3, 0) },
		"flat range":  func() { NewGrid(2, 2).Coord(4, 0) },
		"coord range": func() { NewGrid(2, 2).Flat(2, 0) },
		"coord arity": func() { NewGrid(2, 2).Flat(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestTablesMergesInOrderAndDetectsConflicts(t *testing.T) {
	mk := func(name string, v float64) Cell[*metrics.Table] {
		return Cell[*metrics.Table]{Key: name, Run: func() *metrics.Table {
			tab := &metrics.Table{Labels: []string{"a", "b"}}
			tab.Add(name, []float64{v, v + 1})
			return tab
		}}
	}
	dst := &metrics.Table{Title: "t", Labels: []string{"a", "b"}}
	err := Tables(Engine{Parallel: 4}, dst, []Cell[*metrics.Table]{
		mk("s1", 1), mk("s2", 2), mk("s3", 3),
	})
	if err != nil {
		t.Fatalf("Tables: %v", err)
	}
	want := []string{"s1", "s2", "s3"}
	for i, s := range dst.Series {
		if s.Name != want[i] {
			t.Fatalf("series %d = %q, want %q (merge order)", i, s.Name, want[i])
		}
	}

	dup := &metrics.Table{Title: "t", Labels: []string{"a", "b"}}
	err = Tables(Engine{Parallel: 1}, dup, []Cell[*metrics.Table]{mk("s", 1), mk("s", 2)})
	if err == nil {
		t.Fatal("duplicate series merged silently")
	}
	var me *MergeError
	if !errors.As(err, &me) || me.Key != "s" {
		t.Fatalf("error %v does not name the conflicting cell", err)
	}
}
