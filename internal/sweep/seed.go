// Package sweep derives the seeds of experiment sweeps. Every independent
// simulation of a sweep — a figure cell, a replication, a supernode of the
// cluster tier — takes its random streams from (base seed, its own identity)
// alone, never from a shared RNG consumed in execution order. That is the
// property that makes fanning simulations out over internal/parallel safe: a
// simulation's results cannot depend on which worker ran it or on how many
// ran before it.
//
// The mixer is the splitmix64 finalizer (Steele, Lea & Flood, "Fast
// splittable pseudorandom number generators", OOPSLA'14): a bijective
// avalanche function, so distinct (base, parts...) tuples of equal arity
// map to distinct seeds and neighbouring cell indices land far apart in
// seed space instead of producing correlated rand.NewSource streams.
package sweep

// splitmix64 is the splitmix64 finalizer round.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// FoldSeed derives a per-cell seed from a base seed and the cell's
// coordinates (replication number, grid axes, fault-plan index, ...).
// Folding is positional: FoldSeed(b, 1, 2) differs from FoldSeed(b, 2, 1).
func FoldSeed(base int64, parts ...uint64) int64 {
	h := splitmix64(uint64(base))
	for _, p := range parts {
		h = splitmix64(h ^ p)
	}
	return int64(h)
}

// KeySeed derives a per-cell seed from a base seed and a string cell key
// (FNV-1a over the key, then folded), for grids identified by labels rather
// than coordinates.
func KeySeed(base int64, key string) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return FoldSeed(base, h)
}
