// Fixture for hotalloc's interface edges: a hot root that calls a method of
// an interface declared in this package reaches every implementation of it
// in this package, on value and on pointer receivers.
package hotallociface

import "sort"

type entry struct{ id, served int }

// policy is the hook the mechanism calls every turn.
type policy interface {
	pick(entries []*entry) []*entry
	name() string
}

type scheduler struct {
	pol     policy
	entries []*entry
}

// turn is the fixture's hot-path root. Nothing it does itself allocates;
// what stands behind s.pol does.
//
//strings:hotpath
func (s *scheduler) turn() int {
	return len(s.pol.pick(s.entries))
}

// sorting implements policy on a value receiver the way the device
// scheduler's policies once did: a fresh slice and a sort.Slice closure a
// turn.
type sorting struct{}

func (sorting) name() string { return "sorting" }

func (sorting) pick(entries []*entry) []*entry {
	work := make([]*entry, 0, len(entries)) // want `escaping make\(\[\]\*entry\) heap-allocates on the hot path \(sorting.pick is reachable from //strings:hotpath root \(\*scheduler\).turn\)`
	work = append(work, entries...)         // want `append may grow escaping slice work`
	sort.Slice(work, func(i, j int) bool { return work[i].id < work[j].id }) // want `argument work boxes into interface parameter` `escaping closure captures outer variables and heap-allocates on the hot path \(sorting.pick is reachable from //strings:hotpath root \(\*scheduler\).turn\)`
	return work
}

// grouping implements policy on a pointer receiver and allocates one call
// further down.
type grouping struct{ last map[int]int }

func (g *grouping) name() string { return "grouping" }

func (g *grouping) pick(entries []*entry) []*entry {
	g.regroup(entries)
	return entries
}

func (g *grouping) regroup(entries []*entry) {
	g.last = make(map[int]int) // want `make\(map\[int\]int\) heap-allocates on the hot path \(\(\*grouping\).regroup is reachable from //strings:hotpath root \(\*scheduler\).turn\)`
	for _, e := range entries {
		g.last[e.id] = e.served
	}
}

// inPlace implements policy and picks within the slice it was given: hot,
// reached, and clean.
type inPlace struct{ scratch [3]*entry }

func (p *inPlace) name() string { return "in-place" }

func (p *inPlace) pick(entries []*entry) []*entry {
	n := 0
	for _, e := range entries {
		if n < len(p.scratch) && e.served == 0 {
			p.scratch[n] = e
			n++
		}
	}
	return p.scratch[:n]
}

// name is never called from a root, so no implementation of it is hot: the
// edge follows the method called, not the whole interface.
type chatty struct{}

func (chatty) pick(entries []*entry) []*entry { return entries }

func (chatty) name() string {
	parts := make(map[string]bool) // cold: no diagnostic
	parts["chatty"] = true
	return "chatty"
}

// halfway has a pick of the wrong shape and no name: it does not implement
// policy and is not reached.
type halfway struct{}

func (halfway) pick(n int) []int { return make([]int, n) }

// other is an interface nobody hot calls; its implementation stays cold.
type other interface{ collect() []int }

type collector struct{}

func (collector) collect() []int { return make([]int, 8) }

func drain(o other) int { return len(o.collect()) }
