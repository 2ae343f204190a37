// Fixture for the allowaudit analyzer, run as a suite with simclock so
// directive usage is real: unknown analyzer names, missing reasons, stale
// suppressions, and the not-ran staleness scope.
package allowaudit

import (
	"time"

	"repro/internal/sim"
)

var virtual sim.Time

func working() {
	_ = time.Now() //lint:allow simclock -- fixture: deliberate wall-clock read
}

// fresh's suppression does real work but states no reason: the claim is
// not auditable.
func fresh() {
	_ = time.Now() //lint:allow simclock // want `lint:allow without a '-- reason'`
}

// cold's directive suppresses nothing — simclock ran and found this line
// clean — so it is stale.
func cold(n int) int {
	m := n * 2 //lint:allow simclock -- fixture: no clock is read here // want `suppresses no simclock diagnostic here`
	return m
}

// typo: an unknown analyzer name silently suppresses nothing; worse, it
// reads like coverage.
func typo(n int) int {
	return n + 1 //lint:allow simclok -- fixture: misspelled on purpose // want `unknown analyzer "simclok"`
}

// retired: each name below was an analyzer until runtime tests were shown to
// catch its bug class; an allow naming one must not come back unnoticed.
func retired(n int) []int {
	return make([]int, n) //lint:allow hotalloc -- fixture: names a deleted analyzer // want `unknown analyzer "hotalloc"`
}

func retiredPool(n int) int {
	return n + 4 //lint:allow poolsafe -- fixture: names a deleted analyzer // want `unknown analyzer "poolsafe"`
}

func retiredSpan(n int) int {
	return n + 5 //lint:allow spanpair -- fixture: names a deleted analyzer // want `unknown analyzer "spanpair"`
}

// notRan: maporder is not part of this suite invocation, so its unused
// directive is NOT called stale — staleness is scoped to analyzers that
// ran.
func notRan(n int) int {
	return n + 2 //lint:allow maporder -- fixture: audited only under the full suite
}

// blanket: "all" is only auditable when the whole suite ran; under a
// partial run it is left alone.
func blanket(n int) int {
	return n + 3 //lint:allow all -- fixture: blanket waiver, audited under full runs only
}
