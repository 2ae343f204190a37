package core

// Closed-form queueing predictions that cross-validate the simulator: a GPU
// multiplexing contexts with driver time-slicing behaves like an M/G/1
// processor-sharing queue, and a load-balanced pool of c GPUs approximates
// M/M/c. analytic_test.go compares the simulator's measured completion times
// against these predictions — an independent check that the discrete-event
// substrate conserves work and queues sanely.

import (
	"errors"
	"math"
)

// errUnstable reports an offered load at or beyond capacity.
var errUnstable = errors.New("utilization >= 1, queue is unstable")

// mg1PS predicts the mean sojourn time of an M/G/1 processor-sharing
// queue: E[T] = S / (1 - ρ), insensitive to the service distribution.
// S is the mean service demand and lambda the arrival rate (requests per
// unit time).
func mg1PS(s, lambda float64) (float64, error) {
	rho := lambda * s
	if rho >= 1 {
		return 0, errUnstable
	}
	return s / (1 - rho), nil
}

// mg1FCFS predicts the mean sojourn time of an M/G/1 FCFS queue via
// Pollaczek–Khinchine: E[T] = S + λ·E[S²] / (2(1-ρ)). scv is the squared
// coefficient of variation of service (0 deterministic, 1 exponential).
func mg1FCFS(s, scv, lambda float64) (float64, error) {
	rho := lambda * s
	if rho >= 1 {
		return 0, errUnstable
	}
	es2 := s * s * (1 + scv)
	return s + lambda*es2/(2*(1-rho)), nil
}

// erlangC returns the probability that an arrival must queue in an M/M/c
// system with offered load a = λ·S erlangs.
func erlangC(c int, a float64) (float64, error) {
	if c <= 0 {
		return 0, errors.New("c must be positive")
	}
	if a >= float64(c) {
		return 0, errUnstable
	}
	// Stable recursion for the Erlang B blocking probability.
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	rho := a / float64(c)
	return b / (1 - rho + rho*b), nil
}

// mmc predicts the mean sojourn time of an M/M/c queue with mean service
// time s and arrival rate lambda.
func mmc(c int, s, lambda float64) (float64, error) {
	a := lambda * s
	pq, err := erlangC(c, a)
	if err != nil {
		return 0, err
	}
	return s + pq*s/(float64(c)-a), nil
}

// utilization returns the offered utilization ρ = λ·S/c.
func utilization(c int, s, lambda float64) float64 {
	if c <= 0 {
		return math.Inf(1)
	}
	return lambda * s / float64(c)
}
