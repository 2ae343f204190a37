package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMG1PSKnownValues(t *testing.T) {
	// ρ = 0.5 doubles the sojourn.
	got, err := mg1PS(1, 0.5)
	if err != nil || !almost(got, 2, 1e-12) {
		t.Fatalf("MG1PS = %v, %v", got, err)
	}
	// Unloaded queue: sojourn = service.
	got, _ = mg1PS(3, 0)
	if got != 3 {
		t.Fatalf("unloaded sojourn = %v", got)
	}
	if _, err := mg1PS(1, 1.0); !errors.Is(err, errUnstable) {
		t.Fatalf("instability not detected: %v", err)
	}
}

func TestMG1FCFSKnownValues(t *testing.T) {
	// M/M/1 (scv=1): E[T] = S/(1-ρ).
	got, err := mg1FCFS(2, 1, 0.25) // ρ=0.5 → 4
	if err != nil || !almost(got, 4, 1e-9) {
		t.Fatalf("M/M/1 sojourn = %v, %v", got, err)
	}
	// M/D/1 (scv=0): E[T] = S + ρS/(2(1-ρ)) = 2 + 1 = 3 at ρ=0.5, S=2.
	got, _ = mg1FCFS(2, 0, 0.25)
	if !almost(got, 3, 1e-9) {
		t.Fatalf("M/D/1 sojourn = %v", got)
	}
}

func TestErlangCKnownValues(t *testing.T) {
	// c=1: P(queue) = ρ.
	p, err := erlangC(1, 0.3)
	if err != nil || !almost(p, 0.3, 1e-12) {
		t.Fatalf("erlangC(1, .3) = %v, %v", p, err)
	}
	// Textbook value: c=2, a=1 → P(queue) = 1/3.
	p, _ = erlangC(2, 1)
	if !almost(p, 1.0/3, 1e-12) {
		t.Fatalf("erlangC(2, 1) = %v, want 1/3", p)
	}
	if _, err := erlangC(2, 2); !errors.Is(err, errUnstable) {
		t.Fatal("instability not detected")
	}
	if _, err := erlangC(0, 0.5); err == nil {
		t.Fatal("c=0 accepted")
	}
}

func TestMMcReducesToMM1(t *testing.T) {
	a, _ := mmc(1, 2, 0.25)
	b, _ := mg1FCFS(2, 1, 0.25)
	if !almost(a, b, 1e-9) {
		t.Fatalf("M/M/1 via MMc %v != via PK %v", a, b)
	}
}

func TestUtilization(t *testing.T) {
	if u := utilization(4, 2, 1); !almost(u, 0.5, 1e-12) {
		t.Fatalf("utilization = %v", u)
	}
	if !math.IsInf(utilization(0, 1, 1), 1) {
		t.Fatal("c=0 should be infinite")
	}
}

// Property: sojourn times are monotone in load and always at least the
// service time, for all stable parameterizations.
func TestQuickSojournMonotone(t *testing.T) {
	f := func(sRaw, l1Raw, l2Raw uint16) bool {
		s := float64(sRaw%100)/10 + 0.1
		l1 := float64(l1Raw%80) / 100 / s // ρ1 < 0.8
		l2 := float64(l2Raw%80) / 100 / s
		if l1 > l2 {
			l1, l2 = l2, l1
		}
		t1, err1 := mg1PS(s, l1)
		t2, err2 := mg1PS(s, l2)
		if err1 != nil || err2 != nil {
			return false
		}
		if t1 < s-1e-9 || t2 < t1-1e-9 {
			return false
		}
		m1, e1 := mmc(2, s, l1)
		m2, e2 := mmc(2, s, l2)
		return e1 == nil && e2 == nil && m1 >= s-1e-9 && m2 >= m1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: more servers never increase the M/M/c sojourn.
func TestQuickMoreServersHelp(t *testing.T) {
	f := func(sRaw, lRaw uint16) bool {
		s := float64(sRaw%100)/10 + 0.1
		lambda := float64(lRaw%70) / 100 / s
		t1, err := mmc(1, s, lambda)
		if err != nil {
			return false
		}
		t2, err := mmc(2, s, lambda)
		if err != nil {
			return false
		}
		t4, err := mmc(4, s, lambda)
		return err == nil && t2 <= t1+1e-9 && t4 <= t2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
