// Package metrics implements the paper's evaluation metrics: weighted
// speedup (Snavely & Tullsen) for system throughput and Jain's fairness
// index for per-tenant fairness, plus small statistics helpers used by the
// experiment harnesses.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/sim"
)

// WeightedSpeedup implements the paper's equation (2):
//
//	WS = (1/n) Σ_i T_alone(i) / T_shared(i)
//
// where T_alone is the application's completion time when it owns the
// resource and T_shared its completion time under the evaluated scheduler.
// Pairs with nonpositive shared time are skipped.
func WeightedSpeedup(alone, shared []sim.Time) float64 {
	if len(alone) != len(shared) || len(alone) == 0 {
		return 0
	}
	var sum float64
	n := 0
	for i := range alone {
		if shared[i] <= 0 {
			continue
		}
		sum += float64(alone[i]) / float64(shared[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// JainFairness implements the paper's equation (3):
//
//	F = (Σ x_i)² / (n · Σ x_i²)
//
// over per-application normalized allocations x_i. It is 1 when all x_i are
// equal and 1/n when one application receives everything.
func JainFairness(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum, sq float64
	for _, v := range x {
		sum += v
		sq += float64(v * v)
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(x)) * sq)
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Percentile returns the p-quantile (0..1) of xs using nearest-rank on a
// sorted copy.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	idx := int(math.Ceil(p*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}

// Series is one named sequence of per-label values — a bar group in one of
// the paper's figures.
type Series struct {
	Name   string
	Values []float64
}

// Table is a labeled collection of series: the printable form of a figure.
type Table struct {
	Title  string
	Labels []string
	Series []Series
}

// Add appends a series; the value count must match the label count (a
// short or long series would silently render misaligned cells, so the
// mismatch is a programming error and panics).
func (t *Table) Add(name string, values []float64) {
	if len(values) != len(t.Labels) {
		panic(fmt.Sprintf("metrics: series %q has %d values for %d labels in table %q",
			name, len(values), len(t.Labels), t.Title))
	}
	t.Series = append(t.Series, Series{Name: name, Values: values})
}

// Row returns the values of series name, or nil.
func (t *Table) Row(name string) []float64 {
	for _, s := range t.Series {
		if s.Name == name {
			return s.Values
		}
	}
	return nil
}

// WithAverage returns a copy of the table with an "AVG" label appended and
// each series extended by its mean — the paper's figures all carry an AVG
// group.
func (t *Table) WithAverage() *Table {
	out := &Table{Title: t.Title, Labels: append(append([]string(nil), t.Labels...), "AVG")}
	for _, s := range t.Series {
		out.Add(s.Name, append(append([]float64(nil), s.Values...), Mean(s.Values)))
	}
	return out
}

// CSV renders the table as comma-separated values with a header row; label
// and series names containing commas or quotes are quoted.
func (t *Table) CSV() string {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	out := esc("label")
	for _, s := range t.Series {
		out += "," + esc(s.Name)
	}
	out += "\n"
	for i, lab := range t.Labels {
		out += esc(lab)
		for _, s := range t.Series {
			if i < len(s.Values) {
				out += fmt.Sprintf(",%.6g", s.Values[i])
			} else {
				out += ","
			}
		}
		out += "\n"
	}
	return out
}

// Format renders the table as aligned text columns.
func (t *Table) Format() string {
	out := t.Title + "\n"
	out += fmt.Sprintf("%-12s", "")
	for _, s := range t.Series {
		out += fmt.Sprintf("%14s", s.Name)
	}
	out += "\n"
	for i, lab := range t.Labels {
		out += fmt.Sprintf("%-12s", lab)
		for _, s := range t.Series {
			if i < len(s.Values) {
				out += fmt.Sprintf("%14.3f", s.Values[i])
			} else {
				out += fmt.Sprintf("%14s", "-")
			}
		}
		out += "\n"
	}
	return out
}
