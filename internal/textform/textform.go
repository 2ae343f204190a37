// Package textform reads and writes the key=value text forms a run is
// described in: the scenario's levels (internal/scenario) and the
// open-arrival spec (internal/workload). A form is a table of Fields over the
// value it describes; ParseKV reads items into the value by that table, and
// AppendKV prints the value back, leaving out each key that prints as it does
// from a default. One table per form is the one place its keys are spelled,
// so parsing and printing cannot drift apart.
package textform

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// Field is one key of a text form over a T: how its value parses into a T
// and how it appends to text from one. Scope is the caller's to interpret
// (the scenario's says which run reads the key); the constructors below
// leave it 0.
type Field[T any] struct {
	Key    string
	Scope  int
	Parse  func(x *T, v string) error
	Format func(b []byte, x T) []byte
}

// ParseKV reads key=value items into x by table, skipping blank ones. An
// item that is not key=value, an unknown or repeated key and a bad value are
// errors.
func ParseKV[T any](x *T, items []string, table []Field[T]) error {
	given := make([]bool, len(table))
	for _, kv := range items {
		if strings.TrimSpace(kv) == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		key = strings.TrimSpace(key)
		i := slices.IndexFunc(table, func(f Field[T]) bool { return f.Key == key })
		switch {
		case !ok:
			return fmt.Errorf("field %q is not key=value", kv)
		case i < 0:
			return fmt.Errorf("unknown key %q; valid: %s", key, AppendList(nil, table, ", ", func(b []byte, f Field[T]) []byte { return append(b, f.Key...) }))
		case given[i]:
			return fmt.Errorf("key %q given twice", key)
		}
		given[i] = true
		if err := table[i].Parse(x, strings.TrimSpace(val)); err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
	}
	return nil
}

// AppendKV appends x's key=value items by table, the first after open and
// each later one after sep, leaving out each that prints as it does from dflt.
// n counts the items appended.
func AppendKV[T any](b []byte, open, sep string, x, dflt T, table []Field[T]) (_ []byte, n int) {
	for _, f := range table {
		start, lead := len(b), sep
		if n == 0 {
			lead = open
		}
		b = append(append(append(b, lead...), f.Key...), '=')
		v := len(b)
		b = f.Format(b, x)
		d := len(b)
		if b = f.Format(b, dflt); bytes.Equal(b[v:d], b[d:]) {
			b = b[:start]
			continue
		}
		b = b[:d]
		n++
	}
	return b, n
}

// OneOf is a key whose value is one of names, what naming them in an error.
func OneOf[T any](key string, scope int, what string, names []string, get func(T) string, set func(*T, string)) Field[T] {
	return Field[T]{key, scope, func(x *T, v string) error {
		if !slices.Contains(names, v) {
			return fmt.Errorf("unknown %s %q; valid: %s", what, v, strings.Join(names, ", "))
		}
		set(x, v)
		return nil
	}, func(b []byte, x T) []byte { return append(b, get(x)...) }}
}

// Number is a key whose value is a finite number in (0, max]; Duration is
// one whose value is a Go duration of at least min.
func Number[T any](key string, max float64, get func(T) float64, set func(*T, float64)) Field[T] {
	return Field[T]{key, 0, func(x *T, v string) error {
		f, err := strconv.ParseFloat(v, 64)
		switch {
		case err == nil && f > 0 && f <= max && !math.IsInf(f, 0):
			set(x, f)
			return nil
		case math.IsInf(max, 0):
			return fmt.Errorf("%q is not a positive number", v)
		}
		return fmt.Errorf("%q is not a number in (0, %g]", v, max)
	}, func(b []byte, x T) []byte { return strconv.AppendFloat(b, get(x), 'g', -1, 64) }}
}

func Duration[T any](key string, min sim.Time, get func(T) sim.Time, set func(*T, sim.Time)) Field[T] {
	return Field[T]{key, 0, func(x *T, v string) error {
		d, err := ParseDur(v)
		switch {
		case err == nil && d >= min:
			set(x, d)
			return nil
		case min == math.MinInt64:
			return fmt.Errorf("%q is not a duration", v)
		}
		return fmt.Errorf("%q is not a duration of at least %s", v, AppendDur(nil, min))
	}, func(b []byte, x T) []byte { return AppendDur(b, get(x)) }}
}

// Float is a key whose value is any finite number, and Int one whose value
// is any integer: the range is left to whoever validates the whole value.
// Duration with min math.MinInt64 is the same for durations.
func Float[T any](key string, get func(T) float64, set func(*T, float64)) Field[T] {
	return Field[T]{key, 0, func(x *T, v string) error {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("%q is not a finite number", v)
		}
		set(x, f)
		return nil
	}, func(b []byte, x T) []byte { return strconv.AppendFloat(b, get(x), 'g', -1, 64) }}
}

func Int[T any](key string, get func(T) int, set func(*T, int)) Field[T] {
	return Field[T]{key, 0, func(x *T, v string) error {
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("%q is not an integer", v)
		}
		set(x, n)
		return nil
	}, func(b []byte, x T) []byte { return strconv.AppendInt(b, int64(get(x)), 10) }}
}

// List parses a sep-separated value item by item; AppendList prints one.
func List[T any](v, sep string, item func(string) (T, error)) ([]T, error) {
	var out []T
	for _, it := range strings.Split(v, sep) {
		x, err := item(strings.TrimSpace(it))
		if err != nil {
			return nil, err
		}
		out = append(out, x)
	}
	return out, nil
}

func AppendList[T any](b []byte, xs []T, sep string, item func([]byte, T) []byte) []byte {
	for i, x := range xs {
		if i > 0 {
			b = append(b, sep...)
		}
		b = item(b, x)
	}
	return b
}

// ParseDur reads a Go duration as a virtual time; AppendDur prints one in
// the largest of s, ms and us that holds it exactly.
func ParseDur(v string) (sim.Time, error) {
	d, err := time.ParseDuration(v)
	return sim.Time(d.Microseconds()), err
}

func AppendDur(b []byte, t sim.Time) []byte {
	unit := "us"
	switch {
	case t%sim.Second == 0:
		t, unit = t/sim.Second, "s"
	case t%sim.Millisecond == 0:
		t, unit = t/sim.Millisecond, "ms"
	}
	return append(strconv.AppendInt(b, int64(t), 10), unit...)
}
