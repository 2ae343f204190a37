// Command mutants replays the mutation census, testdata/mutants.txt (DESIGN.md
// §13). Each row seeds one fault into a temporary copy of the module: its
// tests must then all fail (caught) or, for a known gap, all pass (gap), or
// its stringscheck analyzer must report it (lint). First every named test must
// pass, and every linted package be clean, unmutated. Rows replay two at a
// time, each worker in a copy of its own; the checkout is never edited.
//
//	go run ./cmd/mutants [ID...]   # from the module root; no ID: every row
//
// It exits 1 when a row reads other than it expects, is stale (an old string
// is absent or not unique) or does not build.
package main

import (
	"cmp"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	census  = "testdata/mutants.txt"
	workers = 2
)

// A row is a line "ID caught|gap|lint FILE" and, each indented by a tab, one or
// more "old"/"new" pairs of Go-quoted strings, then "test DIR NAME..." lines or
// one "lint ANALYZER" line. # starts a comment.
type row struct {
	id, expect, file, lint string
	edits                  [][2]string // old, new
	tests, pkgs            []string    // pkgs: the tests' directories, or the file's
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mutants:", err)
		os.Exit(1)
	}
}

func run(ids []string) error {
	start := time.Now()
	rows, err := parse(ids)
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "mutants-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	free := make(chan string, workers) // each worker's copy of the module
	for i := range workers {
		dir := filepath.Join(tmp, strconv.Itoa(i))
		if err := os.CopyFS(dir, os.DirFS(".")); err != nil {
			return err
		}
		free <- dir
	}
	dir, base := <-free, &row{expect: "gap"} // the baseline: every named test passes
	for _, r := range rows {
		if r.lint == "" {
			base.tests, base.pkgs = append(base.tests, r.tests...), append(base.pkgs, r.pkgs...)
		} else if out, err := lint(dir, r.pkgs[0]); err != nil {
			return fmt.Errorf("stringscheck %s, unmutated: %v\n%s", r.pkgs[0], err, out)
		}
	}
	if held, out := test(dir, base); len(held) > 0 {
		return fmt.Errorf("unmutated, not passing: %s\n%s", strings.Join(held, " "), out)
	}
	free <- dir
	fmt.Printf("baseline: named tests pass, linted packages clean (%.0fs)\n", time.Since(start).Seconds())

	var bad []string
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, r := range rows {
		dir := <-free
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.Now()
			outcome, detail := replay(dir, r)
			free <- dir
			mu.Lock()
			defer mu.Unlock()
			fmt.Printf("%-5s %-6s %-11s %5.1fs %s\n", r.id, r.expect, outcome, time.Since(t).Seconds(), detail)
			if outcome != r.expect {
				bad = append(bad, r.id)
			}
		}()
	}
	wg.Wait()
	fmt.Printf("%d rows, %d not as expected, %.0fs wall\n", len(rows), len(bad), time.Since(start).Seconds())
	if len(bad) > 0 {
		return fmt.Errorf("not as expected: %s", strings.Join(bad, " "))
	}
	return nil
}

// parse reads the census and returns the rows ids names, every row for none.
func parse(ids []string) (out []*row, err error) {
	data, err := os.ReadFile(census)
	r := &row{}
	for n, line := range strings.Split(string(data), "\n") {
		f, pending := strings.Fields(line), len(r.edits) > 0 && r.edits[len(r.edits)-1][1] == "\x00"
		_, quoted, _ := strings.Cut(strings.TrimSpace(line), " ")
		s, qerr := strconv.Unquote(quoted)
		switch {
		case len(f) == 0 || f[0][0] == '#':
		case line[0] != '\t' && len(f) == 3 && slices.Contains([]string{"caught", "gap", "lint"}, f[1]) &&
			!slices.ContainsFunc(out, func(o *row) bool { return o.id == f[0] }):
			if r = (&row{id: f[0], expect: f[1], file: f[2]}); len(ids) == 0 || slices.Contains(ids, f[0]) {
				out = append(out, r)
			}
		case f[0] == "old" && qerr == nil && !pending && r.id != "":
			r.edits = append(r.edits, [2]string{s, "\x00"})
		case f[0] == "new" && qerr == nil && pending:
			r.edits[len(r.edits)-1][1] = s
		case f[0] == "test" && len(f) > 2 && r.lint == "" && len(r.edits) > 0 && !pending:
			r.tests, r.pkgs = append(r.tests, f[2:]...), append(r.pkgs, f[1])
		case f[0] == "lint" && len(f) == 2 && r.tests == nil && len(r.edits) > 0 && !pending:
			r.lint, r.pkgs = f[1], []string{"./" + filepath.Dir(r.file)}
		default:
			return nil, fmt.Errorf("%s:%d: cannot read %q", census, n+1, line)
		}
	}
	if len(out) < len(ids) {
		return nil, fmt.Errorf("%d of the ids name no row", len(ids)-len(out))
	}
	return out, err
}

// replay seeds r's edits into dir, runs what it names and puts the file back.
func replay(dir string, r *row) (outcome, detail string) {
	path := filepath.Join(dir, r.file)
	orig, err := os.ReadFile(path)
	if len(r.pkgs) == 0 {
		return "stale", "the row names no catcher"
	}
	src := string(orig)
	for i, e := range r.edits {
		if n := strings.Count(src, e[0]); n != 1 || err != nil {
			return "stale", fmt.Sprintf("old string %d occurs %d times %v", i+1, n, err)
		}
		src = strings.Replace(src, e[0], e[1], 1)
	}
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		return "stale", err.Error()
	}
	defer func() {
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			outcome, detail = "unrestored", err.Error() // the rows after it would run on this one
		}
	}()
	if r.lint != "" {
		switch out, err := lint(dir, r.pkgs[0]); {
		case strings.Contains(out, ": "+r.lint+": "):
			return "lint", ""
		case err == nil || strings.HasSuffix(out, "exit status 2\n"): // other findings
			return "missed", clip(out)
		default:
			return "unbuildable", clip(out)
		}
	}
	switch held, out := test(dir, r); {
	case out == "build failed":
		return "unbuildable", clip(held[0])
	case len(held) > 0:
		return "missed", strings.Join(held, " ")
	}
	return r.expect, ""
}

// lint runs stringscheck over pkg in dir: its findings, and an error when
// there are any (exit status 2) or it fails.
func lint(dir, pkg string) (string, error) {
	cmd := exec.Command("go", "run", "./cmd/stringscheck", pkg)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// result matches a top-level test's start or verdict in go test -v's output,
// or a package that did not build.
var result = regexp.MustCompile(`(?m)^(?:--- (PASS|FAIL|SKIP): |=== (RUN) +)(\w+)(?: |$)|^FAIL\s+\S+ \[(?:build|setup) failed\]`)

// test runs r's tests once in dir and returns, each with its verdict, those
// that did not fail (all pass, for a gap row), and go test's output; or, when
// a package does not build, that output and "build failed". A test that
// started and got no verdict crashed its binary or timed out: it failed. The
// tests a panic or crash hid run again by themselves, until a run reaches none
// of them.
func test(dir string, r *row) (held []string, output string) {
	want, res := "FAIL", map[string]string{}
	if r.expect == "gap" {
		want = "PASS"
	}
	for todo := r.tests; len(todo) > 0; {
		cmd := exec.Command("go", append([]string{"test", "-v", "-count=1", "-timeout", "120s",
			"-run", "^(" + strings.Join(todo, "|") + ")$"}, r.pkgs...)...)
		cmd.Dir = dir
		out, _ := cmd.CombinedOutput()
		for _, m := range result.FindAllSubmatch(out, -1) {
			switch {
			case len(m[3]) == 0:
				return []string{string(out)}, "build failed"
			case len(m[2]) > 0: // started: a crash or a timeout ends it with no verdict
				res[string(m[3])] = "FAIL"
			default:
				res[string(m[3])] = string(m[1])
			}
		}
		output = string(out)
		left := slices.DeleteFunc(slices.Clone(todo), func(t string) bool { return res[t] != "" })
		if len(left) == len(todo) {
			break
		}
		todo = left
	}
	for _, t := range r.tests {
		if res[t] != want {
			held = append(held, t+"("+cmp.Or(res[t], "not run")+")")
		}
	}
	return held, output
}

// clip puts a tool's output on one line of at most 240 bytes.
func clip(s string) string {
	s = strings.Join(strings.Fields(s), " ")
	return s[:min(len(s), 240)]
}
