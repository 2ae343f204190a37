// Package driver runs the stringscheck suite over the packages the load
// package typechecks (`stringscheck ./...`) and renders the findings.
package driver

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// A Finding is one diagnostic in `stringscheck -json` output. File paths
// are relative to the invocation directory when possible so the bytes do
// not depend on the checkout location.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// Standalone lints the packages matching patterns from dir, printing
// diagnostics to w — go-vet-style lines, or (with jsonOut) one sorted JSON
// array, byte-identical across runs for the same tree. Returns 0 for a clean
// tree, 2 when diagnostics were reported, 1 on operational failure.
func Standalone(w io.Writer, dir string, patterns []string, jsonOut bool) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	targets, err := load.Targets(dir, patterns)
	if err != nil {
		fmt.Fprintf(w, "stringscheck: %v\n", err)
		return 1
	}
	// The loader reports absolute file names; make them relative to an
	// absolute dir.
	if abs, err := filepath.Abs(dir); err == nil {
		dir = abs
	}
	findings := []Finding{} // non-nil so -json renders "[]", not "null"
	for _, t := range targets {
		diags, err := analysis.Run(t, analysis.All())
		if err != nil {
			fmt.Fprintf(w, "stringscheck: %s: %v\n", t.Path, err)
			return 1
		}
		for _, d := range diags {
			pos := t.Fset.Position(d.Pos)
			file := pos.Filename
			if rel, err := filepath.Rel(dir, file); err == nil && !filepath.IsAbs(rel) {
				file = rel
			}
			findings = append(findings, Finding{
				File:     file,
				Line:     pos.Line,
				Col:      pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	if jsonOut {
		// Emit even when empty: "[]" is the machine-readable all-clear.
		data, err := json.MarshalIndent(findings, "", "  ")
		if err != nil {
			fmt.Fprintf(w, "stringscheck: %v\n", err)
			return 1
		}
		fmt.Fprintf(w, "%s\n", data)
	} else {
		for _, f := range findings {
			fmt.Fprintf(w, "%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}
