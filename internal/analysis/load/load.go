// Package load typechecks Go packages for the stringscheck analyzers
// without golang.org/x/tools: it shells out to `go list -deps -export` for
// file lists and compiled export data, then drives go/parser + go/types
// with a gc-importer lookup over those export files. This is the loader
// behind `stringscheck ./...` and the stdlib resolver for analysistest
// fixtures.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"

	"repro/internal/analysis"
)

// Pkg is the subset of `go list -json` output the loader consumes.
type Pkg struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
}

// List runs `go list -deps -export -json` in dir for patterns and returns
// every listed package (targets and dependencies) in dependency order:
// cmd/go emits the -deps traversal post-order, so every package appears
// after everything it imports.
func List(dir string, patterns []string) ([]Pkg, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Name,Dir,Export,GoFiles,DepOnly,Standard",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []Pkg
	dec := json.NewDecoder(&stdout)
	for {
		var p Pkg
		if err := dec.Decode(&p); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("go list %v: decoding output: %v", patterns, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// ExportImporter builds a types importer that resolves import paths
// through compiled export data files (path -> file). One instance caches
// every package it materializes.
func ExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
}

// Targets loads, parses, and typechecks the packages matching patterns, in
// go list's order. Everything the patterns did not name — the standard
// library and module-local dependencies alike — is consumed as export data
// only. Files are parsed with comments so //lint:allow suppressions survive
// into analysis.
func Targets(dir string, patterns []string) ([]*analysis.Target, error) {
	pkgs, err := List(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	fset := token.NewFileSet()
	imp := ExportImporter(fset, exports)

	var targets []*analysis.Target
	for _, p := range pkgs {
		if p.Standard || p.DepOnly || p.Name == "" {
			continue
		}
		var files []*ast.File
		for _, g := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, g), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("%s: %v", p.ImportPath, err)
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			continue
		}
		info := analysis.NewInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("typechecking %s: %v", p.ImportPath, err)
		}
		targets = append(targets, &analysis.Target{
			Path:  p.ImportPath,
			Fset:  fset,
			Files: files,
			Pkg:   tpkg,
			Info:  info,
		})
	}
	return targets, nil
}
