// Package analysis is a small, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary, carrying the six stringscheck
// analyzers that mechanically enforce the simulator's determinism and
// protocol invariants — the ones no test can observe, or that guard a fault
// (see DESIGN.md "Determinism invariants" and "Static analysis").
//
// An Analyzer inspects one typechecked package and reports Diagnostics; Run
// executes a set of analyzers over a Target and filters diagnostics through
// //lint:allow suppressions. Every analyzer is syntactic, sees one package at
// a time, and nothing crosses a package boundary. A bug class that runtime
// tests catch is not an analyzer's business: heap allocation on the request
// path (alloc_test.go and the per-package ZeroAlloc tests), pooled objects
// used after release (the frame and op tests and the goldens) and trace
// spans left open (the run-end open-span check) are all measured.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// "//lint:allow <name>" suppression comments.
	Name string
	// Doc is a one-paragraph description of the invariant, shown by
	// "stringscheck -doc".
	Doc string
	// Run inspects the package held by pass and reports violations via
	// pass.Reportf. A returned error aborts the whole check (reserved for
	// internal failures, not findings).
	Run func(pass *Pass) error
}

// A Pass carries one typechecked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic

	// allows is the package's parsed lint:allow directives, for allowaudit.
	allows []*AllowDirective
	// ran names the analyzers executed in this Run invocation; allowaudit
	// uses it to scope staleness to rules that actually ran.
	ran map[string]bool
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// A Target is one typechecked package ready for analysis.
type Target struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// All returns the full stringscheck suite in reporting order: the five rules
// and the suppression auditor.
func All() []*Analyzer {
	return []*Analyzer{Simclock, Detrand, Maporder, Rawgo, Errflow, Allowaudit}
}

// Run executes analyzers over the target, applies //lint:allow filtering,
// and returns the surviving diagnostics sorted by position. Allowaudit, when
// present, runs last: it needs to know which directives the other analyzers
// actually consumed.
func Run(t *Target, analyzers []*Analyzer) ([]Diagnostic, error) {
	directives := collectAllowDirectives(t.Fset, t.Files)
	ran := make(map[string]bool, len(analyzers))

	var diags []Diagnostic
	newPass := func(a *Analyzer) *Pass {
		return &Pass{
			Analyzer:  a,
			Fset:      t.Fset,
			Files:     t.Files,
			Pkg:       t.Pkg,
			TypesInfo: t.Info,
			diags:     &diags,
			allows:    directives,
			ran:       ran,
		}
	}

	var audit *Analyzer
	for _, a := range analyzers {
		if a.Name == Allowaudit.Name {
			audit = a
			continue
		}
		ran[a.Name] = true
		if err := a.Run(newPass(a)); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	diags = filterAllowed(t.Fset, directives, diags)
	if audit != nil {
		ran[audit.Name] = true
		if err := audit.Run(newPass(audit)); err != nil {
			return nil, fmt.Errorf("%s: %w", audit.Name, err)
		}
		// The auditor's own findings honor lint:allow allowaudit; earlier
		// survivors pass through the second filter unchanged.
		diags = filterAllowed(t.Fset, directives, diags)
	}
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := t.Fset.Position(diags[i].Pos), t.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// ---- shared predicates ----

// isTestFile reports whether the file holding pos is a _test.go file; the
// analyzers check production code only (tests legitimately use
// goroutines, wall clocks for timeouts, and unordered iteration).
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// kernelLayer reports whether path is the virtual-time kernel implementation
// itself: internal/sim (the coroutine kernel) or internal/sim/shard (the
// coordinator composing shard kernels under conservative windows). The
// layer is inside the deterministic domain by definition: simDriven holds
// for it regardless of imports, so every analyzer applies to it.
func kernelLayer(path string) bool {
	return pathEndsWith(path, "internal/sim") ||
		pathEndsWith(path, "internal/sim/shard")
}

// simDriven reports whether pkg belongs to the simulator's deterministic
// domain: it is the kernel layer itself, or it directly imports internal/sim
// or internal/core, which drives it.
// Matching is by path suffix so analysistest fixtures under testdata/src
// trigger the same way the real tree does.
func simDriven(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	if kernelLayer(pkg.Path()) {
		return true
	}
	for _, imp := range pkg.Imports() {
		p := imp.Path()
		if pathEndsWith(p, "internal/sim") || pathEndsWith(p, "internal/core") {
			return true
		}
	}
	return false
}

// pathEndsWith reports whether path equals suffix or ends with "/"+suffix.
func pathEndsWith(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
