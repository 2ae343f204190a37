// Package analysistest runs one stringscheck analyzer over a fixture
// package under testdata/src and checks its diagnostics against `// want`
// comments, mirroring golang.org/x/tools/go/analysis/analysistest:
//
//	m := map[string]int{}
//	for k := range m { // want `map iteration order leaks`
//
// A want comment holds one or more quoted regular expressions (double- or
// back-quoted); each must match a diagnostic reported on that line, and
// every diagnostic must be matched by some expectation. Fixture packages
// resolve imports first against testdata/src (so fixtures can import a
// fake repro/internal/sim) and then against the real standard library via
// compiled export data.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// TestData returns the absolute path of the caller's testdata directory.
func TestData() string {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return dir
}

// Run loads testdata/src/<pkgpath>, applies the analyzer (including
// //lint:allow filtering), and reports mismatches against want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgpath string) {
	t.Helper()
	RunSuite(t, testdata, []*analysis.Analyzer{a}, pkgpath)
}

// RunSuite is Run for several analyzers at once — the shape allowaudit
// fixtures need, since staleness only exists relative to other analyzers
// that ran.
func RunSuite(t *testing.T, testdata string, analyzers []*analysis.Analyzer, pkgpath string) {
	t.Helper()
	target, err := newLoader(testdata).target(pkgpath)
	if err != nil {
		t.Fatalf("loading %s: %v", pkgpath, err)
	}
	diags, err := analysis.Run(target, analyzers)
	if err != nil {
		t.Fatalf("running on %s: %v", pkgpath, err)
	}
	checkWants(t, target, diags)
}

// ---- fixture loading ----

type loader struct {
	root  string // testdata dir
	fset  *token.FileSet
	cache map[string]*types.Package
	// stdExports maps stdlib import paths to export data files, filled
	// lazily by `go list -deps -export`; stdImporter resolves through it.
	stdExports  map[string]string
	stdImporter types.Importer
}

func newLoader(root string) *loader {
	ld := &loader{
		root:       root,
		fset:       token.NewFileSet(),
		cache:      make(map[string]*types.Package),
		stdExports: make(map[string]string),
	}
	ld.stdImporter = load.ExportImporter(ld.fset, ld.stdExports)
	return ld
}

// Import implements types.Importer over testdata/src first, stdlib second.
func (ld *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := ld.cache[path]; ok {
		return pkg, nil
	}
	if dir := filepath.Join(ld.root, "src", filepath.FromSlash(path)); dirExists(dir) {
		tgt, err := ld.load(path, dir)
		if err != nil {
			return nil, err
		}
		return tgt.Pkg, nil
	}
	if _, ok := ld.stdExports[path]; !ok {
		pkgs, err := load.List(ld.root, []string{path})
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			ld.stdExports[p.ImportPath] = p.Export
		}
	}
	pkg, err := ld.stdImporter.Import(path)
	if err != nil {
		return nil, err
	}
	ld.cache[path] = pkg
	return pkg, nil
}

// target loads pkgpath with full syntax and type information.
func (ld *loader) target(pkgpath string) (*analysis.Target, error) {
	dir := filepath.Join(ld.root, "src", filepath.FromSlash(pkgpath))
	if !dirExists(dir) {
		return nil, fmt.Errorf("no fixture directory %s", dir)
	}
	return ld.load(pkgpath, dir)
}

// load parses and typechecks one fixture package, caching its types for
// importers.
func (ld *loader) load(pkgpath, dir string) (*analysis.Target, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(ld.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := analysis.NewInfo()
	conf := types.Config{Importer: ld}
	pkg, err := conf.Check(pkgpath, ld.fset, files, info)
	if err != nil {
		return nil, err
	}
	ld.cache[pkgpath] = pkg
	return &analysis.Target{Path: pkgpath, Fset: ld.fset, Files: files, Pkg: pkg, Info: info}, nil
}

func dirExists(dir string) bool {
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}

// ---- want expectations ----

type expectation struct {
	rx      *regexp.Regexp
	matched bool
}

// checkWants compares diagnostics with // want comments line by line.
func checkWants(t *testing.T, target *analysis.Target, diags []analysis.Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*expectation)
	for _, f := range target.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					// A want marker may trail another annotation in the same
					// line comment (e.g. after a //lint:allow directive).
					if i := strings.Index(text, "// want "); i >= 0 {
						text = text[i+len("// "):]
					} else {
						continue
					}
				}
				pos := target.Fset.Position(c.Pos())
				patterns, err := parseWant(strings.TrimPrefix(text, "want "))
				if err != nil {
					t.Fatalf("%s:%d: malformed want comment: %v", pos.Filename, pos.Line, err)
				}
				k := key{pos.Filename, pos.Line}
				for _, p := range patterns {
					rx, err := regexp.Compile(p)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, p, err)
					}
					wants[k] = append(wants[k], &expectation{rx: rx})
				}
			}
		}
	}

	for _, d := range diags {
		pos := target.Fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		found := false
		for _, exp := range wants[k] {
			if !exp.matched && exp.rx.MatchString(d.Message) {
				exp.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: unexpected diagnostic: %s: %s", pos.Filename, pos.Line, d.Analyzer, d.Message)
		}
	}
	for k, exps := range wants {
		for _, exp := range exps {
			if !exp.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, exp.rx)
			}
		}
	}
}

// parseWant extracts the quoted regexps from a want comment body.
func parseWant(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"':
			end := -1
			for i := 1; i < len(s); i++ {
				if s[i] == '\\' {
					i++
					continue
				}
				if s[i] == '"' {
					end = i
					break
				}
			}
			if end < 0 {
				return nil, fmt.Errorf("unterminated %q", s)
			}
			lit, err := strconv.Unquote(s[:end+1])
			if err != nil {
				return nil, err
			}
			out = append(out, lit)
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated %q", s)
			}
			out = append(out, s[1:end+1])
			s = strings.TrimSpace(s[end+2:])
		default:
			return nil, fmt.Errorf("expected quoted regexp at %q", s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no patterns")
	}
	return out, nil
}
