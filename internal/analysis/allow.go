package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Suppression comments have the form
//
//	//lint:allow <analyzer>[,<analyzer>...] [-- reason]
//	/* lint:allow <analyzer>[,<analyzer>...] [-- reason] */
//
// and silence the named analyzers on the lines the comment spans plus the
// line directly below it (so the comment can sit at the end of the
// offending line or on its own line above it). The reason after "--" is
// free text; writing one is required by the allowaudit analyzer — the
// suppression is a claim that a determinism or protocol rule provably does
// not apply, and the claim must be auditable. allowaudit also reports
// suppressions naming unknown analyzers and stale suppressions that no
// longer mask any diagnostic.

const allowPrefix = "lint:allow"

// An AllowDirective is one parsed lint:allow comment.
type AllowDirective struct {
	Pos       token.Pos
	File      string
	Line      int // first line the directive covers (the comment's own)
	EndLine   int // last covered line: comment end + 1
	Names     []string
	HasReason bool

	// used records, per analyzer name, whether the directive suppressed at
	// least one diagnostic this run.
	used map[string]bool
}

// markUsed records that the directive did real work for analyzer name.
func (d *AllowDirective) markUsed(name string) {
	if d.used == nil {
		d.used = make(map[string]bool)
	}
	d.used[name] = true
}

// covers reports whether the directive suppresses analyzer name for a
// diagnostic at the given file position.
func (d *AllowDirective) covers(file string, line int, name string) bool {
	if d.File != file || line < d.Line || line > d.EndLine {
		return false
	}
	for _, n := range d.Names {
		if n == name || n == "all" {
			return true
		}
	}
	return false
}

// collectAllowDirectives parses every lint:allow comment in files, both
// line (//) and block (/* */) forms, in position order.
func collectAllowDirectives(fset *token.FileSet, files []*ast.File) []*AllowDirective {
	var out []*AllowDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				switch {
				case strings.HasPrefix(text, "//"):
					text = strings.TrimPrefix(text, "//")
				case strings.HasPrefix(text, "/*"):
					text = strings.TrimPrefix(text, "/*")
					text = strings.TrimSuffix(text, "*/")
				}
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				// An embedded " // " ends the directive: what follows is an
				// ordinary trailing comment, not part of the reason.
				if i := strings.Index(text, " // "); i >= 0 {
					text = strings.TrimSpace(text[:i])
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
				hasReason := false
				if i := strings.Index(rest, "--"); i >= 0 {
					hasReason = strings.TrimSpace(rest[i+2:]) != ""
					rest = strings.TrimSpace(rest[:i])
				}
				start := fset.Position(c.Pos())
				end := fset.Position(c.End())
				d := &AllowDirective{
					Pos:       c.Pos(),
					File:      start.Filename,
					Line:      start.Line,
					EndLine:   end.Line + 1,
					HasReason: hasReason,
				}
				for _, name := range strings.FieldsFunc(rest, func(r rune) bool {
					return r == ',' || r == ' ' || r == '\t'
				}) {
					d.Names = append(d.Names, name)
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// filterAllowed drops diagnostics covered by a matching directive, marking
// each directive that does the suppressing.
func filterAllowed(fset *token.FileSet, directives []*AllowDirective, diags []Diagnostic) []Diagnostic {
	if len(diags) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, diag := range diags {
		pos := fset.Position(diag.Pos)
		suppressed := false
		for _, d := range directives {
			if d.covers(pos.Filename, pos.Line, diag.Analyzer) {
				d.markUsed(diag.Analyzer)
				suppressed = true
				// Keep scanning: overlapping directives naming the same
				// analyzer all legitimately claim the suppression.
			}
		}
		if !suppressed {
			kept = append(kept, diag)
		}
	}
	return kept
}
