package analysis

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
)

// Maporder flags map iteration whose order can leak into simulator state.
//
// Go randomizes map iteration order per run, so any map range in a
// sim-driven package that appends to a slice, sends on a channel, calls
// out to other code, or accumulates floating-point values produces
// run-to-run drift that a seed cannot pin down. The sanctioned idiom is
// collect-keys-then-sort (see Kernel.Blocked, cuda.sortedStreamIDs): the
// analyzer accepts a range whose only effect is appending to slices that
// are each passed to a sort.* / slices.* call later in the same function.
// Pure reads, counters, delete(m, k) sweeps, and min/max-free aggregation
// over integers are untouched.
var Maporder = &Analyzer{
	Name: "maporder",
	Doc: "flag map ranges in sim-driven packages whose body appends, emits, calls out, " +
		"or accumulates floats without sorting keys first; map order must never reach a scheduling decision",
	Run: runMaporder,
}

// mapRangeEffect is one body action through which iteration order could
// escape the loop.
type mapRangeEffect struct {
	kind string // "call", "send", "float"
	pos  token.Pos
	what string
}

func runMaporder(pass *Pass) error {
	if !simDriven(pass.Pkg) {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		bodies := functionBodies(f)
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRange(pass, rs, enclosingBody(bodies, rs))
			return true
		})
	}
	return nil
}

func checkMapRange(pass *Pass, rs *ast.RangeStmt, encl *ast.BlockStmt) {
	var effects []mapRangeEffect
	var appendTargets []ast.Expr

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			switch s.Tok {
			case token.ASSIGN, token.DEFINE:
				for i, rhs := range s.Rhs {
					if i < len(s.Lhs) && isBuiltinCall(pass, rhs, "append") {
						// m2[k] = append(m2[k], ...) keyed by the range key
						// is per-key bucketing: each iteration touches its
						// own entry, so order cannot escape (the index is
						// injective in the key).
						if keyedByRangeKey(pass, s.Lhs[i], rs) {
							continue
						}
						appendTargets = append(appendTargets, s.Lhs[i])
					}
				}
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if lt := pass.TypesInfo.TypeOf(s.Lhs[0]); lt != nil && isFloat(lt) && !declaredWithin(pass, s.Lhs[0], rs.Body) {
					effects = append(effects, mapRangeEffect{"float", s.Pos(), exprString(pass.Fset, s.Lhs[0])})
				}
			}
		case *ast.SendStmt:
			effects = append(effects, mapRangeEffect{"send", s.Pos(), exprString(pass.Fset, s.Chan)})
		case *ast.CallExpr:
			if isAnyBuiltinOrConversion(pass, s) {
				return true
			}
			effects = append(effects, mapRangeEffect{"call", s.Pos(), exprString(pass.Fset, s.Fun)})
		}
		return true
	})

	// The collect-then-sort idiom: every appended slice is handed to a
	// sort.* / slices.* call after the loop, and nothing else escapes.
	var unsorted []ast.Expr
	for _, tgt := range appendTargets {
		if !sortedAfter(pass, encl, rs, tgt) {
			unsorted = append(unsorted, tgt)
		}
	}

	switch {
	case len(effects) > 0:
		e := effects[0]
		switch e.kind {
		case "call":
			pass.Reportf(rs.For,
				"call to %s inside map iteration runs in map order; iterate sorted keys instead (//lint:allow maporder -- <reason> if provably order-independent)", e.what)
		case "send":
			pass.Reportf(rs.For,
				"send on %s inside map iteration emits in map order; iterate sorted keys instead (//lint:allow maporder -- <reason> if provably order-independent)", e.what)
		case "float":
			pass.Reportf(rs.For,
				"floating-point accumulation into %s over a map is order-sensitive (rounding); iterate sorted keys instead (//lint:allow maporder -- <reason> if provably order-independent)", e.what)
		}
	case len(unsorted) > 0:
		pass.Reportf(rs.For,
			"map iteration order leaks into %s, which is never sorted in this function; sort it (sort.* or slices.*) before use (//lint:allow maporder -- <reason> if provably order-independent)", exprString(pass.Fset, unsorted[0]))
	}
}

// functionBodies returns every function body in the file (decls and
// literals) for innermost-enclosing lookups.
func functionBodies(f *ast.File) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				out = append(out, fn.Body)
			}
		case *ast.FuncLit:
			out = append(out, fn.Body)
		}
		return true
	})
	return out
}

// enclosingBody picks the innermost body containing n.
func enclosingBody(bodies []*ast.BlockStmt, n ast.Node) *ast.BlockStmt {
	var best *ast.BlockStmt
	for _, b := range bodies {
		if b.Pos() <= n.Pos() && n.End() <= b.End() {
			if best == nil || (best.Pos() <= b.Pos() && b.End() <= best.End()) {
				best = b
			}
		}
	}
	return best
}

// sortedAfter reports whether target appears as (part of) an argument to a
// sort.* or slices.* call after the range statement in the enclosing body.
func sortedAfter(pass *Pass, encl *ast.BlockStmt, rs *ast.RangeStmt, target ast.Expr) bool {
	if encl == nil {
		return false
	}
	want := exprString(pass.Fset, target)
	found := false
	ast.Inspect(encl, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[sel.Sel]
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		if p := obj.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if containsExprString(pass.Fset, arg, want) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// containsExprString reports whether any subexpression of e renders as want.
func containsExprString(fset *token.FileSet, e ast.Expr, want string) bool {
	hit := false
	ast.Inspect(e, func(n ast.Node) bool {
		if hit {
			return false
		}
		if sub, ok := n.(ast.Expr); ok && exprString(fset, sub) == want {
			hit = true
			return false
		}
		return true
	})
	return hit
}

// isBuiltinCall reports whether e is a call to the named builtin.
func isBuiltinCall(pass *Pass, e ast.Expr, name string) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin
}

// isAnyBuiltinOrConversion reports whether call is a builtin invocation
// (append/len/delete/...) or a type conversion — neither can observe
// iteration order beyond its arguments.
func isAnyBuiltinOrConversion(pass *Pass, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, ok := pass.TypesInfo.Uses[fun].(*types.Builtin); ok {
			return true
		}
	}
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return true
	}
	return false
}

// keyedByRangeKey reports whether target is an index expression whose
// index is exactly the range statement's key variable.
func keyedByRangeKey(pass *Pass, target ast.Expr, rs *ast.RangeStmt) bool {
	idx, ok := ast.Unparen(target).(*ast.IndexExpr)
	if !ok {
		return false
	}
	keyID, ok := rs.Key.(*ast.Ident)
	if !ok {
		return false
	}
	idxID, ok := ast.Unparen(idx.Index).(*ast.Ident)
	if !ok {
		return false
	}
	keyObj := pass.TypesInfo.Defs[keyID]
	if keyObj == nil {
		keyObj = pass.TypesInfo.Uses[keyID]
	}
	idxObj := pass.TypesInfo.Uses[idxID]
	return keyObj != nil && keyObj == idxObj
}

// declaredWithin reports whether e is an identifier declared inside node
// (an accumulator local to the loop body cannot leak order).
func declaredWithin(pass *Pass, e ast.Expr, node ast.Node) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	if obj == nil {
		return false
	}
	return node.Pos() <= obj.Pos() && obj.Pos() <= node.End()
}

// isFloat reports whether t's underlying type is a floating-point kind.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// exprString renders a (small) expression for diagnostics.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "<expr>"
	}
	return buf.String()
}
