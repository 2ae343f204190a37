package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Hotalloc enforces the hot-path allocation contract: no unjustified
// heap-allocating construct in any function statically reachable from a
// //strings:hotpath root.
//
// The alloc budget (TestAllocBudgetPerEvent, ≤0.05 allocs/event) is the
// repo's most fragile perf invariant: one careless escaping literal or
// growing append erodes it silently until a benchmark regresses. Hotalloc
// makes the budget un-regressable at review time. Flagged constructs:
//
//   - escaping composite literals, &T{...}, new(T)
//   - make of maps and channels (always heap) and escaping slice makes
//   - append that can grow an escaping or field-held slice (in-place
//     splices `s = append(s[:i], s[i+1:]...)` are exempt: the reslice
//     proves the write stays within the existing backing array)
//   - escaping closures that capture outer variables
//   - interface boxing of non-pointer values at call sites and conversions
//   - any fmt.* call
//   - calls into dependency functions whose exported fact says they may
//     allocate (cross-package reachability via facts.go)
//
// Anything inside a panic(...) argument is exempt: the failure path may
// allocate freely, including the fmt call that builds the message.
//
// Deliberate amortized allocation — pool grow-on-miss, pre-sized slice
// growth — carries //lint:allow hotalloc -- <reason> at the site; the
// suppression also keeps the site out of the function's exported alloc
// fact, so sanctioning a site once sanctions it for every caller.
// A call of a method of an interface declared in the package is followed
// into the package's implementations of it (callgraph.go). Calls through
// function values, and interface calls that cross a package boundary, are
// outside the static graph; hot paths crossing such a boundary annotate the
// callee's implementation as its own root.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc: "forbid unjustified heap allocation in functions reachable from a //strings:hotpath root; " +
		"the alloc-budget contract (≤0.05 allocs/event) depends on it",
	Run: runHotalloc,
}

// An allocSite is one heap-allocating construct inside a function.
type allocSite struct {
	pos  token.Pos
	what string
}

func runHotalloc(pass *Pass) error {
	g := buildCallGraph(pass)

	sites := make(map[*funcNode][]allocSite, len(g.order))
	hasLiveSite := make(map[*funcNode]bool, len(g.order))
	liveExtAlloc := make(map[*funcNode]bool, len(g.order))
	for _, n := range g.order {
		ss := collectAllocSites(pass, n.decl)
		sites[n] = ss
		for _, s := range ss {
			// A lint:allow on the site sanctions it for fact purposes too:
			// the function does not poison its callers' alloc facts.
			if !pass.Allowed(s.pos) {
				hasLiveSite[n] = true
			}
		}
		for _, e := range n.exts {
			if f := pass.DepFacts(e.pkgPath); f != nil && f.Alloc[e.key] && !pass.Allowed(e.pos) {
				liveExtAlloc[n] = true
			}
		}
	}

	// Transitive may-allocate over the local call graph.
	allocates := make(map[*funcNode]bool, len(g.order))
	for changed := true; changed; {
		changed = false
		for _, n := range g.order {
			if allocates[n] {
				continue
			}
			poisoned := hasLiveSite[n] || liveExtAlloc[n]
			if !poisoned {
				for _, callee := range n.locals {
					if cn := g.nodes[callee]; cn != nil && allocates[cn] {
						poisoned = true
						break
					}
				}
			}
			if poisoned {
				allocates[n] = true
				changed = true
			}
		}
	}

	// Export facts for dependents.
	for _, n := range g.order {
		if !n.fn.Exported() {
			continue
		}
		if allocates[n] {
			pass.ExportAlloc(funcKey(n.fn))
		}
		if n.hotVia != "" {
			pass.ExportHot(funcKey(n.fn))
		}
	}

	// Report every site in every hot-reachable function. Allowed sites are
	// reported too and dropped by the framework filter, which is what
	// marks their directives live for allowaudit.
	for _, n := range g.order {
		if n.hotVia == "" {
			continue
		}
		for _, s := range sites[n] {
			pass.Reportf(s.pos,
				"%s on the hot path (%s is reachable from //strings:hotpath root %s); hoist it, pool it, or justify with //lint:allow hotalloc -- <reason>",
				s.what, displayName(n.fn), n.hotVia)
		}
		for _, e := range n.exts {
			f := pass.DepFacts(e.pkgPath)
			if f == nil || !f.Alloc[e.key] {
				continue
			}
			pass.Reportf(e.pos,
				"call to %s may heap-allocate (exported fact) on the hot path (%s is reachable from //strings:hotpath root %s); use a non-allocating API or justify with //lint:allow hotalloc -- <reason>",
				e.display, displayName(n.fn), n.hotVia)
		}
	}
	return nil
}

// collectAllocSites walks one function body for heap-allocating
// constructs. Function-literal bodies are included: a closure defined on
// the hot path is assumed to run on it.
func collectAllocSites(pass *Pass, decl *ast.FuncDecl) []allocSite {
	parents := buildParents(decl.Body)
	var sites []allocSite
	add := func(pos token.Pos, format string, args ...any) {
		sites = append(sites, allocSite{pos: pos, what: fmt.Sprintf(format, args...)})
	}

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		// The failure path is exempt wholesale: a panic tears the run down,
		// so the fmt.Sprintf / boxing that builds its message cannot erode
		// the steady-state alloc budget.
		if call, ok := n.(*ast.CallExpr); ok && isPanicCall(call) {
			return false
		}
		switch n := n.(type) {
		case *ast.CompositeLit:
			// &T{...} is handled at the UnaryExpr; a bare slice/map literal
			// allocates its backing store when it escapes.
			if p, ok := parents[n].(*ast.UnaryExpr); ok && p.Op == token.AND {
				return true
			}
			switch pass.TypesInfo.TypeOf(n).Underlying().(type) {
			case *types.Slice, *types.Map:
				if exprEscapes(pass, parents, decl, n) {
					add(n.Pos(), "escaping %s literal allocates its backing store", typeKindWord(pass.TypesInfo.TypeOf(n)))
				}
			}
		case *ast.UnaryExpr:
			if n.Op != token.AND {
				return true
			}
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); !ok {
				return true
			}
			if exprEscapes(pass, parents, decl, n) {
				add(n.Pos(), "escaping &%s{...} literal heap-allocates", typeName(pass.TypesInfo.TypeOf(n.X)))
			}
		case *ast.CallExpr:
			collectCallSites(pass, parents, decl, n, add)
		case *ast.FuncLit:
			if funcLitEscapes(parents, n) && capturesOuter(pass, n) {
				add(n.Pos(), "escaping closure captures outer variables and heap-allocates")
			}
		}
		return true
	})
	return sites
}

// collectCallSites handles the call-shaped constructs: builtins (new,
// make, append), fmt.*, and interface boxing of arguments.
func collectCallSites(pass *Pass, parents map[ast.Node]ast.Node, decl *ast.FuncDecl, call *ast.CallExpr, add func(token.Pos, string, ...any)) {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "new":
				if exprEscapes(pass, parents, decl, call) {
					add(call.Pos(), "escaping new(%s) heap-allocates", exprString(pass.Fset, call.Args[0]))
				}
			case "make":
				switch pass.TypesInfo.TypeOf(call).Underlying().(type) {
				case *types.Map, *types.Chan:
					add(call.Pos(), "make(%s) heap-allocates", exprString(pass.Fset, call.Args[0]))
				case *types.Slice:
					if exprEscapes(pass, parents, decl, call) {
						add(call.Pos(), "escaping make(%s) heap-allocates", exprString(pass.Fset, call.Args[0]))
					}
				}
			case "append":
				collectAppendSite(pass, parents, decl, call, add)
			}
			return
		}
	}

	// fmt.* and interface boxing need the callee's package / signature.
	if callee := staticCallee(pass, call); callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
		add(call.Pos(), "fmt.%s call allocates its formatting state", callee.Name())
		return // fmt's ...any boxing is subsumed by the call diagnostic
	}
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		// Conversion: T(v) with T interface boxes v.
		if tv, isType := pass.TypesInfo.Types[call.Fun]; isType && tv.IsType() && len(call.Args) == 1 {
			if boxes(tv.Type, pass.TypesInfo.TypeOf(call.Args[0])) {
				add(call.Pos(), "conversion boxes %s into an interface", exprString(pass.Fset, call.Args[0]))
			}
		}
		return
	}
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case i < sig.Params().Len()-1 || (i == sig.Params().Len()-1 && !sig.Variadic()):
			param = sig.Params().At(i).Type()
		case sig.Variadic():
			last := sig.Params().At(sig.Params().Len() - 1).Type()
			if sl, ok := last.(*types.Slice); ok {
				param = sl.Elem()
			}
			if call.Ellipsis != token.NoPos && i == sig.Params().Len()-1 {
				param = nil // s... passes the slice through, no boxing
			}
		}
		if param == nil {
			continue
		}
		if boxes(param, pass.TypesInfo.TypeOf(arg)) {
			add(arg.Pos(), "argument %s boxes into interface parameter and heap-allocates", exprString(pass.Fset, arg))
		}
	}
}

// collectAppendSite flags appends that can grow a heap-visible slice.
func collectAppendSite(pass *Pass, parents map[ast.Node]ast.Node, decl *ast.FuncDecl, call *ast.CallExpr, add func(token.Pos, string, ...any)) {
	if len(call.Args) == 0 {
		return
	}
	// The in-place splice idiom: append onto an explicit reslice never
	// outgrows the backing array it proves exists.
	if _, ok := ast.Unparen(call.Args[0]).(*ast.SliceExpr); ok {
		return
	}
	// Find the destination: x = append(x, ...) / x := append(...).
	as, ok := parents[call].(*ast.AssignStmt)
	if !ok {
		// append used as a bare expression (argument, return): its result
		// escapes by construction.
		add(call.Pos(), "append result escapes and may grow its backing array")
		return
	}
	var dst ast.Expr
	for i, rhs := range as.Rhs {
		if ast.Unparen(rhs) == call && i < len(as.Lhs) {
			dst = as.Lhs[i]
		}
	}
	if dst == nil {
		return
	}
	switch d := ast.Unparen(dst).(type) {
	case *ast.Ident:
		if d.Name == "_" {
			return
		}
		if varEscapes(pass, parents, decl, objOf(pass, d)) {
			add(call.Pos(), "append may grow escaping slice %s", d.Name)
		}
	default:
		// Field, index, or dereference destination: heap-visible.
		add(call.Pos(), "append may grow heap-held slice %s", exprString(pass.Fset, dst))
	}
}

// boxes reports whether assigning a value of type src to a destination of
// type dst stores a concrete value in an interface, which heap-allocates
// for non-pointer-shaped values.
func boxes(dst, src types.Type) bool {
	if dst == nil || src == nil {
		return false
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return false
	}
	if _, ok := src.Underlying().(*types.Interface); ok {
		return false // interface-to-interface: no new allocation
	}
	switch src.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false // pointer-shaped: fits the iface data word
	}
	if b, ok := src.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return true
}

// ---- escape approximation ----

// buildParents maps every node under root to its parent.
func buildParents(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// exprEscapes approximates whether the value of expression e outlives the
// enclosing function frame. The analysis follows the expression up through
// its parents and, when the value lands in a local variable, scans that
// variable's uses. It is deliberately conservative: anything unclear
// escapes.
func exprEscapes(pass *Pass, parents map[ast.Node]ast.Node, decl *ast.FuncDecl, e ast.Node) bool {
	for {
		p := parents[e]
		switch p := p.(type) {
		case *ast.ParenExpr:
			e = p
			continue
		case *ast.KeyValueExpr, *ast.CompositeLit, *ast.UnaryExpr:
			// Part of a larger literal / address-of: escape iff it does.
			e = p
			continue
		case *ast.ReturnStmt:
			return true
		case *ast.CallExpr:
			if ast.Unparen(p.Fun) == e {
				return false // being called, not passed
			}
			if id, ok := ast.Unparen(p.Fun).(*ast.Ident); ok {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					switch id.Name {
					case "len", "cap", "delete":
						return false
					}
				}
			}
			return true // handed to a callee (or conversion feeding one)
		case *ast.AssignStmt:
			return assignEscapes(pass, parents, decl, p, e)
		case *ast.ValueSpec:
			for i, v := range p.Values {
				if ast.Unparen(v) == e || v == e {
					if i < len(p.Names) {
						return varEscapes(pass, parents, decl, objOf(pass, p.Names[i]))
					}
				}
			}
			return true
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.SliceExpr, *ast.StarExpr:
			return false // locally dissected, not stored
		case *ast.RangeStmt:
			return false // ranged over in place
		case *ast.ExprStmt:
			return false
		case *ast.SendStmt:
			return true
		case *ast.BinaryExpr:
			return false // compared / combined by value
		case *ast.IfStmt, *ast.ForStmt, *ast.SwitchStmt, *ast.CaseClause:
			return false // condition position
		case nil:
			return true
		default:
			return true
		}
	}
}

// assignEscapes resolves the escape of rhs through its assignment
// destination.
func assignEscapes(pass *Pass, parents map[ast.Node]ast.Node, decl *ast.FuncDecl, as *ast.AssignStmt, rhs ast.Node) bool {
	// Multi-value RHS (x, y := f()) never carries a literal; positionally
	// match single assignments.
	for i, r := range as.Rhs {
		if r != rhs && ast.Unparen(r) != rhs {
			continue
		}
		if i >= len(as.Lhs) {
			return true
		}
		switch d := ast.Unparen(as.Lhs[i]).(type) {
		case *ast.Ident:
			if d.Name == "_" {
				return false
			}
			return varEscapes(pass, parents, decl, objOf(pass, d))
		default:
			return true // stored through a field, index, or pointer
		}
	}
	return true
}

// varEscapes scans the whole function body for uses of v that let its
// value outlive the frame: returned, passed to a call, sent, stored into a
// heap-visible location, address-taken, copied to another variable, or
// captured by a function literal. A destination that is not a local of
// this function (package-level variable, captured outer local) is itself
// an escape.
func varEscapes(pass *Pass, parents map[ast.Node]ast.Node, decl *ast.FuncDecl, v *types.Var) bool {
	if v == nil || v.Pos() < decl.Pos() || v.Pos() > decl.End() {
		return true
	}
	escaped := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if escaped {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || objOf(pass, id) != v {
			return true
		}
		if capturedByLit(parents, id, v) {
			escaped = true
			return false
		}
		switch p := parents[id].(type) {
		case *ast.ReturnStmt, *ast.SendStmt:
			escaped = true
		case *ast.UnaryExpr:
			if p.Op == token.AND {
				escaped = true
			}
		case *ast.CallExpr:
			if ast.Unparen(p.Fun) == ast.Expr(id) {
				return true // calling it
			}
			// First argument of append does not escape the slice var
			// itself; every other argument position hands the value away.
			if bid, ok := ast.Unparen(p.Fun).(*ast.Ident); ok {
				if _, isBuiltin := pass.TypesInfo.Uses[bid].(*types.Builtin); isBuiltin {
					if bid.Name == "append" && len(p.Args) > 0 && ast.Unparen(p.Args[0]) == ast.Expr(id) {
						return true
					}
					switch bid.Name {
					case "len", "cap", "delete", "copy":
						return true
					}
				}
			}
			escaped = true
		case *ast.AssignStmt:
			// v on the RHS copied somewhere: escape unless the target is
			// v itself (x = append(x, ...) handled at the append) or _.
			for i, r := range p.Rhs {
				if ast.Unparen(r) != ast.Expr(id) {
					continue
				}
				if i < len(p.Lhs) {
					if d, ok := ast.Unparen(p.Lhs[i]).(*ast.Ident); ok && (d.Name == "_" || objOf(pass, d) == v) {
						continue
					}
				}
				escaped = true
			}
		case *ast.KeyValueExpr, *ast.CompositeLit:
			escaped = true // embedded into another literal
		}
		return !escaped
	})
	return escaped
}

// capturedByLit reports whether the identifier use sits inside a function
// literal while v is declared outside it.
func capturedByLit(parents map[ast.Node]ast.Node, id *ast.Ident, v *types.Var) bool {
	for n := parents[id]; n != nil; n = parents[n] {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			continue
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			return true
		}
	}
	return false
}

// funcLitEscapes reports whether the literal outlives its creation point:
// immediately invoked and directly deferred/spawned literals do not
// allocate a closure that survives the statement.
func funcLitEscapes(parents map[ast.Node]ast.Node, lit *ast.FuncLit) bool {
	p := parents[lit]
	if call, ok := p.(*ast.CallExpr); ok && ast.Unparen(call.Fun) == ast.Expr(lit) {
		switch parents[call].(type) {
		case *ast.ExprStmt, *ast.DeferStmt, *ast.GoStmt:
			return false // func(){...}() / defer func(){...}()
		}
		return false
	}
	return true
}

// capturesOuter reports whether the literal references variables declared
// outside itself.
func capturesOuter(pass *Pass, lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captures {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captures = true
		}
		return true
	})
	return captures
}

// objOf resolves an identifier to its variable object (use or def).
func objOf(pass *Pass, id *ast.Ident) *types.Var {
	if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}

// typeName renders a type tersely for diagnostics.
func typeName(t types.Type) string {
	if t == nil {
		return "?"
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// typeKindWord says "slice" or "map" for the literal diagnostic.
func typeKindWord(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "composite"
}
