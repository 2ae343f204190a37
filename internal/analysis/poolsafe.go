package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Poolsafe guards the repo's object pools — the rpcproto Call/Reply pool,
// the gpu Op free list, and pooled cuda events — against the two bugs
// recycling invites:
//
//   - use-after-release: reading or writing an object after handing it back
//     to its pool. The pool may have re-issued it; the write lands in
//     someone else's request and the corruption is deterministic but
//     arbitrarily far from the cause.
//   - double-release: returning the same object twice puts it in the free
//     list twice, so two future Gets alias one object.
//
// Releases are recognized by shape: a call whose function or method name
// starts with Free, Put, Release, or Recycle taking exactly one
// pointer-typed local identifier (pool.FreeCall(c), d.recycleOp(op)), or a
// niladic Unref method call on a pointer-typed local (ev.Unref()). Tracking
// is a forward may-released dataflow over the CFG: a release gates every
// later use on every path it reaches; reassigning the variable kills the
// released state (the serve loops re-Get each iteration). Only plain local
// identifiers are tracked — releases of fields or aliased pointers are out
// of scope, deliberately, to keep the analysis alias-free and
// false-positive-free.
//
// Separately, pool-return methods themselves (names starting Free, Put, or
// Recycle with one pointer-to-struct parameter) must sanitize before
// storing: a `*p = T{}` zeroing or p.Reset() call must precede the
// statement that stores p into the pool, or stale request state leaks into
// the next tenant's Get (the paper's isolation argument assumes clean
// handoff).
var Poolsafe = &Analyzer{
	Name: "poolsafe",
	Doc: "flag use-after-release and double-release of pooled objects, and pool-return " +
		"methods that store an object without zeroing it first",
	Run: runPoolsafe,
}

// releasePrefixes are the method-name shapes that return an object to a pool.
var releasePrefixes = []string{"Free", "Put", "Release", "Recycle", "recycle"}

func runPoolsafe(pass *Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			checkPoolUse(pass, decl)
			checkPoolReset(pass, decl)
		}
	}
	return nil
}

// releaseState maps a tracked variable to the position of the release that
// may have reached this point.
type releaseState map[*types.Var]token.Pos

func cloneRelease(s releaseState) releaseState {
	out := make(releaseState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// joinRelease unions may-released sets, keeping the earliest release site
// per variable for stable diagnostics.
func joinRelease(dst, src releaseState) (releaseState, bool) {
	changed := false
	for k, v := range src {
		if old, ok := dst[k]; !ok || v < old {
			dst[k] = v
			changed = true
		}
	}
	return dst, changed
}

// checkPoolUse runs the use-after-release / double-release dataflow over
// one function body.
func checkPoolUse(pass *Pass, decl *ast.FuncDecl) {
	// Only functions that release something need the dataflow.
	tracked := make(map[*types.Var]bool)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if v := releasedVar(pass, decl, call); v != nil {
			tracked[v] = true
		}
		return true
	})
	if len(tracked) == 0 {
		return
	}

	g := BuildCFG(decl.Body)
	in := ForwardFixpoint(g, releaseState{}, cloneRelease, joinRelease,
		func(b *Block, s releaseState) releaseState {
			s = cloneRelease(s)
			for _, n := range b.Nodes {
				poolTransfer(pass, decl, tracked, n, s, nil)
			}
			return s
		})

	// Single reporting pass, deduplicated by (use position, variable).
	type key struct {
		pos token.Pos
		v   *types.Var
	}
	seen := make(map[key]bool)
	var reports []func()
	report := func(pos token.Pos, format string, args ...any) {
		reports = append(reports, func() { pass.Reportf(pos, format, args...) })
	}
	for _, b := range g.Blocks {
		s, ok := in[b]
		if !ok {
			continue // unreachable
		}
		s = cloneRelease(s)
		for _, n := range b.Nodes {
			poolTransfer(pass, decl, tracked, n, s, func(pos token.Pos, v *types.Var, double bool) {
				k := key{pos, v}
				if seen[k] {
					return
				}
				seen[k] = true
				rel := pass.Fset.Position(s[v])
				if double {
					report(pos, "%s released again after release at %s:%d (double-release re-pools an object twice)",
						v.Name(), shortPath(rel.Filename), rel.Line)
				} else {
					report(pos, "use of %s after its release at %s:%d (the pool may have re-issued it)",
						v.Name(), shortPath(rel.Filename), rel.Line)
				}
			})
		}
	}
	for _, r := range reports {
		r()
	}
}

// poolTransfer interprets one CFG node against the released-set, reporting
// through onBug when non-nil. It mutates s in place.
func poolTransfer(pass *Pass, decl *ast.FuncDecl, tracked map[*types.Var]bool, n ast.Node, s releaseState, onBug func(pos token.Pos, v *types.Var, double bool)) {
	switch n := n.(type) {
	case *ast.DeferStmt:
		// Deferred releases run at function exit; treating them as firing
		// in place would poison every later use.
		return
	case *ast.AssignStmt:
		for _, r := range n.Rhs {
			poolWalkUses(pass, decl, tracked, r, s, onBug)
		}
		for _, l := range n.Lhs {
			if id, ok := ast.Unparen(l).(*ast.Ident); ok {
				if v := objOf(pass, id); v != nil && tracked[v] {
					delete(s, v) // redefinition revives the variable
					continue
				}
			}
			poolWalkUses(pass, decl, tracked, l, s, onBug)
		}
		return
	case RangeHeader:
		poolWalkUses(pass, decl, tracked, n.X, s, onBug)
		// The key/value variables are rebound every iteration, so a release
		// in the previous iteration does not survive the back edge.
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if id, ok := e.(*ast.Ident); ok {
				if v := objOf(pass, id); v != nil {
					delete(s, v)
				}
			}
		}
		return
	}
	poolWalkUses(pass, decl, tracked, n, s, onBug)
}

// poolWalkUses walks an expression/statement fragment, handling release
// calls and flagging uses of released variables.
func poolWalkUses(pass *Pass, decl *ast.FuncDecl, tracked map[*types.Var]bool, root ast.Node, s releaseState, onBug func(pos token.Pos, v *types.Var, double bool)) {
	if root == nil {
		return
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // closure body runs under unknown state
		case *ast.CallExpr:
			if v := releasedVar(pass, decl, n); v != nil {
				if _, already := s[v]; already {
					if onBug != nil {
						onBug(n.Pos(), v, true)
					}
				} else {
					s[v] = n.Pos()
				}
				return false // the arg ident is the release, not a use
			}
		case *ast.Ident:
			v := objOf(pass, n)
			if v == nil || !tracked[v] {
				return true
			}
			if _, released := s[v]; released && onBug != nil {
				onBug(n.Pos(), v, false)
			}
		}
		return true
	})
}

// releasedVar reports the local variable a call releases, or nil when the
// call is not a recognized release of a plain local identifier.
func releasedVar(pass *Pass, decl *ast.FuncDecl, call *ast.CallExpr) *types.Var {
	name, recv := calleeNameAndRecv(call)
	if name == "" {
		return nil
	}
	if name == "Unref" && len(call.Args) == 0 && recv != nil {
		return localPtrVar(pass, decl, recv)
	}
	if !hasReleasePrefix(name) || len(call.Args) != 1 {
		return nil
	}
	return localPtrVar(pass, decl, call.Args[0])
}

// calleeNameAndRecv extracts a call's bare function/method name and, for
// method calls, the receiver expression.
func calleeNameAndRecv(call *ast.CallExpr) (string, ast.Expr) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name, nil
	case *ast.SelectorExpr:
		return fun.Sel.Name, fun.X
	}
	return "", nil
}

func hasReleasePrefix(name string) bool {
	for _, p := range releasePrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// localPtrVar resolves e to a pointer-typed variable declared within decl
// (parameter or local), or nil.
func localPtrVar(pass *Pass, decl *ast.FuncDecl, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v := objOf(pass, id)
	if v == nil || v.IsField() {
		return nil
	}
	if _, ok := v.Type().Underlying().(*types.Pointer); !ok {
		return nil
	}
	if v.Pos() < decl.Pos() || v.Pos() > decl.End() {
		return nil // package-level or captured from elsewhere
	}
	return v
}

// checkPoolReset enforces the sanitize-before-store contract on
// pool-return methods: Free*/Put*/Recycle* with a single pointer-to-struct
// parameter must zero or Reset the object before the statement that stores
// it into the pool.
func checkPoolReset(pass *Pass, decl *ast.FuncDecl) {
	name := decl.Name.Name
	if !hasReleasePrefix(name) {
		return
	}
	params := decl.Type.Params
	if params == nil || len(params.List) != 1 || len(params.List[0].Names) != 1 {
		return
	}
	pv := objOf(pass, params.List[0].Names[0])
	if pv == nil {
		return
	}
	ptr, ok := pv.Type().Underlying().(*types.Pointer)
	if !ok {
		return
	}
	if _, ok := ptr.Elem().Underlying().(*types.Struct); !ok {
		return
	}

	var resetPos, storePos token.Pos = token.NoPos, token.NoPos
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// *p = T{} zeroing.
			for i, l := range n.Lhs {
				star, ok := ast.Unparen(l).(*ast.StarExpr)
				if !ok {
					continue
				}
				if id, ok := ast.Unparen(star.X).(*ast.Ident); ok && objOf(pass, id) == pv {
					if i < len(n.Rhs) {
						if _, isLit := ast.Unparen(n.Rhs[i]).(*ast.CompositeLit); isLit {
							if resetPos == token.NoPos {
								resetPos = n.Pos()
							}
						}
					}
				}
			}
		case *ast.CallExpr:
			if nm, recv := calleeNameAndRecv(n); nm == "Reset" && recv != nil {
				if id, ok := ast.Unparen(recv).(*ast.Ident); ok && objOf(pass, id) == pv {
					if resetPos == token.NoPos {
						resetPos = n.Pos()
					}
				}
			}
		}
		if storePos == token.NoPos {
			if p := poolStoreOf(pass, n, pv); p != token.NoPos {
				storePos = p
			}
		}
		return true
	})
	if storePos != token.NoPos && (resetPos == token.NoPos || resetPos > storePos) {
		pass.Reportf(storePos,
			"%s stores %s into a pool without zeroing it first; add *%s = %s{} or %s.Reset() before the store so no request state leaks to the next Get",
			name, pv.Name(), pv.Name(), typeName(ptr.Elem()), pv.Name())
	}
}

// poolStoreOf reports the position at which node stores pv into a pool
// structure: appended (non-first argument) to a slice, sent on a channel,
// or assigned through an index/field.
func poolStoreOf(pass *Pass, n ast.Node, pv *types.Var) token.Pos {
	isPV := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && objOf(pass, id) == pv
	}
	switch n := n.(type) {
	case *ast.CallExpr:
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
				for _, a := range n.Args[1:] {
					if isPV(a) {
						return n.Pos()
					}
				}
			}
		}
	case *ast.SendStmt:
		if isPV(n.Value) {
			return n.Pos()
		}
	case *ast.AssignStmt:
		for i, r := range n.Rhs {
			if !isPV(r) || i >= len(n.Lhs) {
				continue
			}
			switch ast.Unparen(n.Lhs[i]).(type) {
			case *ast.IndexExpr, *ast.SelectorExpr:
				return n.Pos()
			}
		}
	}
	return token.NoPos
}

// shortPath trims a filename to its final two path segments for compact
// diagnostics.
func shortPath(p string) string {
	parts := strings.Split(p, "/")
	if len(parts) <= 2 {
		return p
	}
	return strings.Join(parts[len(parts)-2:], "/")
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
