package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Static call graph and //strings:hotpath annotations.
//
// The graph is per package and purely static: an edge exists where a call
// expression resolves through go/types to a concrete *types.Func — direct
// calls, method calls on statically typed receivers, and calls into
// imported packages. A call of a method of an interface declared in this
// package gets an edge to every method in this package that can stand behind
// it: the policy a mechanism calls through its own interface runs at the
// mechanism's frequency. Calls through function values, and interface calls
// whose interface or implementation lives in another package, have no edge;
// the hot-path analyses accept that blind spot and the DESIGN.md contract
// documents it: code invoked only through callbacks is guarded at the
// registration site, not through the graph.
//
// Annotation grammar: the directive comment
//
//	//strings:hotpath
//
// on a function declaration (part of its doc comment, no space after //)
// marks the function as a hot-path root. Everything statically reachable
// from a root — in this package, or through exported-function facts in a
// dependency — must satisfy the hotalloc contract.

const hotpathDirective = "strings:hotpath"

// funcNode is one declared function in the package's call graph.
type funcNode struct {
	fn   *types.Func
	decl *ast.FuncDecl
	// root is non-nil when the function is a //strings:hotpath root.
	root bool
	// hotVia names the root through which the function was first found
	// reachable ("" = not hot-reachable).
	hotVia string
	// locals are statically resolved callees declared in this package,
	// in call-site order.
	locals []*types.Func
	// exts are statically resolved calls into other packages.
	exts []extCall
}

type extCall struct {
	pkgPath string
	key     string // funcKey of the callee
	pos     token.Pos
	display string // "pkg.Func" / "pkg.Type.Method" for diagnostics
}

// callGraph holds every function declared in the package, in declaration
// order (file order, then position) so all iteration is deterministic.
type callGraph struct {
	nodes map[*types.Func]*funcNode
	order []*funcNode
}

// hotpathAnnotated reports whether decl carries the //strings:hotpath
// directive in its doc comment.
func hotpathAnnotated(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		if text == hotpathDirective || strings.HasPrefix(text, hotpathDirective+" ") {
			return true
		}
	}
	return false
}

// buildCallGraph constructs the package's static call graph. Test files
// are excluded: the hot-path contract covers production code.
func buildCallGraph(pass *Pass) *callGraph {
	g := &callGraph{nodes: make(map[*types.Func]*funcNode)}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func)
			if !ok {
				continue
			}
			node := &funcNode{fn: fn, decl: decl, root: hotpathAnnotated(decl)}
			g.nodes[fn] = node
			g.order = append(g.order, node)
			collectCalls(pass, node)
		}
	}
	g.markHot()
	return g
}

// collectCalls resolves every statically bound call in node's body,
// including calls inside nested function literals (a closure spawned on
// the hot path runs on the hot path).
func collectCalls(pass *Pass, node *funcNode) {
	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isPanicCall(call) {
			// The failure path is exempt from the hot-path contract, so
			// calls that only build a panic value contribute no edges.
			return false
		}
		callee := staticCallee(pass, call)
		if callee == nil {
			return true
		}
		if callee.Pkg() == pass.Pkg {
			node.locals = append(node.locals, localTargets(pass, callee)...)
			return true
		}
		if callee.Pkg() == nil {
			return true // builtins resolve to *types.Builtin, not here
		}
		node.exts = append(node.exts, extCall{
			pkgPath: callee.Pkg().Path(),
			key:     funcKey(callee),
			pos:     call.Pos(),
			display: callee.Pkg().Name() + "." + funcKey(callee),
		})
		return true
	})
}

// localTargets returns what a call resolved to fn can run in this package: fn
// itself, or, when fn is a method of an interface, that method on every named
// type of the package that implements the interface, in the scope's sorted
// name order. *T's method set holds T's, so testing *T covers both receivers.
// Generic types are skipped (Implements is unspecified before instantiation);
// a method promoted from another package's type has no node here and drops
// out like any cross-package implementation.
func localTargets(pass *Pass, fn *types.Func) []*types.Func {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || !types.IsInterface(recv.Type()) {
		return []*types.Func{fn}
	}
	iface := recv.Type().Underlying().(*types.Interface)
	var impls []*types.Func
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, _ := scope.Lookup(name).(*types.TypeName)
		if tn == nil {
			continue
		}
		named, _ := tn.Type().(*types.Named)
		if named == nil || named.TypeParams().Len() > 0 || !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		m, _, _ := types.LookupFieldOrMethod(named, true, fn.Pkg(), fn.Name())
		impls = append(impls, m.(*types.Func))
	}
	return impls
}

// staticCallee resolves call's target to a concrete *types.Func, or nil
// for indirect calls, builtins, and conversions.
func staticCallee(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.IndexExpr: // instantiated generic: f[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			if fn, ok := pass.TypesInfo.Uses[id].(*types.Func); ok {
				return fn
			}
		}
	}
	return nil
}

// markHot floods hot-reachability from the annotated roots through local
// edges, recording the witness root name on every reached node.
func (g *callGraph) markHot() {
	var queue []*funcNode
	for _, n := range g.order {
		if n.root {
			n.hotVia = displayName(n.fn)
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, callee := range n.locals {
			cn := g.nodes[callee]
			if cn == nil || cn.hotVia != "" {
				continue
			}
			cn.hotVia = n.hotVia
			queue = append(queue, cn)
		}
	}
}

// displayName renders a *types.Func for diagnostics: "Func" or
// "(*Type).Method" / "Type.Method".
func displayName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		if named, ok := p.Elem().(*types.Named); ok {
			return "(*" + named.Obj().Name() + ")." + fn.Name()
		}
	}
	if named, ok := rt.(*types.Named); ok {
		return named.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}
