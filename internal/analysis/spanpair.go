package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Spanpair checks that every trace span is ended on every path out of the
// function that opened it. The trace layer (internal/trace) is the
// simulator's audit record: a span opened by Begin and never passed to End
// renders as a forever-open interval in the Chrome trace export and breaks
// the decision-audit pairing that PR 5 pinned with golden files.
//
// Recognition is type-directed: a call whose single result is a named type
// called SpanID opens a span, binding it to the local it is assigned to; a
// call to a method named End taking that local closes it; SetGID, Event,
// and Annotate use the ID without consuming it. Passing the ID to any
// other call, returning it, or storing it into a field transfers ownership
// out of the function, and the obligation moves with it — the analyzer
// stops tracking. A deferred End discharges the obligation on every exit,
// including panic paths, which is the recommended shape for functions with
// more than one return.
//
// The check is a forward may-open dataflow over the CFG: the union join
// means a span closed on one branch but not the other is still open at the
// merge, and anything open at the synthetic Exit block — which return,
// fall-off-the-end, and explicit panic edges all reach — is reported at
// its Begin.
var Spanpair = &Analyzer{
	Name: "spanpair",
	Doc: "every trace span Begin must reach an End (or deferred End) on all control-flow exits; " +
		"unmatched spans corrupt the audit trail and trace export",
	Run: runSpanpair,
}

// spanNeutral are methods that consume a SpanID argument without closing
// or taking ownership of the span.
var spanNeutral = map[string]bool{"SetGID": true, "Event": true, "Annotate": true}

func runSpanpair(pass *Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			checkSpans(pass, decl)
		}
	}
	return nil
}

// spanState maps an open span variable to the position of its Begin.
type spanState map[*types.Var]token.Pos

func cloneSpans(s spanState) spanState {
	out := make(spanState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func joinSpans(dst, src spanState) (spanState, bool) {
	changed := false
	for k, v := range src {
		if old, ok := dst[k]; !ok || v < old {
			dst[k] = v
			changed = true
		}
	}
	return dst, changed
}

func checkSpans(pass *Pass, decl *ast.FuncDecl) {
	// Fast path: skip functions with no span-opening call.
	opens := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isSpanOpen(pass, call) {
			opens = true
		}
		return !opens
	})
	if !opens {
		return
	}

	g := BuildCFG(decl.Body)

	// Deferred Ends discharge obligations on every exit.
	deferredEnd := make(map[*types.Var]bool)
	for _, ds := range g.Defers {
		if v := spanEndArg(pass, ds.Call); v != nil {
			deferredEnd[v] = true
		}
	}

	var dropped []token.Pos // Begin results never bound to a variable
	transfer := func(b *Block, s spanState) spanState {
		s = cloneSpans(s)
		for _, n := range b.Nodes {
			spanTransfer(pass, n, s, nil)
		}
		return s
	}
	in := ForwardFixpoint(g, spanState{}, cloneSpans, joinSpans, transfer)

	// Collect discarded Begins in one reporting sweep (dedup inherent: one
	// pass over each block).
	for _, b := range g.Blocks {
		s, ok := in[b]
		if !ok {
			continue
		}
		s = cloneSpans(s)
		for _, n := range b.Nodes {
			spanTransfer(pass, n, s, func(pos token.Pos) { dropped = append(dropped, pos) })
		}
	}

	exitState, ok := in[g.Exit]
	if ok {
		type open struct {
			v   *types.Var
			pos token.Pos
		}
		var opensAtExit []open
		for v, pos := range exitState {
			if !deferredEnd[v] {
				opensAtExit = append(opensAtExit, open{v, pos})
			}
		}
		sort.Slice(opensAtExit, func(i, j int) bool { return opensAtExit[i].pos < opensAtExit[j].pos })
		for _, o := range opensAtExit {
			pass.Reportf(o.pos,
				"span %s is not ended on every path out of %s; call End on each exit or defer it",
				o.v.Name(), decl.Name.Name)
		}
	}
	sort.Slice(dropped, func(i, j int) bool { return dropped[i] < dropped[j] })
	for _, pos := range dropped {
		pass.Reportf(pos, "span opened and immediately discarded; bind the SpanID and End it")
	}
}

// spanTransfer interprets one CFG node against the open-span set. onDrop,
// when non-nil, receives Begin calls whose SpanID is discarded.
func spanTransfer(pass *Pass, n ast.Node, s spanState, onDrop func(token.Pos)) {
	switch n := n.(type) {
	case *ast.DeferStmt:
		return // handled via g.Defers at exit
	case *ast.AssignStmt:
		for i, r := range n.Rhs {
			if _, local := ast.Unparen(n.Lhs[i]).(*ast.Ident); !local {
				spanEscape(pass, r, s) // stored into a field or an element: ownership moves with it
				continue
			}
			call, ok := ast.Unparen(r).(*ast.CallExpr)
			if ok && isSpanOpen(pass, call) && i < len(n.Lhs) {
				if id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok {
					if v := objOf(pass, id); v != nil {
						s[v] = call.Pos()
						continue
					}
				}
				if onDrop != nil {
					onDrop(call.Pos())
				}
				continue
			}
			spanWalkUses(pass, r, s)
		}
		// Non-Begin assignment to a tracked var: ownership moved in from
		// elsewhere or the ID was overwritten; stop tracking the old span
		// is NOT safe — overwriting an open span loses it. Keep it open:
		// the Begin position still reports if never ended.
		return
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			spanEscape(pass, r, s)
		}
		return
	case RangeHeader:
		spanWalkUses(pass, n.X, s)
		return
	}
	spanWalkUses(pass, n, s, onDrop)
}

// spanWalkUses walks a fragment handling End (close), neutral uses, and
// ownership transfers. A Begin in expression position (not the RHS of an
// assignment) is a discarded span.
func spanWalkUses(pass *Pass, root ast.Node, s spanState, onDrop ...func(token.Pos)) {
	if root == nil {
		return
	}
	var drop func(token.Pos)
	if len(onDrop) > 0 && onDrop[0] != nil {
		drop = onDrop[0]
	}
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false
			}
			return true
		}
		if isSpanOpen(pass, call) {
			if drop != nil {
				drop(call.Pos())
			}
			return false
		}
		if v := spanEndArg(pass, call); v != nil {
			delete(s, v)
			return false
		}
		name, _ := calleeNameAndRecv(call)
		if spanNeutral[name] {
			return false // uses the ID, obligation unchanged
		}
		// Any other call receiving a tracked ID takes ownership.
		for _, a := range call.Args {
			spanEscape(pass, a, s)
		}
		return true
	})
}

// spanEscape untracks span variables referenced by e: their obligation
// transferred to the receiver.
func spanEscape(pass *Pass, e ast.Expr, s spanState) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v := objOf(pass, id); v != nil {
				delete(s, v)
			}
		}
		return true
	})
}

// isSpanOpen reports whether call returns a single value of a named type
// called SpanID — the open-span signature.
func isSpanOpen(pass *Pass, call *ast.CallExpr) bool {
	t := pass.TypesInfo.TypeOf(call)
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "SpanID"
}

// spanEndArg reports the local span variable closed by call: a method
// named End whose sole argument is a plain identifier of type SpanID.
func spanEndArg(pass *Pass, call *ast.CallExpr) *types.Var {
	name, _ := calleeNameAndRecv(call)
	if name != "End" || len(call.Args) != 1 {
		return nil
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	v := objOf(pass, id)
	if v == nil {
		return nil
	}
	if named, ok := v.Type().(*types.Named); !ok || named.Obj().Name() != "SpanID" {
		return nil
	}
	return v
}
