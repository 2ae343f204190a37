package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the dataflow substrate under the flow-sensitive analyzers
// (poolsafe, spanpair): an intra-procedural control-flow graph over go/ast
// plus a forward fixpoint driver. The model is deliberately small:
//
//   - A Block holds a straight-line run of simple nodes (assignments,
//     expression statements, declarations, loop conditions). Compound
//     statements never appear whole: an `if` contributes its init statement
//     and condition expression to the header block and its branches become
//     separate blocks, a `range` contributes a RangeHeader marker, and so
//     on. Analyzers therefore never have to avoid descending into a body
//     that belongs to another block.
//   - Exit is a single synthetic block. Every `return`, every explicit
//     `panic(...)` statement, and the function's fallthrough end link to it,
//     so "on all CFG exits" means "in Exit's in-state". Runtime panics from
//     arbitrary calls are not modeled (every call would become a branch and
//     drown the analyses); explicit panic/early-return edges are.
//   - Defers are collected on the side. Deferred calls run on every exit —
//     including the panic edges — so exit-sensitive analyzers (spanpair)
//     treat a deferred close as covering all exits. Conditional defer
//     registration is over-approximated as always registered.
//
// The builder understands labeled break/continue and goto; `select` without
// a default has no fallthrough edge (it parks until a case fires).

// A Block is one straight-line sequence of nodes with successor edges.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
}

// RangeHeader marks the header of a range statement inside a block: the
// ranged expression is evaluated and the key/value variables are bound
// here, while the loop body lives in its own blocks. Analyzers must not
// descend into the embedded statement's Body.
type RangeHeader struct{ *ast.RangeStmt }

// A CFG is the control-flow graph of one function body.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
	// Defers lists every defer statement in the body; deferred calls run
	// on every path to Exit.
	Defers []*ast.DeferStmt
}

// BuildCFG constructs the control-flow graph of body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}, labels: make(map[string]*labelTarget)}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = &Block{}
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.link(b.cur, b.cfg.Exit)
	}
	for _, g := range b.gotos {
		if t, ok := b.labels[g.label]; ok && t.entry != nil {
			b.link(g.from, t.entry)
		} else {
			// Undefined label (won't typecheck anyway): fail safe to Exit.
			b.link(g.from, b.cfg.Exit)
		}
	}
	b.cfg.Exit.Index = len(b.cfg.Blocks)
	b.cfg.Blocks = append(b.cfg.Blocks, b.cfg.Exit)
	return b.cfg
}

type labelTarget struct {
	entry *Block // goto / labeled-continue restart point (loop header)
	brk   *Block // labeled-break target
	cont  *Block // labeled-continue target
}

type pendingGoto struct {
	from  *Block
	label string
}

type cfgBuilder struct {
	cfg *CFG
	cur *Block // nil after a terminator (following code is unreachable)

	breaks    []*Block
	continues []*Block
	labels    map[string]*labelTarget
	gotos     []pendingGoto

	// pendingLabel names the label wrapping the next loop/switch/select,
	// so labeled break/continue resolve to that statement's targets.
	pendingLabel string
	// fallthroughTo is the next case clause's block while building a
	// switch case body.
	fallthroughTo *Block
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) link(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// use returns the current block, starting a fresh (unreachable) one when
// the previous statement terminated control flow.
func (b *cfgBuilder) use() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *cfgBuilder) add(n ast.Node) {
	if n == nil {
		return
	}
	blk := b.use()
	blk.Nodes = append(blk.Nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, b.takeLabel())
	case *ast.RangeStmt:
		b.rangeStmt(s, b.takeLabel())
	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, nil, s.Body, b.takeLabel())
	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, nil, s.Assign, s.Body, b.takeLabel())
	case *ast.SelectStmt:
		b.selectStmt(s, b.takeLabel())
	case *ast.ReturnStmt:
		b.add(s)
		b.link(b.use(), b.cfg.Exit)
		b.cur = nil
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.DeferStmt:
		b.cfg.Defers = append(b.cfg.Defers, s)
		b.add(s)
	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && isPanicCall(call) {
			b.link(b.use(), b.cfg.Exit)
			b.cur = nil
		}
	default:
		// Assign, Decl, IncDec, Send, Go, Empty: straight-line.
		b.add(s)
	}
}

func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) labeledStmt(s *ast.LabeledStmt) {
	// The labeled statement starts its own block so goto / labeled-continue
	// have a stable target.
	entry := b.newBlock()
	if b.cur != nil {
		b.link(b.cur, entry)
	}
	b.cur = entry
	t := b.labels[s.Label.Name]
	if t == nil {
		t = &labelTarget{}
		b.labels[s.Label.Name] = t
	}
	t.entry = entry
	switch s.Stmt.(type) {
	case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		b.pendingLabel = s.Label.Name
	}
	b.stmt(s.Stmt)
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	b.add(s.Init)
	b.add(s.Cond)
	header := b.use()
	after := b.newBlock()

	then := b.newBlock()
	b.link(header, then)
	b.cur = then
	b.stmtList(s.Body.List)
	if b.cur != nil {
		b.link(b.cur, after)
	}

	if s.Else != nil {
		els := b.newBlock()
		b.link(header, els)
		b.cur = els
		b.stmt(s.Else)
		if b.cur != nil {
			b.link(b.cur, after)
		}
	} else {
		b.link(header, after)
	}
	b.cur = after
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt, label string) {
	b.add(s.Init)
	cond := b.newBlock()
	b.link(b.use(), cond)
	b.cur = cond
	b.add(s.Cond)

	body := b.newBlock()
	after := b.newBlock()
	post := b.newBlock()
	b.link(cond, body)
	if s.Cond != nil {
		b.link(cond, after)
	}

	if label != "" {
		b.labels[label].brk = after
		b.labels[label].cont = post
	}
	b.breaks = append(b.breaks, after)
	b.continues = append(b.continues, post)
	b.cur = body
	b.stmtList(s.Body.List)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	if b.cur != nil {
		b.link(b.cur, post)
	}
	b.cur = post
	b.add(s.Post)
	b.link(b.use(), cond)
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, label string) {
	header := b.newBlock()
	b.link(b.use(), header)
	header.Nodes = append(header.Nodes, RangeHeader{s})

	body := b.newBlock()
	after := b.newBlock()
	b.link(header, body)
	b.link(header, after)

	if label != "" {
		b.labels[label].brk = after
		b.labels[label].cont = header
	}
	b.breaks = append(b.breaks, after)
	b.continues = append(b.continues, header)
	b.cur = body
	b.stmtList(s.Body.List)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	if b.cur != nil {
		b.link(b.cur, header)
	}
	b.cur = after
}

// switchStmt handles both expression switches (tag != nil) and type
// switches (assign != nil).
func (b *cfgBuilder) switchStmt(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt, label string) {
	b.add(init)
	b.add(tag)
	b.add(assign)
	header := b.use()
	after := b.newBlock()

	if label != "" {
		b.labels[label].brk = after
	}
	b.breaks = append(b.breaks, after)

	var clauses []*ast.CaseClause
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock()
		b.link(header, blocks[i])
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.link(header, after)
	}
	saved := b.fallthroughTo
	for i, cc := range clauses {
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		b.fallthroughTo = nil
		if i+1 < len(blocks) {
			b.fallthroughTo = blocks[i+1]
		}
		b.stmtList(cc.Body)
		if b.cur != nil {
			b.link(b.cur, after)
		}
	}
	b.fallthroughTo = saved
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = after
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, label string) {
	header := b.use()
	after := b.newBlock()

	if label != "" {
		b.labels[label].brk = after
	}
	b.breaks = append(b.breaks, after)
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		b.link(header, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmtList(cc.Body)
		if b.cur != nil {
			b.link(b.cur, after)
		}
	}
	// A select with no default parks until some case fires, so there is no
	// direct header->after edge; one exists through every case body.
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = after
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	b.add(s)
	from := b.use()
	switch s.Tok {
	case token.BREAK:
		if s.Label != nil {
			if t, ok := b.labels[s.Label.Name]; ok && t.brk != nil {
				b.link(from, t.brk)
			}
		} else if n := len(b.breaks); n > 0 {
			b.link(from, b.breaks[n-1])
		}
	case token.CONTINUE:
		if s.Label != nil {
			if t, ok := b.labels[s.Label.Name]; ok && t.cont != nil {
				b.link(from, t.cont)
			}
		} else if n := len(b.continues); n > 0 {
			b.link(from, b.continues[n-1])
		}
	case token.GOTO:
		if s.Label != nil {
			b.gotos = append(b.gotos, pendingGoto{from: from, label: s.Label.Name})
		}
	case token.FALLTHROUGH:
		if b.fallthroughTo != nil {
			b.link(from, b.fallthroughTo)
		}
	}
	b.cur = nil
}

// isPanicCall reports whether call invokes the builtin panic. Resolved
// syntactically: `panic` is a builtin unless shadowed, and shadowing panic
// in this tree would itself be a finding.
func isPanicCall(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// ---- forward dataflow driver ----

// ForwardFixpoint runs a forward dataflow analysis to fixpoint. entry seeds
// the Entry block; transfer maps a block's in-state to its out-state (it
// must not mutate the argument's sharing with other states — clone is
// applied before each call); join merges an out-state into a successor's
// in-state, reporting whether the in-state changed.
//
// Blocks are processed in index order, repeatedly, until a full pass makes
// no change: deterministic, and terminating for any monotone transfer over
// a finite lattice. The iteration cap is a defensive backstop — a
// non-monotone transfer function is a bug in the analyzer, not a reason to
// spin forever.
func ForwardFixpoint[S any](g *CFG, entry S, clone func(S) S, join func(dst, src S) (S, bool), transfer func(*Block, S) S) map[*Block]S {
	in := make(map[*Block]S, len(g.Blocks))
	in[g.Entry] = entry
	seen := map[*Block]bool{g.Entry: true}
	for pass := 0; pass < 4*len(g.Blocks)+4; pass++ {
		changed := false
		for _, blk := range g.Blocks {
			if !seen[blk] {
				continue
			}
			out := transfer(blk, clone(in[blk]))
			for _, succ := range blk.Succs {
				if !seen[succ] {
					in[succ] = clone(out)
					seen[succ] = true
					changed = true
					continue
				}
				merged, ch := join(in[succ], clone(out))
				in[succ] = merged
				if ch {
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return in
}
