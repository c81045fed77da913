package analysis

import (
	"go/ast"
	"go/token"
)

// Intraprocedural control-flow graphs over go/ast, the substrate the
// path-sensitive analyzers (spanpair, lockpair) run on. The PR-5 suite
// proved invariants with per-statement forward scans; those cannot see
// a `break` that jumps past a span's End or a lock release on only one
// arm of an if — exactly the shapes the concurrent serving stack (the
// coalescer's flush paths, the NRT session manager, the diagnostics
// loops) is made of. The builder mirrors the statement coverage of
// x/tools/go/cfg but stays stdlib-only like the rest of the framework.
//
// Model: a Block is a maximal straight-line run of ast.Nodes
// (statements, plus the condition/tag/range expressions of the
// constructs that branch on them) with unconditional flow inside and
// edges only at the end. Three distinguished blocks:
//
//   - Entry: where the function body starts;
//   - Exit: every normal way out — return statements and falling off
//     the end of the body;
//   - Panic: calls to panic(...) and os.Exit(...). Kept separate from
//     Exit so analyses may ignore unwinding paths (a deferred Unlock
//     runs on panic; a span leaked by a dying process is moot).
//
// Defer statements appear as ordinary nodes in their block: an analysis
// that treats a DeferStmt node as satisfying a must-reach property gets
// the right semantics for free, because a defer covers exactly the
// paths that flow through its registration point.
type Block struct {
	Index int        // position in CFG.Blocks
	Kind  string     // construct that created the block, for debugging
	Nodes []ast.Node // statements and branch expressions, source order
	Succs []*Block   // control-flow successors
}

// CFG is the control-flow graph of one function body. FuncLits get
// their own CFG; their statements never appear in the enclosing
// function's graph.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Panic  *Block
	Blocks []*Block
}

// BuildCFG constructs the control-flow graph of a function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:    &CFG{},
		labels: make(map[string]*labelInfo),
	}
	b.cfg.Entry = b.newBlock("entry")
	b.cfg.Exit = b.newBlock("exit")
	b.cfg.Panic = b.newBlock("panic")
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.link(b.cfg.Exit)
	}
	return b.cfg
}

// ReachesAvoiding reports whether dst is reachable from the position
// just after node idx of blk without first crossing a node for which
// kill returns true. This is the core query behind "is there a path
// out of the function on which the span is never Ended / the lock is
// never released".
func (g *CFG) ReachesAvoiding(blk *Block, idx int, dst *Block, kill func(ast.Node) bool) bool {
	for _, n := range blk.Nodes[idx+1:] {
		if kill(n) {
			return false
		}
	}
	if blk == dst {
		return true
	}
	seen := make(map[*Block]bool, len(g.Blocks))
	seen[blk] = true
	var dfs func(*Block) bool
	dfs = func(x *Block) bool {
		for _, s := range x.Succs {
			if seen[s] {
				continue
			}
			seen[s] = true
			killed := false
			for _, n := range s.Nodes {
				if kill(n) {
					killed = true
					break
				}
			}
			if killed {
				continue
			}
			if s == dst || dfs(s) {
				return true
			}
		}
		return false
	}
	return dfs(blk)
}

// RegionAvoiding returns every node reachable from the position just
// after node idx of blk, cutting each path at the first node for which
// kill returns true (the kill node itself is excluded). For lockpair
// this is "the set of statements that can execute while the lock is
// held".
func (g *CFG) RegionAvoiding(blk *Block, idx int, kill func(ast.Node) bool) []ast.Node {
	var region []ast.Node
	// scanFrom appends b.Nodes[from:] up to a kill node and reports
	// whether the block's exits remain reachable (no kill hit).
	scanFrom := func(b *Block, from int) bool {
		for _, n := range b.Nodes[from:] {
			if kill(n) {
				return false
			}
			region = append(region, n)
		}
		return true
	}
	if !scanFrom(blk, idx+1) {
		return region
	}
	// The start block is deliberately NOT pre-marked: a back edge that
	// re-enters it re-executes its nodes from the top (including the
	// acquire site itself — how a loop without a release re-locks), so
	// on re-entry the whole block is scanned. Nodes after idx may appear
	// twice in the region; callers treat it as a set.
	seen := make(map[*Block]bool, len(g.Blocks))
	var dfs func(*Block)
	dfs = func(x *Block) {
		for _, s := range x.Succs {
			if seen[s] {
				continue
			}
			seen[s] = true
			if scanFrom(s, 0) {
				dfs(s)
			}
		}
	}
	dfs(blk)
	return region
}

// --- builder ---

// target is one enclosing breakable/continuable construct.
type target struct {
	prev  *target
	label string // label bound to the construct, "" if none
	brk   *Block // break destination
	cont  *Block // continue destination; nil for switch/select
}

// labelInfo tracks a label's block (for goto) and, once the labeled
// construct is built, its break/continue targets.
type labelInfo struct {
	block *Block  // jump target for goto L; starts the labeled statement
	tgt   *target // set when the labeled for/range/switch/select is built
}

type cfgBuilder struct {
	cfg     *CFG
	cur     *Block // nil after a terminating statement (unreachable)
	targets *target
	labels  map[string]*labelInfo
	// pendingLabel carries a label name from a LabeledStmt to the
	// loop/switch/select it prefixes, so `break L` / `continue L`
	// resolve to that construct's targets.
	pendingLabel string
	// fallthroughTo is the next case body while building a switch
	// clause; a `fallthrough` statement links to it.
	fallthroughTo *Block
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// ensure makes sure there is a current block to append to. Statements
// after a return/branch are unreachable; they get a detached block (no
// predecessors) so their nodes still exist in the graph without
// claiming reachability.
func (b *cfgBuilder) ensure() *Block {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	return b.cur
}

func (b *cfgBuilder) add(n ast.Node) {
	blk := b.ensure()
	blk.Nodes = append(blk.Nodes, n)
}

// link adds an edge cur -> to (when cur exists) and leaves cur intact.
func (b *cfgBuilder) link(to *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, to)
	}
}

// jump ends the current block with an edge to to.
func (b *cfgBuilder) jump(to *Block) {
	b.link(to)
	b.cur = nil
}

func (b *cfgBuilder) labelFor(name string) *labelInfo {
	li := b.labels[name]
	if li == nil {
		li = &labelInfo{block: b.newBlock("label." + name)}
		b.labels[name] = li
	}
	return li
}

// takeLabel consumes the pending label for the construct being built
// and binds its targets.
func (b *cfgBuilder) takeLabel(tgt *target) {
	if b.pendingLabel == "" {
		return
	}
	tgt.label = b.pendingLabel
	b.labelFor(b.pendingLabel).tgt = tgt
	b.pendingLabel = ""
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	// Any statement other than a LabeledStmt consumes a pending label
	// that labeled a plain (non-branching) statement.
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.pendingLabel = ""
		b.stmtList(s.List)
	case *ast.ExprStmt:
		b.pendingLabel = ""
		b.add(s)
		if callTerminates(s.X) {
			b.jump(b.cfg.Panic)
		}
	case *ast.ReturnStmt:
		b.pendingLabel = ""
		b.add(s)
		b.jump(b.cfg.Exit)
	case *ast.BranchStmt:
		b.pendingLabel = ""
		b.branch(s)
	case *ast.IfStmt:
		b.pendingLabel = ""
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, nil, s.Body)
	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, nil, s.Assign, s.Body)
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.LabeledStmt:
		li := b.labelFor(s.Label.Name)
		b.jump(li.block)
		b.cur = li.block
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.EmptyStmt:
		// no node
	default:
		// DeclStmt, AssignStmt, IncDecStmt, SendStmt, GoStmt,
		// DeferStmt: straight-line nodes.
		b.pendingLabel = ""
		b.add(s)
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Cond)
	then := b.newBlock("if.then")
	after := b.newBlock("if.after")
	b.link(then)
	var els *Block
	if s.Else != nil {
		els = b.newBlock("if.else")
		b.link(els)
	} else {
		b.link(after)
	}
	b.cur = then
	b.stmtList(s.Body.List)
	b.link(after)
	if s.Else != nil {
		b.cur = els
		b.stmt(s.Else)
		b.link(after)
	}
	b.cur = after
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt) {
	if s.Init != nil {
		b.ensure()
		b.add(s.Init)
	}
	head := b.newBlock("for.head")
	after := b.newBlock("for.after")
	cont := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock("for.post")
		cont = post
	}
	b.jump(head)
	b.cur = head
	body := b.newBlock("for.body")
	if s.Cond != nil {
		b.add(s.Cond)
		b.link(body)
		b.link(after)
	} else {
		b.link(body) // for {}: no exit edge from the head
	}
	tgt := &target{prev: b.targets, brk: after, cont: cont}
	b.takeLabel(tgt)
	b.targets = tgt
	b.cur = body
	b.stmtList(s.Body.List)
	b.jump(cont)
	b.targets = tgt.prev
	if post != nil {
		b.cur = post
		b.add(s.Post)
		b.jump(head)
	}
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt) {
	head := b.newBlock("range.head")
	after := b.newBlock("range.after")
	b.jump(head)
	b.cur = head
	// The range statement itself is the head's node: it evaluates the
	// range operand and performs the per-iteration assignment.
	b.add(s)
	body := b.newBlock("range.body")
	b.link(body)
	b.link(after)
	tgt := &target{prev: b.targets, brk: after, cont: head}
	b.takeLabel(tgt)
	b.targets = tgt
	b.cur = body
	b.stmtList(s.Body.List)
	b.jump(head)
	b.targets = tgt.prev
	b.cur = after
}

func (b *cfgBuilder) switchStmt(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt) {
	b.ensure()
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	}
	if assign != nil {
		b.add(assign)
	}
	head := b.cur
	after := b.newBlock("switch.after")
	tgt := &target{prev: b.targets, brk: after}
	b.takeLabel(tgt)
	b.targets = tgt

	var clauses []*ast.CaseClause
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		bodies[i] = b.newBlock("case.body")
		head.Succs = append(head.Succs, bodies[i])
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		head.Succs = append(head.Succs, after)
	}
	for i, cc := range clauses {
		b.cur = bodies[i]
		for _, e := range cc.List {
			b.add(e)
		}
		savedFT := b.fallthroughTo
		if i+1 < len(clauses) {
			b.fallthroughTo = bodies[i+1]
		} else {
			b.fallthroughTo = nil
		}
		b.stmtList(cc.Body)
		b.fallthroughTo = savedFT
		b.link(after)
		b.cur = nil
	}
	b.targets = tgt.prev
	b.cur = after
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	b.ensure()
	head := b.cur
	after := b.newBlock("select.after")
	tgt := &target{prev: b.targets, brk: after}
	b.takeLabel(tgt)
	b.targets = tgt
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock("select.case")
		head.Succs = append(head.Succs, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.add(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.link(after)
		b.cur = nil
	}
	// select{} with no cases blocks forever: head keeps no successors
	// and after is unreachable, which is exactly the semantics.
	b.targets = tgt.prev
	b.cur = after
}

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	switch s.Tok {
	case token.BREAK:
		for t := b.targets; t != nil; t = t.prev {
			if s.Label != nil && t.label != s.Label.Name {
				continue
			}
			b.jump(t.brk)
			return
		}
		b.cur = nil // malformed code; type checker rejects it anyway
	case token.CONTINUE:
		for t := b.targets; t != nil; t = t.prev {
			if t.cont == nil {
				continue // switch/select: continue skips to the loop
			}
			if s.Label != nil && t.label != s.Label.Name {
				continue
			}
			b.jump(t.cont)
			return
		}
		b.cur = nil
	case token.GOTO:
		b.jump(b.labelFor(s.Label.Name).block)
	case token.FALLTHROUGH:
		if b.fallthroughTo != nil {
			b.jump(b.fallthroughTo)
		} else {
			b.cur = nil
		}
	}
}

// callTerminates recognizes calls that never return: the panic builtin,
// os.Exit and runtime.Goexit. Syntactic on purpose — the builder has no
// type information, and shadowing `panic` would be its own finding.
func callTerminates(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			return (x.Name == "os" && fun.Sel.Name == "Exit") ||
				(x.Name == "runtime" && fun.Sel.Name == "Goexit")
		}
	}
	return false
}
