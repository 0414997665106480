package ir

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BuildFunc constructs the CFG for one function declaration or
// literal. The body is required (declarations without bodies —
// assembly stubs — have no CFG).
func BuildFunc(pkg *Package, obj types.Object, decl *ast.FuncDecl, lit *ast.FuncLit) *Func {
	f := &Func{Pkg: pkg, Obj: obj, Decl: decl, Lit: lit, stmtBlock: make(map[ast.Stmt]*Block)}
	switch {
	case decl != nil:
		f.Name = funcName(pkg, decl)
		f.Body = decl.Body
	case lit != nil:
		f.Name = litName(pkg, lit)
		f.Body = lit.Body
	}
	b := &cfgBuilder{f: f, labels: make(map[string]*labelFrame)}
	f.Entry = b.newBlock()
	f.Exit = &Block{Index: -1}
	b.cur = f.Entry
	b.stmtList(f.Body.List)
	// Fall off the end of the body: implicit return.
	b.edgeTo(f.Exit)
	f.Exit.Index = len(f.Blocks)
	f.Blocks = append(f.Blocks, f.Exit)
	markReachable(f)
	return f
}

// cfgBuilder threads the "current block" through statement lowering.
type cfgBuilder struct {
	f   *Func
	cur *Block // nil when the current position is unreachable

	// breakTargets / continueTargets are innermost-last stacks of the
	// blocks a plain break/continue jumps to.
	breakTargets    []*Block
	continueTargets []*Block
	labels          map[string]*labelFrame

	// labeledInner names the label wrapping the next loop/switch
	// built, so `continue L` / `break L` resolve to its targets.
	labeledInner string
}

// labelFrame resolves labeled break/continue/goto.
type labelFrame struct {
	// head is the goto target (the labeled statement's first block).
	head *Block
	// brk / cont are set while the labeled loop/switch is being built.
	brk, cont *Block
	// pendingGotos collects forward gotos seen before the label.
	pendingGotos []*Block
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.f.Blocks)}
	b.f.Blocks = append(b.f.Blocks, blk)
	return blk
}

// edge links from→to.
func edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// edgeTo links the current block to target (no-op when unreachable).
func (b *cfgBuilder) edgeTo(target *Block) {
	if b.cur != nil {
		edge(b.cur, target)
	}
}

// startBlock makes target the current block.
func (b *cfgBuilder) startBlock(target *Block) { b.cur = target }

// add appends a statement to the current block. Statements in
// unreachable positions are attached to a fresh orphan block so
// analyzers can still find them (marked unreachable afterwards).
func (b *cfgBuilder) add(s ast.Stmt) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, s)
	b.f.stmtBlock[s] = b.cur
	b.recordCalls(s)
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

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s) // the condition is evaluated here
		condBlock := b.cur
		thenBlock := b.newBlock()
		join := b.newBlock()
		edge(condBlock, thenBlock)
		b.startBlock(thenBlock)
		b.stmtList(s.Body.List)
		b.edgeTo(join)
		if s.Else != nil {
			elseBlock := b.newBlock()
			edge(condBlock, elseBlock)
			b.startBlock(elseBlock)
			b.stmt(s.Else)
			b.edgeTo(join)
		} else {
			edge(condBlock, join)
		}
		b.startBlock(join)

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		head.LoopStmt = s
		b.edgeTo(head)
		b.startBlock(head)
		b.addToBlock(head, s) // condition evaluated at the head
		body := b.newBlock()
		exit := b.newBlock()
		edge(head, body)
		if s.Cond != nil {
			edge(head, exit)
		}
		b.pushLoop(s, exit, head)
		b.startBlock(body)
		b.stmtList(s.Body.List)
		if s.Post != nil {
			b.stmt(s.Post)
		}
		b.edgeTo(head) // back edge
		b.popLoop()
		b.startBlock(exit)

	case *ast.RangeStmt:
		head := b.newBlock()
		head.LoopStmt = s
		b.edgeTo(head)
		b.startBlock(head)
		b.addToBlock(head, s) // range expression + key/value assignment
		body := b.newBlock()
		exit := b.newBlock()
		edge(head, body)
		edge(head, exit)
		b.pushLoop(s, exit, head)
		b.startBlock(body)
		b.stmtList(s.Body.List)
		b.edgeTo(head)
		b.popLoop()
		b.startBlock(exit)

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		b.switchStmt(s)

	case *ast.SelectStmt:
		b.add(s)
		selBlock := b.cur
		join := b.newBlock()
		b.pushBreakOnly(s, join)
		for _, clause := range s.Body.List {
			comm := clause.(*ast.CommClause)
			cb := b.newBlock()
			edge(selBlock, cb)
			b.startBlock(cb)
			if comm.Comm != nil {
				b.add(comm.Comm)
			}
			b.stmtList(comm.Body)
			b.edgeTo(join)
		}
		if len(s.Body.List) == 0 {
			// select{} blocks forever: no successor.
		}
		b.popLoop()
		b.startBlock(join)

	case *ast.ReturnStmt:
		b.add(s)
		b.edgeTo(b.f.Exit)
		b.startBlock(nil)

	case *ast.BranchStmt:
		b.add(s)
		b.branchStmt(s)

	case *ast.LabeledStmt:
		frame := b.labelFrame(s.Label.Name)
		head := b.newBlock()
		frame.head = head
		for _, g := range frame.pendingGotos {
			edge(g, head)
		}
		frame.pendingGotos = nil
		b.edgeTo(head)
		b.startBlock(head)
		b.labeledInner = s.Label.Name
		b.stmt(s.Stmt)
		b.labeledInner = ""

	case *ast.ExprStmt, *ast.AssignStmt, *ast.DeclStmt, *ast.IncDecStmt,
		*ast.SendStmt, *ast.GoStmt, *ast.DeferStmt, *ast.EmptyStmt:
		b.add(s)
		if terminatesFlow(b.f.Pkg, s) {
			b.edgeTo(b.f.Exit)
			b.startBlock(nil)
		}

	default:
		b.add(s)
	}
}

func (b *cfgBuilder) labelFrame(name string) *labelFrame {
	fr, ok := b.labels[name]
	if !ok {
		fr = &labelFrame{}
		b.labels[name] = fr
	}
	return fr
}

func (b *cfgBuilder) pushLoop(s ast.Stmt, brk, cont *Block) {
	b.breakTargets = append(b.breakTargets, brk)
	b.continueTargets = append(b.continueTargets, cont)
	if b.labeledInner != "" {
		fr := b.labelFrame(b.labeledInner)
		fr.brk, fr.cont = brk, cont
		b.labeledInner = ""
	}
}

func (b *cfgBuilder) pushBreakOnly(s ast.Stmt, brk *Block) {
	b.breakTargets = append(b.breakTargets, brk)
	b.continueTargets = append(b.continueTargets, nil)
	if b.labeledInner != "" {
		fr := b.labelFrame(b.labeledInner)
		fr.brk = brk
		b.labeledInner = ""
	}
}

func (b *cfgBuilder) popLoop() {
	b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
	b.continueTargets = b.continueTargets[:len(b.continueTargets)-1]
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	switch s.Tok {
	case token.BREAK:
		var target *Block
		if s.Label != nil {
			target = b.labelFrame(s.Label.Name).brk
		} else if n := len(b.breakTargets); n > 0 {
			target = b.breakTargets[n-1]
		}
		if target != nil {
			b.edgeTo(target)
		}
		b.startBlock(nil)
	case token.CONTINUE:
		var target *Block
		if s.Label != nil {
			target = b.labelFrame(s.Label.Name).cont
		} else {
			for i := len(b.continueTargets) - 1; i >= 0; i-- {
				if b.continueTargets[i] != nil {
					target = b.continueTargets[i]
					break
				}
			}
		}
		if target != nil {
			b.edgeTo(target)
		}
		b.startBlock(nil)
	case token.GOTO:
		if s.Label != nil {
			fr := b.labelFrame(s.Label.Name)
			if fr.head != nil {
				b.edgeTo(fr.head)
			} else if b.cur != nil {
				fr.pendingGotos = append(fr.pendingGotos, b.cur)
			}
		}
		b.startBlock(nil)
	case token.FALLTHROUGH:
		// Handled by switchStmt's clause chaining.
	}
}

// switchStmt lowers expression and type switches identically at the
// block level: tag evaluation, one block per case clause, a shared
// join; fallthrough chains a clause into the next.
func (b *cfgBuilder) switchStmt(s ast.Stmt) {
	var body *ast.BlockStmt
	var initStmt ast.Stmt
	switch sw := s.(type) {
	case *ast.SwitchStmt:
		initStmt, body = sw.Init, sw.Body
	case *ast.TypeSwitchStmt:
		initStmt, body = sw.Init, sw.Body
	}
	if initStmt != nil {
		b.stmt(initStmt)
	}
	b.add(s)
	tagBlock := b.cur
	join := b.newBlock()
	b.pushBreakOnly(s, join)

	hasDefault := false
	clauses := body.List
	blocks := make([]*Block, len(clauses))
	for i := range clauses {
		blocks[i] = b.newBlock()
	}
	for i, cl := range clauses {
		clause := cl.(*ast.CaseClause)
		if clause.List == nil {
			hasDefault = true
		}
		edge(tagBlock, blocks[i])
		b.startBlock(blocks[i])
		b.stmtList(clause.Body)
		// fallthrough transfers into the next clause's block.
		if n := len(clause.Body); n > 0 {
			if br, ok := clause.Body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH && i+1 < len(blocks) {
				b.edgeTo(blocks[i+1])
				b.startBlock(nil)
				continue
			}
		}
		b.edgeTo(join)
	}
	if !hasDefault {
		edge(tagBlock, join)
	}
	b.popLoop()
	b.startBlock(join)
}

// addToBlock appends s to a specific block (loop headers hold their
// own for/range statement).
func (b *cfgBuilder) addToBlock(blk *Block, s ast.Stmt) {
	blk.Nodes = append(blk.Nodes, s)
	if _, ok := b.f.stmtBlock[s]; !ok {
		b.f.stmtBlock[s] = blk
	}
	b.recordCalls(s)
}

// recordCalls registers every call expression directly inside s
// (not descending into nested function literals).
func (b *cfgBuilder) recordCalls(s ast.Stmt) {
	blk := b.cur
	if blk == nil {
		blk = b.f.stmtBlock[s]
	}
	// Loop headers pass their statement via addToBlock before cur
	// moves; prefer the mapped block.
	if mapped, ok := b.f.stmtBlock[s]; ok {
		blk = mapped
	}
	// Only a compound statement's headline belongs to this block; its
	// bodies are lowered into their own blocks and re-visited there.
	root := Headline(s)
	if root == nil {
		return
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			b.f.Calls = append(b.f.Calls, &CallSite{Caller: b.f, Block: blk, Call: n})
		}
		return true
	})
}

// Headline returns the part of s that is evaluated where s itself sits
// in the control flow: a simple statement is its own headline; an if
// or for contributes its condition, a switch its tag, a range its
// operand, a type switch its guard assignment; select, block and
// labeled statements (and condition-less for/switch) contribute
// nothing — their parts are statements in their own right.
func Headline(s ast.Stmt) ast.Node {
	switch s := s.(type) {
	case *ast.IfStmt:
		return s.Cond
	case *ast.ForStmt:
		return s.Cond
	case *ast.RangeStmt:
		return s.X
	case *ast.SwitchStmt:
		return s.Tag
	case *ast.TypeSwitchStmt:
		return s.Assign
	case *ast.SelectStmt, *ast.BlockStmt, *ast.LabeledStmt:
		return nil
	}
	return s
}

// terminatesFlow reports whether a simple statement never lets
// control continue: panic(...), os.Exit(...), runtime.Goexit().
func terminatesFlow(pkg *Package, s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		if fn.Name == "panic" {
			if obj := pkg.Info.Uses[fn]; obj == nil || obj.Parent() == types.Universe {
				return true
			}
		}
	case *ast.SelectorExpr:
		if id, ok := fn.X.(*ast.Ident); ok {
			if obj, isPkg := pkg.Info.Uses[id].(*types.PkgName); isPkg {
				path := obj.Imported().Path()
				name := fn.Sel.Name
				if (path == "os" && name == "Exit") || (path == "runtime" && name == "Goexit") {
					return true
				}
			}
		}
	}
	return false
}

// markReachable flags blocks no entry path reaches.
func markReachable(f *Func) {
	seen := make([]bool, len(f.Blocks))
	var stack []*Block
	stack = append(stack, f.Entry)
	seen[f.Entry.Index] = true
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range blk.Succs {
			if !seen[s.Index] {
				seen[s.Index] = true
				stack = append(stack, s)
			}
		}
	}
	for _, blk := range f.Blocks {
		blk.unreachable = !seen[blk.Index]
	}
}
