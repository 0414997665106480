package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/ir"
)

// FrozenPublish enforces the census Snapshot contract on every
// publish point in the module: once a value is made visible to other
// goroutines — stored into an atomic.Pointer/atomic.Value or sent on
// a channel — no field, slice element, or map entry reachable from it
// may be written again by the publisher. Readers of a published
// snapshot take no lock; the only thing making that sound is that the
// object graph behind the pointer never changes. Until now that was a
// convention; this analyzer makes it a compile-time invariant.
//
// The check runs per publishing function on the ir.Escape alias
// analysis:
//
//  1. Find publish sites: atomic Store calls, channel sends of
//     reference values, and calls into module functions that
//     transitively publish a parameter (ir.Memo-memoized).
//  2. Take the may-alias class of the published roots.
//  3. Walk every statement CFG-reachable after the publish (loops
//     count: a Store inside a loop freezes the value for the next
//     iteration too) and flag writes through any alias: field/index
//     assignments, ++/--, delete/clear/copy/append, and calls into
//     module functions whose summary says they mutate that argument
//     or receiver.
//
// Rebinding the variable to a fresh object (snap = build()) kills the
// freeze along paths the rebind dominates — the standard
// publish-in-a-loop shape stays clean. So does copying before
// publishing (c := *p): value copies never join the alias class.
type FrozenPublish struct {
	// Packages restricts where publish sites are sought; empty means
	// every module package. Callee traversal always crosses the whole
	// module.
	Packages []string
}

// Name implements Analyzer.
func (fp *FrozenPublish) Name() string { return "frozenpublish" }

// Doc implements Analyzer.
func (fp *FrozenPublish) Doc() string {
	return "no writes reachable from a value after it is published via atomic Store or channel send"
}

// Run implements Analyzer.
func (fp *FrozenPublish) Run(l *Loader, pkgs []*Package) []Finding {
	prog := l.Program(pkgs)
	c := &frozenChecker{
		prog:      prog,
		publishes: ir.Memo[*types.Var, bool]{MaxDepth: ir.SummaryDepth},
		mutates:   ir.Memo[*types.Var, bool]{MaxDepth: ir.SummaryDepth},
	}
	var findings []Finding
	for _, f := range prog.Funcs {
		if len(fp.Packages) > 0 && !matchesAny(f.Pkg.Path, fp.Packages) {
			continue
		}
		findings = append(findings, c.checkFunc(fp.Name(), f)...)
	}
	return findings
}

type frozenChecker struct {
	prog *ir.Program
	// publishes / mutates memoize, per parameter variable, whether its
	// function (transitively) publishes or writes through it.
	publishes, mutates ir.Memo[*types.Var, bool]
}

// stmtAt pins a block-resident statement to its CFG coordinates.
type stmtAt struct {
	s   ast.Stmt
	b   *ir.Block
	idx int
}

// pubSite is one point where an alias class becomes visible to other
// goroutines.
type pubSite struct {
	at    stmtAt
	pos   token.Pos
	what  string
	roots []*types.Var
}

func (c *frozenChecker) checkFunc(analyzer string, f *ir.Func) []Finding {
	pubs := c.publishSites(f)
	if len(pubs) == 0 {
		return nil
	}
	esc := f.Escape()
	var findings []Finding
	for _, pub := range pubs {
		class := make(map[*types.Var]bool)
		for _, r := range pub.roots {
			for _, v := range esc.AliasVars(r) {
				class[v] = true
			}
		}
		after := afterStmts(f, pub.at.b, pub.at.idx)
		rebinds := collectRebinds(f, after, class)
		pubLine := f.Position(pub.pos).Line
		for _, at := range after {
			for _, hit := range c.writeHits(f, at.s, class) {
				if killedByRebind(f.Dom(), rebinds, hit.root, at) {
					continue
				}
				findings = append(findings, Finding{
					Pos:      f.Position(hit.pos),
					Analyzer: analyzer,
					Message: fmt.Sprintf("%s after %s published it (line %d): published values are frozen; copy, then publish",
						hit.desc, pub.what, pubLine),
				})
			}
		}
	}
	return findings
}

// publishSites scans f's simple block-resident statements for atomic
// Stores, reference-valued channel sends, and calls that transitively
// publish an argument.
func (c *frozenChecker) publishSites(f *ir.Func) []pubSite {
	esc := f.Escape()
	pkg := f.Pkg
	var pubs []pubSite
	for _, b := range f.Blocks {
		for idx, s := range b.Nodes {
			if !simpleStmt(s) {
				continue
			}
			at := stmtAt{s: s, b: b, idx: idx}
			if send, ok := s.(*ast.SendStmt); ok {
				if roots := esc.ValueRoots(send.Value); len(roots) > 0 {
					pubs = append(pubs, pubSite{
						at:    at,
						pos:   send.Pos(),
						what:  fmt.Sprintf("the send on %s", types.ExprString(send.Chan)),
						roots: roots,
					})
				}
				continue
			}
			inspectShallow(s, func(n ast.Node) {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return
				}
				if arg := ir.AtomicStoreArg(pkg, call); arg != nil {
					if roots := esc.ValueRoots(arg); len(roots) > 0 {
						recv := "?"
						if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
							recv = types.ExprString(sel.X)
						}
						pubs = append(pubs, pubSite{
							at:    at,
							pos:   call.Pos(),
							what:  fmt.Sprintf("the atomic Store on %s", recv),
							roots: roots,
						})
					}
					return
				}
				// A module callee that publishes its parameter makes the
				// call site a publish site for the matching argument.
				callee := c.moduleCallee(pkg, call)
				if callee == nil {
					return
				}
				for argIdx, arg := range call.Args {
					roots := esc.ValueRoots(arg)
					if len(roots) == 0 {
						continue
					}
					pv := paramAt(callee, argIdx)
					if pv == nil || !c.publishesParam(callee, pv) {
						continue
					}
					pubs = append(pubs, pubSite{
						at:    at,
						pos:   call.Pos(),
						what:  fmt.Sprintf("the publishing call to %s", callee.Name),
						roots: roots,
					})
				}
			})
		}
	}
	return pubs
}

// publishesParam reports whether callee (transitively) publishes the
// object its parameter pv points to — stores it atomically, sends it,
// or passes it onward to a function that does.
func (c *frozenChecker) publishesParam(callee *ir.Func, pv *types.Var) bool {
	return c.publishes.Get(pv, false, func() bool {
		esc := callee.Escape()
		pkg := callee.Pkg
		class := make(map[*types.Var]bool)
		for _, v := range esc.AliasVars(pv) {
			class[v] = true
		}
		inClass := func(roots []*types.Var) bool {
			for _, r := range roots {
				if class[r] {
					return true
				}
			}
			return false
		}
		for _, b := range callee.Blocks {
			for _, s := range b.Nodes {
				if !simpleStmt(s) {
					continue
				}
				if send, ok := s.(*ast.SendStmt); ok {
					if inClass(esc.ValueRoots(send.Value)) {
						return true
					}
					continue
				}
				found := false
				inspectShallow(s, func(n ast.Node) {
					call, ok := n.(*ast.CallExpr)
					if !ok || found {
						return
					}
					if arg := ir.AtomicStoreArg(pkg, call); arg != nil {
						if inClass(esc.ValueRoots(arg)) {
							found = true
						}
						return
					}
					sub := c.moduleCallee(pkg, call)
					if sub == nil {
						return
					}
					for argIdx, arg := range call.Args {
						if !inClass(esc.ValueRoots(arg)) {
							continue
						}
						if spv := paramAt(sub, argIdx); spv != nil && c.publishesParam(sub, spv) {
							found = true
						}
					}
				})
				if found {
					return true
				}
			}
		}
		return false
	})
}

// writeHit is one statement mutating a frozen alias class.
type writeHit struct {
	pos  token.Pos
	root *types.Var
	desc string
}

// writeHits reports the mutations of any variable in class performed
// by one simple statement: writes through a field/index/deref chain,
// ++/--, mutating builtins, and calls whose interprocedural summary
// mutates the matching parameter or receiver.
func (c *frozenChecker) writeHits(f *ir.Func, s ast.Stmt, class map[*types.Var]bool) []writeHit {
	if !simpleStmt(s) {
		return nil
	}
	pkg := f.Pkg
	var hits []writeHit
	for _, w := range stmtWrites(pkg, s) {
		root := ir.RootVar(pkg, w.target)
		if root == nil || !class[root] {
			continue
		}
		if w.builtin != nil {
			hits = append(hits, writeHit{
				pos:  w.builtin.Pos(),
				root: root,
				desc: fmt.Sprintf("builtin %s mutates %s", types.ExprString(w.builtin.Fun), types.ExprString(w.target)),
			})
			continue
		}
		// Rebinding a plain identifier is not a write through it.
		switch ast.Unparen(w.target).(type) {
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
			hits = append(hits, writeHit{pos: w.target.Pos(), root: root, desc: "write to " + types.ExprString(w.target)})
		}
	}
	inspectShallow(s, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		callee := c.moduleCallee(pkg, call)
		if callee == nil {
			return
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if root := ir.RootVar(pkg, sel.X); root != nil && class[root] {
				if rv := ir.RecvVar(callee); rv != nil && c.mutatesParam(callee, rv) {
					hits = append(hits, writeHit{
						pos:  call.Pos(),
						root: root,
						desc: fmt.Sprintf("call to %s mutates %s", callee.Name, types.ExprString(sel.X)),
					})
				}
			}
		}
		for argIdx, arg := range call.Args {
			root := ir.RootVar(pkg, arg)
			if root == nil || !class[root] {
				continue
			}
			if pv := paramAt(callee, argIdx); pv != nil && c.mutatesParam(callee, pv) {
				hits = append(hits, writeHit{
					pos:  call.Pos(),
					root: root,
					desc: fmt.Sprintf("call to %s mutates %s", callee.Name, types.ExprString(arg)),
				})
			}
		}
	})
	return hits
}

// mutatesParam reports whether callee (transitively) writes through
// the object graph reachable from pv.
func (c *frozenChecker) mutatesParam(callee *ir.Func, pv *types.Var) bool {
	return c.mutates.Get(pv, false, func() bool {
		esc := callee.Escape()
		class := make(map[*types.Var]bool)
		for _, v := range esc.AliasVars(pv) {
			class[v] = true
		}
		for _, b := range callee.Blocks {
			for _, s := range b.Nodes {
				if len(c.writeHits(callee, s, class)) > 0 {
					return true
				}
			}
		}
		return false
	})
}

// moduleCallee resolves call to a module-local function with a body.
func (c *frozenChecker) moduleCallee(pkg *ir.Package, call *ast.CallExpr) *ir.Func {
	obj := ir.CalleeOf(pkg, call)
	if obj == nil {
		return nil
	}
	return c.prog.FuncOf[obj]
}

// paramAt maps a call-site argument index onto callee's parameter
// variable, folding variadic overflow onto the last parameter.
func paramAt(callee *ir.Func, argIdx int) *types.Var {
	params := ir.ParamVars(callee)
	if len(params) == 0 {
		return nil
	}
	if argIdx >= len(params) {
		argIdx = len(params) - 1
	}
	return params[argIdx]
}

// simpleStmt reports whether s is a non-compound statement: compound
// forms (if/for/switch/select/...) appear in the CFG both as header
// nodes and as their lowered body statements, so publish/write
// scanning sticks to the simple forms to visit each operation exactly
// once. Go conditions are expressions, so no mutation hides in a
// header.
func simpleStmt(s ast.Stmt) bool {
	switch s.(type) {
	case *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt,
		*ast.TypeSwitchStmt, *ast.SelectStmt, *ast.LabeledStmt, *ast.BlockStmt:
		return false
	}
	return true
}

// reachableBlocks returns every block reachable from b by one or more
// CFG edges (b itself is included exactly when it sits in a cycle).
func reachableBlocks(b *ir.Block) map[*ir.Block]bool {
	seen := make(map[*ir.Block]bool)
	stack := append([]*ir.Block(nil), b.Succs...)
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[blk] {
			continue
		}
		seen[blk] = true
		stack = append(stack, blk.Succs...)
	}
	return seen
}

// afterStmts lists every block-resident statement that can execute
// after position (b, idx): the rest of b, all of b again when b is in
// a cycle, and every statement of every reachable block, in
// deterministic block order.
func afterStmts(f *ir.Func, b *ir.Block, idx int) []stmtAt {
	reach := reachableBlocks(b)
	var out []stmtAt
	if reach[b] {
		for i, s := range b.Nodes {
			out = append(out, stmtAt{s: s, b: b, idx: i})
		}
	} else {
		for i := idx + 1; i < len(b.Nodes); i++ {
			out = append(out, stmtAt{s: b.Nodes[i], b: b, idx: i})
		}
	}
	for _, blk := range f.Blocks {
		if blk == b || !reach[blk] {
			continue
		}
		for i, s := range blk.Nodes {
			out = append(out, stmtAt{s: s, b: blk, idx: i})
		}
	}
	return out
}

// rebind is a plain-identifier assignment giving a class variable a
// fresh value.
type rebind struct {
	at stmtAt
	v  *types.Var
}

// collectRebinds finds the post-publish statements that rebind a
// class variable wholesale (x = ... / x := ...), which un-freezes
// that variable along dominated paths.
func collectRebinds(f *ir.Func, after []stmtAt, class map[*types.Var]bool) []rebind {
	pkg := f.Pkg
	var out []rebind
	for _, at := range after {
		as, ok := at.s.(*ast.AssignStmt)
		if !ok {
			continue
		}
		for _, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			if v, ok := pkg.Info.ObjectOf(id).(*types.Var); ok && class[v] {
				out = append(out, rebind{at: at, v: v})
			}
		}
	}
	return out
}

// killedByRebind reports whether a rebind of hit's root variable
// dominates the write at `at`, i.e. the write provably targets the
// fresh object, not the published one.
func killedByRebind(dom []*ir.BitSet, rebinds []rebind, root *types.Var, at stmtAt) bool {
	for _, r := range rebinds {
		if r.v != root {
			continue
		}
		if r.at.b == at.b {
			if r.at.idx < at.idx {
				return true
			}
			continue
		}
		if ir.Dominates(dom, r.at.b, at.b) {
			return true
		}
	}
	return false
}
