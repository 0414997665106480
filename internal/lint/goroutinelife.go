package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/ir"
)

// GoroutineLife verifies that every goroutine spawned in the
// configured packages has a provable termination signal. The crawler
// holds thousands of concurrent handshakes; a goroutine that loops
// without a shutdown path outlives its dial slot and leaks until the
// process dies — the exact failure class leakcheck catches at test
// time, promoted here to a compile-time finding.
//
// The check is interprocedural over the IR call graph. A spawned
// function fails when it — or any module function it transitively
// calls — contains an exitless CFG cycle with no termination signal.
// An exitless cycle is one no edge leaves (no break, no return, no
// condition): it runs forever unless something inside it blocks until
// shutdown. Termination signals are the operations that unblock on
// teardown:
//
//   - a channel receive or select (a closed channel — ctx.Done(),
//     t.closed — makes them return immediately)
//   - range over a channel (ends when the channel closes)
//   - a Read/Write/Accept-shaped call on a closable value (closing
//     the conn/listener fails the call and the loop's error path)
//   - a call to a module function that itself contains such a signal
//
// Loops with exit edges are not flagged: whether a conditional break
// fires is the halting problem, and the paper's loops of that shape
// (bounded header reads, retry counters) all terminate by
// construction.
type GoroutineLife struct {
	// Packages restricts where `go` statements are checked. Callee
	// traversal still crosses into any module package.
	Packages []string
}

// Name implements Analyzer.
func (g *GoroutineLife) Name() string { return "goroutinelife" }

// Doc implements Analyzer.
func (g *GoroutineLife) Doc() string {
	return "every spawned goroutine must have a provable termination signal"
}

// Run implements Analyzer.
func (g *GoroutineLife) Run(l *Loader, pkgs []*Package) []Finding {
	prog := l.Program(pkgs)
	gl := &glifeChecker{
		prog:     prog,
		verdicts: ir.Memo[*ir.Func, glVerdict]{MaxDepth: 33}, // call chains deeper than this are assumed to terminate
		signals:  ir.Memo[*ir.Func, bool]{MaxDepth: ir.SummaryDepth},
	}

	var findings []Finding
	for _, f := range prog.Funcs {
		if !matchesAny(f.Pkg.Path, g.Packages) {
			continue
		}
		for _, blk := range f.Blocks {
			for _, s := range blk.Nodes {
				gostmt, ok := s.(*ast.GoStmt)
				if !ok {
					continue
				}
				findings = append(findings, gl.checkSpawn(g.Name(), f, gostmt)...)
			}
		}
	}
	return findings
}

// glVerdict is the memoized termination result for one function.
type glVerdict struct {
	ok    bool
	pos   token.Pos // offending loop position
	fname string    // function holding the offending loop
}

type glifeChecker struct {
	prog     *ir.Program
	verdicts ir.Memo[*ir.Func, glVerdict]
	signals  ir.Memo[*ir.Func, bool]
}

func (gl *glifeChecker) checkSpawn(analyzer string, spawner *ir.Func, g *ast.GoStmt) []Finding {
	spawned, obj := gl.prog.ResolveSpawn(spawner.Pkg, g)
	if spawned == nil {
		if obj != nil && obj.Pkg() != nil && obj.Pkg() != spawner.Pkg.Types {
			// Resolved to a function outside the module (std or an
			// unloaded package): nothing to prove against.
			return nil
		}
		return []Finding{{
			Pos:      spawner.Position(g.Pos()),
			Analyzer: analyzer,
			Message:  "goroutine target cannot be statically resolved; spawn a named function or literal so its termination signal is checkable",
		}}
	}
	v := gl.terminates(spawned)
	if v.ok {
		return nil
	}
	where := ""
	if v.fname != spawned.Name {
		where = fmt.Sprintf(" (via %s, %s)", v.fname, spawner.Position(v.pos))
	}
	return []Finding{{
		Pos:      spawner.Position(g.Pos()),
		Analyzer: analyzer,
		Message: fmt.Sprintf("goroutine %s loops forever with no termination signal%s: add a ctx.Done/closed-channel select or read from a closable conn",
			spawned.Name, where),
	}}
}

// terminates decides whether f (and everything it calls) is free of
// exitless signal-less cycles. Recursion through the call graph
// treats in-progress functions as OK — a cycle in the call graph is a
// recursion pattern, not a spawned loop.
func (gl *glifeChecker) terminates(f *ir.Func) glVerdict {
	return gl.verdicts.Get(f, glVerdict{ok: true}, func() glVerdict { return gl.computeTerminates(f) })
}

func (gl *glifeChecker) computeTerminates(f *ir.Func) glVerdict {
	for _, loop := range exitlessCycles(f) {
		if !gl.loopHasSignal(f, loop) {
			pos := f.Body.Pos()
			hdr := loop.header
			if len(hdr.Nodes) > 0 {
				pos = hdr.Nodes[0].Pos()
			} else if hdr.LoopStmt != nil {
				pos = hdr.LoopStmt.Pos()
			}
			return glVerdict{ok: false, pos: pos, fname: f.Name}
		}
	}
	for _, cs := range f.Calls {
		if cs.Callee == nil {
			continue
		}
		if sub := gl.terminates(cs.Callee); !sub.ok {
			return sub
		}
	}
	return glVerdict{ok: true}
}

// cycle is one natural loop: the header plus every block on a path
// from the back edge's source back to the header.
type cycle struct {
	header *ir.Block
	blocks map[*ir.Block]bool
}

// exitlessCycles finds the natural loops of f no edge leaves.
func exitlessCycles(f *ir.Func) []cycle {
	dom := f.Dom()
	var out []cycle
	for _, u := range f.Blocks {
		if u.Unreachable() {
			continue
		}
		for _, h := range u.Succs {
			if !ir.Dominates(dom, h, u) {
				continue // not a back edge
			}
			// Natural loop of back edge u→h: h plus blocks reaching u
			// without passing through h.
			set := map[*ir.Block]bool{h: true, u: true}
			stack := []*ir.Block{u}
			for len(stack) > 0 {
				b := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range b.Preds {
					if !set[p] {
						set[p] = true
						stack = append(stack, p)
					}
				}
			}
			exitless := true
			for b := range set {
				for _, s := range b.Succs {
					if !set[s] {
						exitless = false
					}
				}
			}
			if exitless {
				out = append(out, cycle{header: h, blocks: set})
			}
		}
	}
	return out
}

// loopHasSignal reports whether any statement inside the cycle is a
// termination signal.
func (gl *glifeChecker) loopHasSignal(f *ir.Func, c cycle) bool {
	for b := range c.blocks {
		for _, s := range b.Nodes {
			if gl.stmtHasSignal(f, s) {
				return true
			}
		}
	}
	return false
}

// stmtHasSignal inspects one block-resident statement shallowly (not
// descending into nested literals — their bodies are separate Funcs).
func (gl *glifeChecker) stmtHasSignal(f *ir.Func, s ast.Stmt) bool {
	// The statement forms that block until shutdown by construction.
	switch s := s.(type) {
	case *ast.SelectStmt:
		return true
	case *ast.RangeStmt:
		if isChanType(f.Pkg.Info.TypeOf(s.X)) {
			return true
		}
	}
	found := false
	inspectShallow(s, func(n ast.Node) {
		if found {
			return
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true // channel receive
			}
		case *ast.SelectStmt:
			found = true
		case *ast.CallExpr:
			if gl.callHasSignal(f, n) {
				found = true
			}
		}
	})
	return found
}

// callHasSignal: a Read/Write/Accept-shaped call on a closable
// receiver, or a call into a module function containing a signal.
func (gl *glifeChecker) callHasSignal(f *ir.Func, call *ast.CallExpr) bool {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		name := sel.Sel.Name
		ioShaped := strings.HasPrefix(name, "Read") || strings.HasPrefix(name, "Write") ||
			strings.HasPrefix(name, "Accept")
		if ioShaped {
			if t := f.Pkg.Info.TypeOf(sel.X); t != nil && hasCloseMethod(t) {
				return true
			}
		}
	}
	obj := ir.CalleeOf(f.Pkg, call)
	if obj == nil {
		return false
	}
	callee := gl.prog.FuncOf[obj]
	if callee == nil {
		return false
	}
	return gl.funcHasSignal(callee)
}

// funcHasSignal: does the function (transitively) contain a
// termination signal anywhere?
func (gl *glifeChecker) funcHasSignal(f *ir.Func) bool {
	return gl.signals.Get(f, false, func() bool {
		for _, b := range f.Blocks {
			for _, s := range b.Nodes {
				if gl.stmtHasSignal(f, s) {
					return true
				}
			}
		}
		return false
	})
}

// hasCloseMethod reports whether t (or *t) has a Close method —
// conns, listeners, packet conns, files.
func hasCloseMethod(t types.Type) bool {
	if lookupMethod(t, "Close") {
		return true
	}
	if _, isPtr := t.(*types.Pointer); !isPtr {
		return lookupMethod(types.NewPointer(t), "Close")
	}
	return false
}

func lookupMethod(t types.Type, name string) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
	if obj == nil {
		return false
	}
	_, isFunc := obj.(*types.Func)
	return isFunc
}
