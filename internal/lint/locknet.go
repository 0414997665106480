package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/ir"
)

// LockNet reports mutexes held across net.Conn reads/writes or
// blocking channel operations. A peer controls how long a conn read
// blocks (up to the socket deadline — 30 s for a frame read), so a
// lock held across one turns a single slow peer into a stall of every
// goroutine contending for that lock. TestChaosCrawl can only find
// this shape probabilistically; the analyzer finds it by construction.
//
// The analysis walks each function's statements in order, tracking
// the set of mutexes locked (by receiver expression). While the set
// is non-empty it flags: Read/Write calls on values implementing
// net.Conn, io.ReadFull/ReadAll/Copy/CopyN calls passed such a value,
// channel sends and receives, and select statements without a default
// clause. A deferred Unlock keeps the mutex held for the remainder of
// the function, which is exactly the property the analyzer cares
// about.
type LockNet struct{}

// Name implements Analyzer.
func (ln *LockNet) Name() string { return "locknet" }

// Doc implements Analyzer.
func (ln *LockNet) Doc() string {
	return "no mutex may be held across net.Conn I/O or blocking channel ops"
}

// Run implements Analyzer.
func (ln *LockNet) Run(l *Loader, pkgs []*Package) []Finding {
	conn, failed := netConn(l, ln.Name())
	if failed != nil {
		return failed
	}
	// Every declaration and literal is walked as its own function: a
	// closure does not inherit the critical section it was written in.
	w := &lockWalker{analyzer: ln.Name(), conn: conn, comm: make(map[ast.Stmt]bool)}
	for _, f := range l.Program(pkgs).Funcs {
		w.pkg = f.Pkg
		walkHeld(f.Pkg, f.Body.List, map[string]bool{}, w.visit)
	}
	return w.findings
}

type lockWalker struct {
	pkg      *Package
	analyzer string
	conn     *types.Interface
	findings []Finding

	// comm holds the comm statements of the selects seen so far: the
	// select as a whole already answered for them.
	comm map[ast.Stmt]bool
}

// visit is the walkHeld callback: it checks one statement against the
// lockset holding there. Deferred calls run after the lock is
// released and a spawned goroutine does not inherit the spawner's
// critical section, so neither is checked against this set.
func (w *lockWalker) visit(stmt ast.Stmt, held map[string]bool) {
	if len(held) == 0 || w.comm[stmt] {
		return
	}
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		w.checkBlocking(s.X, held)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			w.checkBlocking(rhs, held)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.checkBlocking(r, held)
		}
	case *ast.IfStmt, *ast.ForStmt, *ast.SwitchStmt:
		if cond, ok := ir.Headline(s).(ast.Expr); ok {
			w.checkBlocking(cond, held)
		}
	case *ast.SendStmt:
		w.report(s.Pos(), "channel send", held)
	case *ast.SelectStmt:
		hasDefault := false
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CommClause)
			if clause.Comm == nil {
				hasDefault = true
			} else {
				w.comm[clause.Comm] = true
			}
		}
		if !hasDefault {
			w.report(s.Pos(), "blocking select", held)
		}
	case *ast.RangeStmt:
		// Ranging over a channel blocks per iteration.
		if isChanType(w.pkg.Info.TypeOf(s.X)) {
			w.report(s.Pos(), "range over channel", held)
		}
	}
}

// checkBlocking scans an expression for operations that can block on
// a peer while a mutex is held.
func (w *lockWalker) checkBlocking(expr ast.Expr, held map[string]bool) {
	ast.Inspect(expr, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch e := n.(type) {
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				w.report(e.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			w.checkCall(e, held)
		}
		return true
	})
}

// checkCall flags conn I/O calls made while a lock is held.
func (w *lockWalker) checkCall(call *ast.CallExpr, held map[string]bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := w.pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	// Direct Read/Write on a net.Conn implementer.
	if fn.Name() == "Read" || fn.Name() == "Write" {
		if tv, ok := w.pkg.Info.Types[sel.X]; ok && implementsConn(tv.Type, w.conn) {
			w.report(call.Pos(), fmt.Sprintf("%s.%s on net.Conn", types.ExprString(sel.X), fn.Name()), held)
			return
		}
	}
	// io helpers that block on a conn argument.
	if fn.Pkg() != nil && fn.Pkg().Path() == "io" {
		switch fn.Name() {
		case "ReadFull", "ReadAll", "Copy", "CopyN", "ReadAtLeast":
			for _, arg := range call.Args {
				if tv, ok := w.pkg.Info.Types[arg]; ok && implementsConn(tv.Type, w.conn) {
					w.report(call.Pos(), fmt.Sprintf("io.%s on net.Conn %s", fn.Name(), types.ExprString(arg)), held)
					return
				}
			}
		}
	}
}

func (w *lockWalker) report(pos token.Pos, what string, held map[string]bool) {
	w.findings = append(w.findings, Finding{
		Pos:      w.pkg.Fset.Position(pos),
		Analyzer: w.analyzer,
		Message: fmt.Sprintf("%s while holding mutex %s: a slow peer can stall every contender on this lock",
			what, heldList(held)),
	})
}
