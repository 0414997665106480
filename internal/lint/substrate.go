package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
)

// This file holds the facts more than one analyzer asks of the same
// syntax, each answered once: what net.Conn is (locknet, connclose,
// deadlineflow), which mutexes are held at a statement (locknet,
// sharedstate), and what a statement writes (sharedstate,
// frozenpublish). Per-function dataflow facts live on ir.Func.

// netConn resolves the net.Conn interface for an analyzer, or returns
// the finding that says why it could not.
func netConn(l *Loader, analyzer string) (*types.Interface, []Finding) {
	connType, err := l.StdType("net", "Conn")
	if err != nil {
		return nil, []Finding{{Analyzer: analyzer, Message: fmt.Sprintf("cannot resolve net.Conn: %v", err)}}
	}
	iface, ok := connType.Underlying().(*types.Interface)
	if !ok {
		return nil, []Finding{{Analyzer: analyzer, Message: "net.Conn is not an interface?"}}
	}
	return iface, nil
}

// implementsConn reports whether t (or *t) implements net.Conn.
func implementsConn(t types.Type, conn *types.Interface) bool {
	if types.Implements(t, conn) {
		return true
	}
	if _, isPtr := t.(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(t), conn)
	}
	return false
}

// lockOp reports whether call is a sync.Mutex/RWMutex Lock, Unlock,
// RLock or RUnlock, returning the receiver's expression text (the
// lockset key) and the method name.
func lockOp(pkg *Package, call *ast.CallExpr) (recv, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	fn, isFn := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

// heldList renders a lockset for a message, sorted so the report does
// not depend on map order.
func heldList(held map[string]bool) string {
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

// walkHeld walks a statement list in source order tracking the set of
// mutexes held. visit sees every statement — a simple statement as
// itself, a compound statement once, before its branches, with the
// lockset holding where its headline (ir.Headline) is evaluated —
// except the Lock/Unlock calls themselves. A deferred Unlock keeps the
// mutex held for the rest of the function; branches run under a copy
// of the set, so a lock taken inside one does not leak out of it.
// Function literals are not entered: each is its own function.
func walkHeld(pkg *Package, list []ast.Stmt, held map[string]bool, visit func(s ast.Stmt, held map[string]bool)) {
	for _, stmt := range list {
		walkHeldStmt(pkg, stmt, held, visit)
	}
}

func walkHeldStmt(pkg *Package, stmt ast.Stmt, held map[string]bool, visit func(s ast.Stmt, held map[string]bool)) {
	clauses := func(body *ast.BlockStmt) {
		for _, cc := range body.List {
			switch clause := cc.(type) {
			case *ast.CaseClause:
				walkHeld(pkg, clause.Body, maps.Clone(held), visit)
			case *ast.CommClause:
				inner := maps.Clone(held)
				walkHeldStmt(pkg, clause.Comm, inner, visit)
				walkHeld(pkg, clause.Body, inner, visit)
			}
		}
	}
	switch s := stmt.(type) {
	case nil:
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if recv, name, ok := lockOp(pkg, call); ok {
				if name == "Lock" || name == "RLock" {
					held[recv] = true
				} else {
					delete(held, recv)
				}
				return
			}
		}
		visit(s, held)
	case *ast.DeferStmt:
		if _, name, ok := lockOp(pkg, s.Call); ok && (name == "Unlock" || name == "RUnlock") {
			return // the lock stays held for the rest of the function
		}
		visit(s, held)
	case *ast.IfStmt:
		walkHeldStmt(pkg, s.Init, held, visit)
		visit(s, held)
		walkHeld(pkg, s.Body.List, maps.Clone(held), visit)
		walkHeldStmt(pkg, s.Else, maps.Clone(held), visit)
	case *ast.ForStmt:
		inner := maps.Clone(held)
		walkHeldStmt(pkg, s.Init, inner, visit)
		visit(s, inner)
		walkHeld(pkg, s.Body.List, inner, visit)
		walkHeldStmt(pkg, s.Post, inner, visit)
	case *ast.RangeStmt:
		visit(s, held)
		walkHeld(pkg, s.Body.List, maps.Clone(held), visit)
	case *ast.SwitchStmt:
		walkHeldStmt(pkg, s.Init, held, visit)
		visit(s, held)
		clauses(s.Body)
	case *ast.TypeSwitchStmt:
		visit(s, held)
		clauses(s.Body)
	case *ast.SelectStmt:
		visit(s, held)
		clauses(s.Body)
	case *ast.BlockStmt:
		walkHeld(pkg, s.List, held, visit)
	case *ast.LabeledStmt:
		walkHeldStmt(pkg, s.Stmt, held, visit)
	default:
		// Assign, Send, IncDec, Return, Decl, Go, Branch, Empty.
		visit(s, held)
	}
}

// stmtWrite is one piece of storage a statement writes: the left side
// of an assignment, the operand of ++/--, or the first argument of a
// mutating builtin (delete, clear, copy, append).
type stmtWrite struct {
	target ast.Expr
	// builtin is the delete/clear/copy/append call writing through
	// target, nil for assignments and ++/--.
	builtin *ast.CallExpr
	// define marks the left side of a := (which may declare target
	// rather than write it).
	define bool
}

// stmtWrites lists what one simple statement writes, in source order
// per class: assignment targets first, then mutating builtins anywhere
// in the statement outside nested function literals.
func stmtWrites(pkg *Package, stmt ast.Stmt) []stmtWrite {
	var out []stmtWrite
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			out = append(out, stmtWrite{target: lhs, define: s.Tok == token.DEFINE})
		}
	case *ast.IncDecStmt:
		out = append(out, stmtWrite{target: s.X})
	}
	inspectShallow(stmt, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return
		}
		if b, isB := pkg.Info.Uses[id].(*types.Builtin); isB {
			switch b.Name() {
			case "delete", "clear", "copy", "append":
				out = append(out, stmtWrite{target: call.Args[0], builtin: call})
			}
		}
	})
	return out
}
