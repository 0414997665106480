package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/ir"
)

// ConnClose verifies that every net.Conn acquired from a dial- or
// accept-shaped call has Close reachable on all exit paths of the
// acquiring function. A crawler dials millions of addresses; one exit
// path that drops a conn without Close is a file-descriptor leak that
// only shows up days into an 82-day run.
//
// The check is per-function and deliberately conservative about
// ownership transfer: a conn that escapes — returned, passed as a
// call argument, captured by a closure, stored into a struct, slice,
// map, or channel — is considered handed off, and the analyzer stops
// tracking it. For conns that stay local, every return statement
// after the acquisition (and the implicit fall-off-the-end exit) must
// be covered by a Close: either a defer conn.Close() that has already
// executed on the path to the return, or a direct conn.Close() call
// on that path. Returns inside the idiomatic `if err != nil` guard of
// the acquisition itself are exempt — there is no conn on that path.
type ConnClose struct{}

// Name implements Analyzer.
func (cc *ConnClose) Name() string { return "connclose" }

// Doc implements Analyzer.
func (cc *ConnClose) Doc() string {
	return "every net.Conn from a dialer must have Close reachable on all exit paths"
}

// Run implements Analyzer.
func (cc *ConnClose) Run(l *Loader, pkgs []*Package) []Finding {
	connIface, failed := netConn(l, cc.Name())
	if failed != nil {
		return failed
	}
	var findings []Finding
	for _, f := range l.Program(pkgs).Funcs {
		findings = append(findings, checkConnClose(f.Pkg, f.Body, connIface, cc.Name())...)
	}
	return findings
}

// acquisition is one tracked `conn, err := dial(...)` site.
type acquisition struct {
	obj    types.Object // the conn variable
	errObj types.Object // the paired error variable, if any
	pos    token.Pos
	callee string
}

func checkConnClose(pkg *Package, body *ast.BlockStmt, conn *types.Interface, analyzer string) []Finding {
	var findings []Finding
	var acqs []acquisition

	// Pass 1: find acquisitions at any depth of this function body
	// (skipping nested function literals, which are analyzed as their
	// own functions by the driver).
	inspectShallow(body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		callee := calleeName(call)
		low := strings.ToLower(callee)
		if !strings.Contains(low, "dial") && !strings.Contains(low, "accept") {
			return
		}
		tv, ok := pkg.Info.Types[call]
		if !ok {
			return
		}
		first := tv.Type
		if tuple, ok := tv.Type.(*types.Tuple); ok {
			if tuple.Len() == 0 {
				return
			}
			first = tuple.At(0).Type()
		}
		if !implementsConn(first, conn) {
			return
		}
		id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := pkg.Info.ObjectOf(id)
		if obj == nil {
			return
		}
		a := acquisition{obj: obj, pos: as.Pos(), callee: callee}
		if len(as.Lhs) > 1 {
			if errID, ok := ast.Unparen(as.Lhs[1]).(*ast.Ident); ok && errID.Name != "_" {
				a.errObj = pkg.Info.ObjectOf(errID)
			}
		}
		acqs = append(acqs, a)
	})

	for _, a := range acqs {
		if f, leak := analyzeAcquisition(pkg, body, a, analyzer); leak {
			findings = append(findings, f)
		}
	}
	return findings
}

func analyzeAcquisition(pkg *Package, body *ast.BlockStmt, a acquisition, analyzer string) (Finding, bool) {
	escaped := false
	var closes []closeSite   // conn.Close() / defer conn.Close() sites
	var returns []returnSite // return statements after acquisition

	collectUses(pkg, body, a, &escaped, &closes)
	if escaped {
		return Finding{}, false
	}
	collectReturns(pkg, body, a, &returns)

	// The implicit exit at the end of the function counts as a return
	// unless the body already ends in a terminating statement.
	if !ir.Terminates(body) {
		returns = append(returns, returnSite{pos: body.End(), path: []*ast.BlockStmt{body}})
	}

	if len(closes) == 0 {
		return Finding{
			Pos:      pkg.Fset.Position(a.pos),
			Analyzer: analyzer,
			Message: fmt.Sprintf("net.Conn %s from %s is never closed in this function and does not escape: add defer %s.Close()",
				a.obj.Name(), a.callee, a.obj.Name()),
		}, true
	}
	for _, ret := range returns {
		if ret.pos <= a.pos {
			continue
		}
		if ret.errGuarded {
			continue
		}
		if coveredByClose(closes, ret) {
			continue
		}
		return Finding{
			Pos:      pkg.Fset.Position(ret.pos),
			Analyzer: analyzer,
			Message: fmt.Sprintf("exit path drops net.Conn %s (from %s) without Close: move Close before this return or defer it at the acquisition",
				a.obj.Name(), a.callee),
		}, true
	}
	return Finding{}, false
}

type closeSite struct {
	pos      token.Pos
	deferred bool
	path     []*ast.BlockStmt // enclosing blocks, outermost first
}

type returnSite struct {
	pos        token.Pos
	errGuarded bool
	path       []*ast.BlockStmt
}

// collectUses records Close calls on the conn and whether it escapes.
func collectUses(pkg *Package, body *ast.BlockStmt, a acquisition, escaped *bool, closes *[]closeSite) {
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		// A closure capturing the conn is ownership transfer.
		if fl, ok := n.(*ast.FuncLit); ok {
			if usesObject(pkg, fl, a.obj) {
				*escaped = true
			}
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || pkg.Info.Uses[id] != a.obj {
			return true
		}
		use := classifyUse(pkg, stack, id)
		switch use {
		case useClose:
			deferred := false
			var path []*ast.BlockStmt
			for _, anc := range stack {
				if b, ok := anc.(*ast.BlockStmt); ok {
					path = append(path, b)
				}
				if _, ok := anc.(*ast.DeferStmt); ok {
					deferred = true
				}
			}
			*closes = append(*closes, closeSite{pos: id.Pos(), deferred: deferred, path: path})
		case useEscape:
			*escaped = true
		}
		return true
	})
}

type useKind int

const (
	useBenign useKind = iota // receiver of a method call, shadow, etc.
	useClose                 // conn.Close()
	useEscape                // argument, return value, stored, sent
)

// classifyUse decides what a single identifier occurrence does with
// the conn. stack holds the ancestors, innermost last (ending at id).
func classifyUse(pkg *Package, stack []ast.Node, id *ast.Ident) useKind {
	// Walk outward from the identifier.
	for i := len(stack) - 2; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.SelectorExpr:
			// conn.Something — method call or field access via the
			// conn. Close is what we are looking for; every other
			// method (SetDeadline, RemoteAddr, Read...) neither closes
			// nor transfers ownership.
			if parent.X == id || containsNode(parent.X, id) {
				if parent.Sel.Name == "Close" {
					return useClose
				}
				return useBenign
			}
			return useBenign
		case *ast.CallExpr:
			// Bare identifier as a call argument: handed off.
			for _, arg := range parent.Args {
				if arg == stack[i+1] {
					return useEscape
				}
			}
			return useBenign
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.SendStmt, *ast.KeyValueExpr:
			return useEscape
		case *ast.AssignStmt:
			// conn on the RHS of another assignment: aliased away.
			for _, rhs := range parent.Rhs {
				if rhs == stack[i+1] {
					return useEscape
				}
			}
			return useBenign
		case *ast.BinaryExpr, *ast.IfStmt, *ast.ParenExpr, *ast.TypeAssertExpr:
			// Comparisons (conn != nil) and guards are benign; keep
			// walking outward only for wrappers that matter.
			continue
		default:
			continue
		}
	}
	return useBenign
}

// collectReturns gathers return statements after the acquisition with
// their block paths and err-guard status.
func collectReturns(pkg *Package, body *ast.BlockStmt, a acquisition, out *[]returnSite) {
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		site := returnSite{pos: ret.Pos()}
		for _, anc := range stack {
			if b, ok := anc.(*ast.BlockStmt); ok {
				site.path = append(site.path, b)
			}
			if ifs, ok := anc.(*ast.IfStmt); ok && a.errObj != nil && isErrNilCheck(pkg, ifs.Cond, a.errObj) {
				site.errGuarded = true
			}
		}
		*out = append(*out, site)
		return true
	})
}

// coveredByClose reports whether some Close site dominates the
// return: the Close appears earlier and its enclosing block is an
// ancestor of (or the same as) the return's innermost block, so every
// lexical path from the Close's position to the return passes it. A
// deferred Close covers the return the same way — once the defer
// statement has executed, the conn is closed on any exit.
func coveredByClose(closes []closeSite, ret returnSite) bool {
	for _, c := range closes {
		if c.pos >= ret.pos {
			continue
		}
		if len(c.path) == 0 {
			continue
		}
		inner := c.path[len(c.path)-1]
		for _, rb := range ret.path {
			if rb == inner {
				return true
			}
		}
	}
	return false
}

// isErrNilCheck matches `err != nil` (or `nil != err`) against the
// tracked error object, including inside || chains, which cover
// idioms like `if err != nil || conn == nil`.
func isErrNilCheck(pkg *Package, cond ast.Expr, errObj types.Object) bool {
	cond = ast.Unparen(cond)
	be, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	if be.Op == token.LOR {
		return isErrNilCheck(pkg, be.X, errObj) || isErrNilCheck(pkg, be.Y, errObj)
	}
	if be.Op != token.NEQ {
		return false
	}
	matches := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && pkg.Info.Uses[id] == errObj
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return (matches(be.X) && isNil(be.Y)) || (matches(be.Y) && isNil(be.X))
}

// calleeName extracts the called function's bare name.
func calleeName(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// usesObject reports whether node references obj.
func usesObject(pkg *Package, node ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pkg.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// containsNode reports whether target appears within root.
func containsNode(root ast.Node, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

// inspectShallow visits nodes without descending into function
// literals.
func inspectShallow(root ast.Node, visit func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok && n != root {
			return false
		}
		visit(n)
		return true
	})
}
