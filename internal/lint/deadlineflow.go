package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/ir"
)

// DeadlineFlow verifies that every net.Conn read or write reachable
// from a dial or accept runs under a deadline. A peer that accepts
// the TCP connection and then never sends a byte ("never-ACK", the
// hostile peer faultnet ships) pins an undeadlined reader goroutine
// and its dial slot forever; the paper's crawler survives only
// because every I/O path is armed.
//
// The analysis is interprocedural and deliberately *may*-path: an
// I/O operation is fine when SOME path from function entry arms a
// deadline first, because the codebase's arming idiom is conditional
// ("if timeout > 0 { SetReadDeadline(...) }" — zero disables the
// deadline on purpose, with the caller holding a budget deadline
// instead). What the analyzer hunts is the bug class where NO arming
// exists anywhere on the path from the dial to the read.
//
// Mechanics, per function in the configured packages:
//
//   - conn-tainted values: net.Conn-typed locals fed by *dial*/
//     *accept* calls, net.Conn-ish parameters, and "conn fields" —
//     struct fields of interface type that some module code assigns a
//     net.Conn (e.g. rlpx's frameRW.conn).
//   - arming: a Set{,Read,Write}Deadline call, a call to a module
//     function that (transitively) arms one on a conn argument (e.g.
//     rlpx.armHandshakeDeadline), or a clock AfterFunc watchdog whose
//     callback closes the conn.
//   - an unarmed I/O on a conn from a local dial is a finding; an
//     unarmed I/O on a parameter or receiver field becomes an
//     obligation the analyzer carries to every call site up the call
//     graph, where it must meet arming or another dial.
//
// Methods named like net.Conn's own methods on types that implement
// net.Conn are exempt pass-throughs: wrappers (faultnet's fault-
// injecting conn) forward deadlines to the wrapped conn, so arming
// the wrapper arms the real socket.
type DeadlineFlow struct {
	// Packages restricts where findings are reported; obligation
	// propagation crosses the whole module.
	Packages []string
}

// Name implements Analyzer.
func (d *DeadlineFlow) Name() string { return "deadlineflow" }

// Doc implements Analyzer.
func (d *DeadlineFlow) Doc() string {
	return "conn I/O reachable from dial/accept must run under a deadline"
}

// dfSource identifies where an unarmed conn flowed from, within one
// function.
type dfSource struct {
	kind  int // dfLocal, dfParam, dfRecv
	param int // parameter index for dfParam
	pos   token.Pos
	desc  string
}

const (
	dfLocal = iota // from a dial/accept call in this function
	dfParam
	dfRecv
)

// dfSummary is one function's unarmed-I/O obligations.
type dfSummary struct {
	// obligations lists the parameter/receiver sources with unarmed
	// I/O (findings for dfLocal are emitted immediately, not carried).
	obligations []dfSource
}

type dflowChecker struct {
	prog       *ir.Program
	analyzer   string
	packages   []string
	connIface  *types.Interface
	connFields map[*types.Var]bool
	arms       ir.Memo[*ir.Func, bool]
	sums       ir.Memo[*ir.Func, *dfSummary]
	findings   []Finding
}

// Run implements Analyzer.
func (d *DeadlineFlow) Run(l *Loader, pkgs []*Package) []Finding {
	connIface, failed := netConn(l, d.Name())
	if failed != nil {
		return failed
	}
	dc := &dflowChecker{
		prog:      l.Program(pkgs),
		analyzer:  d.Name(),
		packages:  d.Packages,
		connIface: connIface,
		arms:      ir.Memo[*ir.Func, bool]{MaxDepth: ir.SummaryDepth},
	}
	dc.connFields = collectConnFields(pkgs, connIface)

	// Summarize every function in the configured packages; the
	// summary computation emits dfLocal findings as it goes, and
	// obligations that reach a configured-package function with no
	// module caller at all are reported there (the conn enters the
	// module here; nothing upstream can arm it).
	for _, f := range dc.prog.Funcs {
		if !matchesAny(f.Pkg.Path, d.Packages) {
			continue
		}
		dc.summarize(f)
	}
	return dc.findings
}

// collectConnFields finds struct fields of interface type that any
// module code assigns a net.Conn-implementing value — the "wrapped
// socket" fields like rlpx frameRW.conn through which raw I/O flows.
func collectConnFields(pkgs []*Package, conn *types.Interface) map[*types.Var]bool {
	fields := make(map[*types.Var]bool)
	addIfConn := func(pkg *Package, field types.Object, val ast.Expr) {
		v, ok := field.(*types.Var)
		if !ok || !v.IsField() {
			return
		}
		if _, isIface := v.Type().Underlying().(*types.Interface); !isIface {
			return
		}
		if t := pkg.Info.TypeOf(val); t != nil && implementsConn(t, conn) {
			fields[v] = true
		}
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						key, ok := kv.Key.(*ast.Ident)
						if !ok {
							continue
						}
						if obj := pkg.Info.Uses[key]; obj != nil {
							addIfConn(pkg, obj, kv.Value)
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if i >= len(n.Rhs) {
							break
						}
						sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
						if !ok {
							continue
						}
						if obj := pkg.Info.Uses[sel.Sel]; obj != nil {
							addIfConn(pkg, obj, n.Rhs[i])
						}
					}
				}
				return true
			})
		}
	}
	return fields
}

// summarize computes (memoized) the unarmed-I/O obligations of f,
// emitting findings for obligations that bottom out at a local dial.
// A call-graph cycle sees no obligations.
func (dc *dflowChecker) summarize(f *ir.Func) *dfSummary {
	return dc.sums.Get(f, &dfSummary{}, func() *dfSummary { return dc.compute(f) })
}

func (dc *dflowChecker) compute(f *ir.Func) *dfSummary {
	sum := &dfSummary{}
	if dc.isConnWrapperMethod(f) {
		return sum
	}

	armedIn := dc.armedFacts(f)
	armedAt := func(b *ir.Block) bool {
		// Coarse within-block ordering: a block that contains an
		// arming statement anywhere counts as armed for its own ops.
		return armedIn[b.Index].Has(0) || dc.blockArms(f, b)
	}

	report := func(src dfSource, b *ir.Block, what string, pos token.Pos) {
		switch src.kind {
		case dfLocal:
			if matchesAny(f.Pkg.Path, dc.packages) {
				dc.findings = append(dc.findings, Finding{
					Pos:      f.Position(pos),
					Analyzer: dc.analyzer,
					Message: fmt.Sprintf("%s on conn from %s runs with no deadline on any path: arm SetDeadline (or a close watchdog) between the dial and the I/O",
						what, src.desc),
				})
			}
		case dfParam, dfRecv:
			sum.obligations = append(sum.obligations, src)
		}
	}

	for _, b := range f.Blocks {
		if b.Unreachable() {
			continue
		}
		for _, s := range b.Nodes {
			inspectShallow(s, func(n ast.Node) {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return
				}
				// Direct I/O on a tainted value.
				if target, what := dc.ioTarget(f, call); target != nil {
					if armedAt(b) {
						return
					}
					if src, ok := dc.classify(f, target, 0); ok {
						report(src, b, what, call.Pos())
					}
					return
				}
				// Obligations of a resolved module callee.
				obj := ir.CalleeOf(f.Pkg, call)
				if obj == nil {
					return
				}
				callee := dc.prog.FuncOf[obj]
				if callee == nil || callee == f {
					return
				}
				sub := dc.summarize(callee)
				if len(sub.obligations) == 0 || armedAt(b) {
					return
				}
				for _, ob := range sub.obligations {
					var arg ast.Expr
					switch ob.kind {
					case dfParam:
						if ob.param < len(call.Args) {
							arg = call.Args[ob.param]
						}
					case dfRecv:
						if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
							arg = sel.X
						}
					}
					if arg == nil {
						continue
					}
					if src, ok := dc.classify(f, arg, 0); ok {
						report(src, b, fmt.Sprintf("call to %s (which reads/writes without arming)", callee.Name), call.Pos())
					}
				}
			})
		}
	}
	return sum
}

// isConnWrapperMethod: a method on a type that itself implements
// net.Conn, named after one of net.Conn's methods — a pass-through
// wrapper whose deadline calls reach the wrapped socket.
func (dc *dflowChecker) isConnWrapperMethod(f *ir.Func) bool {
	if f.Decl == nil || f.Decl.Recv == nil || len(f.Decl.Recv.List) == 0 {
		return false
	}
	switch f.Decl.Name.Name {
	case "Read", "Write", "Close", "LocalAddr", "RemoteAddr",
		"SetDeadline", "SetReadDeadline", "SetWriteDeadline":
	default:
		return false
	}
	recv := f.Pkg.Info.TypeOf(f.Decl.Recv.List[0].Type)
	return recv != nil && implementsConn(recv, dc.connIface)
}

// armedFacts solves the single-bit forward may-problem "a deadline
// was armed on some path to here".
func (dc *dflowChecker) armedFacts(f *ir.Func) []*ir.BitSet {
	in, _ := ir.Solve(f, ir.Problem{
		Dir:       ir.Forward,
		MeetUnion: true,
		Bits:      1,
		Transfer: func(b *ir.Block, facts *ir.BitSet) *ir.BitSet {
			if dc.blockArms(f, b) {
				facts.Set(0)
			}
			return facts
		},
	})
	return in
}

// blockArms reports whether the block contains an arming statement.
func (dc *dflowChecker) blockArms(f *ir.Func, b *ir.Block) bool {
	for _, s := range b.Nodes {
		// A clock watchdog: AfterFunc whose callback closes the conn
		// bounds the I/O exactly like a deadline (the simclock idiom
		// for code driven by the virtual clock).
		if dc.stmtArms(f, s, 0) || isCloseWatchdog(s) {
			return true
		}
	}
	return false
}

// stmtArms reports whether some call directly inside s arms a deadline.
func (dc *dflowChecker) stmtArms(f *ir.Func, s ast.Stmt, depth int) bool {
	arms := false
	inspectShallow(s, func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok && !arms && dc.callArms(f, call, depth) {
			arms = true
		}
	})
	return arms
}

// callArms: a Set*Deadline method call, or a call into a module
// function that (transitively) arms a deadline on a conn-ish
// argument.
func (dc *dflowChecker) callArms(f *ir.Func, call *ast.CallExpr, depth int) bool {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "SetDeadline", "SetReadDeadline", "SetWriteDeadline":
			return true
		}
	}
	if depth > 8 {
		return false
	}
	callee := dc.prog.FuncOf[ir.CalleeOf(f.Pkg, call)]
	if callee == nil {
		return false
	}
	// Only count the callee's arming when a conn-ish value is passed
	// in (otherwise it arms some unrelated conn).
	connArg := false
	for _, arg := range call.Args {
		if t := f.Pkg.Info.TypeOf(arg); t != nil {
			if implementsConn(t, dc.connIface) || isIOInterface(t) {
				connArg = true
				break
			}
		}
	}
	if !connArg {
		return false
	}
	return dc.arms.Get(callee, false, func() bool {
		for _, b := range callee.Blocks {
			for _, s := range b.Nodes {
				if dc.stmtArms(callee, s, depth+1) {
					return true
				}
			}
		}
		return false
	})
}

// isCloseWatchdog matches `x := clk.AfterFunc(d, func() { conn.Close() })`
// style statements.
func isCloseWatchdog(s ast.Stmt) bool {
	found := false
	// Function literals are entered on purpose: the callback's body is
	// where the Close is.
	ast.Inspect(s, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "AfterFunc" {
			return true
		}
		for _, arg := range call.Args {
			lit, ok := ast.Unparen(arg).(*ast.FuncLit)
			if !ok {
				continue
			}
			ast.Inspect(lit, func(m ast.Node) bool {
				if c, ok := m.(*ast.CallExpr); ok {
					if s2, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok && s2.Sel.Name == "Close" {
						found = true
					}
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// ioTarget decides whether call is a raw I/O operation on a conn-ish
// value and returns that value's expression.
func (dc *dflowChecker) ioTarget(f *ir.Func, call *ast.CallExpr) (ast.Expr, string) {
	// x.Read(...) / x.Write(...) where x is conn-ish.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		name := sel.Sel.Name
		if name == "Read" || name == "Write" {
			if dc.connish(f, sel.X) {
				return sel.X, "conn." + name
			}
		}
		// io.ReadFull(conn, buf) and friends.
		if pkgID, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := f.Pkg.Info.Uses[pkgID].(*types.PkgName); ok && pn.Imported().Path() == "io" {
				switch name {
				case "ReadFull", "ReadAtLeast", "ReadAll", "Copy", "CopyN", "WriteString":
				default:
					return nil, ""
				}
				// The conn's position (dst or src) varies: check both.
				for i := 0; i < len(call.Args) && i < 2; i++ {
					if dc.connish(f, call.Args[i]) {
						return call.Args[i], "io." + name
					}
				}
			}
		}
	}
	return nil, ""
}

// connish: the expression's type implements net.Conn, or it selects a
// known conn field.
func (dc *dflowChecker) connish(f *ir.Func, e ast.Expr) bool {
	e = ast.Unparen(e)
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if v, ok := f.Pkg.Info.Uses[sel.Sel].(*types.Var); ok && dc.connFields[v] {
			return true
		}
	}
	t := f.Pkg.Info.TypeOf(e)
	return t != nil && implementsConn(t, dc.connIface)
}

// classify traces a conn-ish expression back to its source within f:
// a local dial/accept, a parameter, or the receiver. Untraceable
// values (package state, channel receives, captured variables) return
// ok=false and are conservatively not reported.
func (dc *dflowChecker) classify(f *ir.Func, e ast.Expr, depth int) (dfSource, bool) {
	if depth > 8 {
		return dfSource{}, false
	}
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		obj := f.Pkg.Info.ObjectOf(e)
		if obj == nil {
			return dfSource{}, false
		}
		if idx, isRecv, ok := paramIndex(f, obj); ok {
			if isRecv {
				return dfSource{kind: dfRecv, pos: e.Pos(), desc: "receiver"}, true
			}
			return dfSource{kind: dfParam, param: idx, pos: e.Pos(), desc: "parameter " + obj.Name()}, true
		}
		// Local: look at everything ever assigned to it.
		if v, ok := obj.(*types.Var); ok {
			for _, rhs := range f.DefUse().AllRHS(v) {
				if rhs == nil {
					continue
				}
				if src, ok := dc.classify(f, rhs, depth+1); ok {
					return src, true
				}
			}
		}
		return dfSource{}, false
	case *ast.CallExpr:
		name := strings.ToLower(calleeName(e))
		if strings.Contains(name, "dial") || strings.Contains(name, "accept") {
			return dfSource{kind: dfLocal, pos: e.Pos(), desc: calleeName(e)}, true
		}
		return dfSource{}, false
	case *ast.SelectorExpr:
		// A conn field: classify the base (receiver fields become
		// receiver obligations).
		if v, ok := f.Pkg.Info.Uses[e.Sel].(*types.Var); ok && dc.connFields[v] {
			if base, ok := ast.Unparen(e.X).(*ast.Ident); ok {
				obj := f.Pkg.Info.Uses[base]
				if _, isRecv, ok := paramIndex(f, obj); ok && isRecv {
					return dfSource{kind: dfRecv, pos: e.Pos(), desc: "receiver field " + e.Sel.Name}, true
				}
			}
		}
		return dfSource{}, false
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return dc.classify(f, e.X, depth+1)
		}
		return dfSource{}, false
	case *ast.CompositeLit:
		// Wrapping a conn in a struct: trace the first classifiable
		// element (&wrapper{c: fd} carries fd's source).
		for _, elt := range e.Elts {
			val := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				val = kv.Value
			}
			if t := f.Pkg.Info.TypeOf(val); t == nil || (!implementsConn(t, dc.connIface) && !isIOInterface(t)) {
				continue
			}
			if src, ok := dc.classify(f, val, depth+1); ok {
				return src, true
			}
		}
		return dfSource{}, false
	}
	return dfSource{}, false
}

// paramIndex locates obj among f's parameters (index) or receiver.
func paramIndex(f *ir.Func, obj types.Object) (idx int, isRecv, ok bool) {
	v, isVar := obj.(*types.Var)
	if !isVar {
		return 0, false, false
	}
	if v == ir.RecvVar(f) {
		return 0, true, true
	}
	for i, p := range ir.ParamVars(f) {
		if p == v {
			return i, false, true
		}
	}
	return 0, false, false
}

// isIOInterface: io.Reader / io.Writer / io.ReadWriter and friends —
// the interface shapes conns hide behind in wrappers.
func isIOInterface(t types.Type) bool {
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	hasRead, hasWrite := false, false
	for i := 0; i < iface.NumMethods(); i++ {
		switch iface.Method(i).Name() {
		case "Read":
			hasRead = true
		case "Write":
			hasWrite = true
		}
	}
	return hasRead || hasWrite
}
