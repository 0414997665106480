package lint

import (
	"fmt"
	"go/ast"
	"go/types"

	"repro/internal/lint/ir"
)

// BoundedChan pins the discipline the Finder's dial queue follows
// (one bounded ring, Config.QueueCap, finder.queue_dropped): queues
// between goroutines must be bounded AND never silently become
// back-pressure points.
//
// Two rules:
//
//   - Every make(chan T, n) capacity must be provably capped — a
//     constant, a small fixed-width integer, or a value clamped by a
//     dominating guard. The verdict is the SinkChanCap record of the
//     module's one pessimistic ir.TaintAnalysis pass (the same run
//     boundedalloc reads), so `if n > max { n = max }` clamping works
//     here too — including a clamp inside a module-local callee. An
//     attacker- or config-sized capacity is a hidden unbounded buffer.
//
//   - Every send into a channel the package visibly made buffered
//     must sit under a select with an escape arm (a default clause or
//     a receive case such as a timeout or ctx.Done()). A plain send
//     into a bounded queue blocks the producer exactly when the queue
//     is doing its job; the dial queue drops and counts instead.
//
// Channels whose construction is not visible in the package
// (parameters, fields assigned elsewhere) and unbuffered channels
// (where blocking is the point of the rendezvous) are exempt from the
// send rule.
type BoundedChan struct {
	// Packages restricts the check; empty means every module package.
	Packages []string
}

// Name implements Analyzer.
func (b *BoundedChan) Name() string { return "boundedchan" }

// Doc implements Analyzer.
func (b *BoundedChan) Doc() string {
	return "channel capacities must be constant or clamped; sends into bounded queues need a select escape arm"
}

// Run implements Analyzer.
func (b *BoundedChan) Run(l *Loader, pkgs []*Package) []Finding {
	inScope := func(path string) bool { return len(b.Packages) == 0 || matchesAny(path, b.Packages) }
	var findings []Finding
	// Capacities: the module's one pessimistic taint pass already holds
	// the flow-sensitive boundedness verdict (guards, clamps,
	// callee-summary caps) at every make(chan) site.
	for _, sink := range l.Program(pkgs).PessimisticSinks() {
		if sink.Kind != ir.SinkChanCap || !inScope(sink.Fn.Pkg.Path) {
			continue
		}
		findings = append(findings, Finding{
			Pos:      sink.Fn.Position(sink.Pos),
			Analyzer: b.Name(),
			Message: fmt.Sprintf("channel capacity %s is not provably capped: use a constant or clamp it before make",
				sink.Expr),
		})
	}
	for _, pkg := range pkgs {
		if !inScope(pkg.Path) {
			continue
		}
		c := &chanChecker{pkg: pkg, analyzer: b.Name(), buffered: make(map[types.Object]bool)}
		c.collectChans()
		c.checkSends()
		findings = append(findings, c.findings...)
	}
	return findings
}

type chanChecker struct {
	pkg      *Package
	analyzer string
	findings []Finding

	// buffered maps channel-holding objects (locals and struct
	// fields) to whether the make that created them had a capacity.
	buffered map[types.Object]bool
}

// collectChans records, for every object the package assigns a
// visible make(chan), whether that channel is buffered. An object
// assigned both ways keeps the buffered verdict: one buffered
// assignment is enough to demand the send discipline.
func (c *chanChecker) collectChans() {
	for _, file := range c.pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) != len(s.Rhs) {
					return true
				}
				for i, rhs := range s.Rhs {
					buf, ok := c.makeChanBuffered(rhs)
					if !ok {
						continue
					}
					if obj := c.chanTarget(s.Lhs[i]); obj != nil {
						c.record(obj, buf)
					}
				}
			case *ast.ValueSpec:
				if len(s.Names) != len(s.Values) {
					return true
				}
				for i, v := range s.Values {
					buf, ok := c.makeChanBuffered(v)
					if !ok {
						continue
					}
					if obj := c.pkg.Info.Defs[s.Names[i]]; obj != nil {
						c.record(obj, buf)
					}
				}
			case *ast.CompositeLit:
				for _, elt := range s.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					buf, ok := c.makeChanBuffered(kv.Value)
					if !ok {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); ok {
						if obj := c.pkg.Info.Uses[key]; obj != nil {
							c.record(obj, buf)
						}
					}
				}
			}
			return true
		})
	}
}

func (c *chanChecker) record(obj types.Object, buffered bool) {
	if buffered {
		c.buffered[obj] = true
	} else if _, seen := c.buffered[obj]; !seen {
		c.buffered[obj] = false
	}
}

// makeChanBuffered reports whether expr is make(chan T[, n]) and, if
// so, whether it is buffered (a capacity argument that is not the
// constant zero).
func (c *chanChecker) makeChanBuffered(expr ast.Expr) (buffered, isMakeChan bool) {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false, false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false, false
	}
	if b, ok := c.pkg.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
		return false, false
	}
	tv, ok := c.pkg.Info.Types[call.Args[0]]
	if !ok {
		return false, false
	}
	if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
		return false, false
	}
	if len(call.Args) < 2 {
		return false, true
	}
	if capTV, ok := c.pkg.Info.Types[call.Args[1]]; ok && capTV.Value != nil && capTV.Value.String() == "0" {
		return false, true
	}
	return true, true
}

// chanTarget resolves the object a channel assignment lands in: a
// plain identifier's var or the struct field of a selector.
func (c *chanChecker) chanTarget(lhs ast.Expr) types.Object {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		return c.pkg.Info.ObjectOf(e)
	case *ast.SelectorExpr:
		if v, ok := c.pkg.Info.Uses[e.Sel].(*types.Var); ok && v.IsField() {
			return v
		}
	}
	return nil
}

// chanObj resolves the object behind a channel expression at a send
// site (ident or field selector).
func (c *chanChecker) chanObj(expr ast.Expr) types.Object {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return c.pkg.Info.Uses[e]
	case *ast.SelectorExpr:
		if v, ok := c.pkg.Info.Uses[e.Sel].(*types.Var); ok && v.IsField() {
			return v
		}
	}
	return nil
}

// checkSends checks every send statement of the package. A send that
// is a comm clause of a select WITH an escape arm is exempt; ast.Inspect
// is pre-order, so each select is seen before the sends inside it.
func (c *chanChecker) checkSends() {
	escaped := make(map[*ast.SendStmt]bool)
	for _, file := range c.pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.SelectStmt:
				if !selectHasEscape(s) {
					break
				}
				for _, cc := range s.Body.List {
					if send, ok := cc.(*ast.CommClause).Comm.(*ast.SendStmt); ok {
						escaped[send] = true
					}
				}
			case *ast.SendStmt:
				c.checkSend(s, escaped[s])
			}
			return true
		})
	}
}

// checkSend reports a send on a visibly-buffered channel that is not
// under a select escape arm.
func (c *chanChecker) checkSend(s *ast.SendStmt, inEscape bool) {
	obj := c.chanObj(s.Chan)
	if obj == nil {
		return
	}
	buffered, known := c.buffered[obj]
	if !known || !buffered {
		return
	}
	if inEscape {
		return
	}
	c.findings = append(c.findings, Finding{
		Pos:      c.pkg.Fset.Position(s.Pos()),
		Analyzer: c.analyzer,
		Message: fmt.Sprintf("blocking send on bounded channel %s: put it under a select with a default or timeout arm so a full queue degrades instead of stalling the producer",
			types.ExprString(s.Chan)),
	})
}

// selectHasEscape reports whether a select can complete without the
// send succeeding: a default clause, or a receive case (timeout,
// ctx.Done(), shutdown signal).
func selectHasEscape(s *ast.SelectStmt) bool {
	for _, cc := range s.Body.List {
		clause, ok := cc.(*ast.CommClause)
		if !ok {
			continue
		}
		if clause.Comm == nil {
			return true // default clause
		}
		switch comm := clause.Comm.(type) {
		case *ast.ExprStmt, *ast.AssignStmt:
			_ = comm
			return true // receive arm
		}
	}
	return false
}
