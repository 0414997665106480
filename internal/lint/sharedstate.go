package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"

	"repro/internal/lint/ir"
)

// SharedState flags struct fields and captured variables reached from
// more than one goroutine without a consistent guard. For every go
// statement in the configured packages it determines what the spawned
// goroutine shares with its spawner — captured variables of a go'd
// literal, reference arguments and the receiver of a go'd call — then
// compares the accesses on both sides (and between sibling goroutines
// of the same spawner):
//
//   - every access must hold one common mutex (a lockset walk reusing
//     locknet's tracking, with the lock name normalized over the
//     shared root so `t.mu` in the goroutine matches `s.mu` in the
//     spawner), or
//   - every access must go through sync/atomic (atomic-typed fields
//     and sync.* fields are self-synchronizing and skipped), or
//   - the spawner must confine the value: accesses only before the go
//     statement, or provably after a join (a wg.Wait() or channel
//     receive that dominates the access).
//
// A data race needs a write, so read/read sharing is never flagged.
// The check is direct-access only on each side (method calls on the
// shared object are not expanded); := redefinitions are fresh
// per-iteration variables and do not count as writes to the captured
// one. Aliases within each side are folded through ir.Escape, so
// copying the root into another variable does not hide an access.
type SharedState struct {
	// Packages restricts where go statements are checked; empty means
	// every module package.
	Packages []string
}

// Name implements Analyzer.
func (ss *SharedState) Name() string { return "sharedstate" }

// Doc implements Analyzer.
func (ss *SharedState) Doc() string {
	return "state reached from more than one goroutine must be mutex-guarded, atomic, or confined"
}

// Run implements Analyzer.
func (ss *SharedState) Run(l *Loader, pkgs []*Package) []Finding {
	prog := l.Program(pkgs)
	c := &sharedChecker{prog: prog}
	var findings []Finding
	for _, f := range prog.Funcs {
		if len(ss.Packages) > 0 && !matchesAny(f.Pkg.Path, ss.Packages) {
			continue
		}
		findings = append(findings, c.checkSpawner(ss.Name(), f)...)
	}
	return findings
}

type sharedChecker struct {
	prog *ir.Program
}

// spawnInfo is one go statement with its resolved target and the
// values shared across it.
type spawnInfo struct {
	g     *ast.GoStmt
	at    stmtAt
	fn    *ir.Func // spawned function (nil when unresolvable)
	roots []sharedRoot
}

// sharedRoot pairs the spawner-side variable with the goroutine-side
// variable naming the same object (identical for captures).
type sharedRoot struct {
	spawnerVar *types.Var
	goVar      *types.Var
}

// ssAccess is one access to a shared root on one side.
type ssAccess struct {
	field  *types.Var // nil: the variable itself / its pointee
	write  bool
	atomic bool // performed through a sync/atomic package call
	held   map[string]bool
	pos    token.Pos
}

func (c *sharedChecker) checkSpawner(analyzer string, f *ir.Func) []Finding {
	spawns := c.spawnsOf(f)
	if len(spawns) == 0 {
		return nil
	}
	var findings []Finding
	for _, sp := range spawns {
		if sp.fn == nil {
			continue
		}
		for _, root := range sp.roots {
			capture := root.spawnerVar == root.goVar
			goAccs := c.goroutineAccesses(sp.fn, root.goVar, capture)
			if len(goAccs) == 0 {
				continue
			}
			spAccs := c.spawnerAccessesAfter(f, sp, root.spawnerVar, capture)
			findings = append(findings, c.judge(analyzer, f, sp, root, goAccs, spAccs)...)
		}
	}
	// Sibling goroutines of one spawner racing each other.
	for i := 0; i < len(spawns); i++ {
		for j := i + 1; j < len(spawns); j++ {
			findings = append(findings, c.judgeSiblings(analyzer, f, spawns[i], spawns[j])...)
		}
	}
	return findings
}

// spawnsOf collects every go statement of f with its shared roots.
func (c *sharedChecker) spawnsOf(f *ir.Func) []spawnInfo {
	pkg := f.Pkg
	var out []spawnInfo
	for _, b := range f.Blocks {
		for idx, s := range b.Nodes {
			g, ok := s.(*ast.GoStmt)
			if !ok {
				continue
			}
			sp := spawnInfo{g: g, at: stmtAt{s: s, b: b, idx: idx}}
			spawned, _ := c.prog.ResolveSpawn(pkg, g)
			sp.fn = spawned
			if spawned != nil {
				if lit, isLit := ast.Unparen(g.Call.Fun).(*ast.FuncLit); isLit {
					for _, v := range ir.FreeVars(pkg, lit) {
						sp.roots = append(sp.roots, sharedRoot{spawnerVar: v, goVar: v})
					}
				} else if sel, isSel := ast.Unparen(g.Call.Fun).(*ast.SelectorExpr); isSel {
					if rv := ir.RecvVar(spawned); rv != nil && ir.IsRefLike(rv.Type()) {
						if sv := ir.RootVar(pkg, sel.X); sv != nil {
							sp.roots = append(sp.roots, sharedRoot{spawnerVar: sv, goVar: rv})
						}
					}
				}
				params := ir.ParamVars(spawned)
				for argIdx, arg := range g.Call.Args {
					if argIdx >= len(params) || params[argIdx] == nil {
						continue
					}
					pv := params[argIdx]
					if !ir.IsRefLike(pv.Type()) {
						continue
					}
					if sv := ir.RootVar(pkg, arg); sv != nil {
						sp.roots = append(sp.roots, sharedRoot{spawnerVar: sv, goVar: pv})
					}
				}
			}
			out = append(out, sp)
		}
	}
	return out
}

// goroutineAccesses collects every direct access to root (or an
// alias of it) inside the spawned function's body.
func (c *sharedChecker) goroutineAccesses(fn *ir.Func, root *types.Var, capture bool) []ssAccess {
	var accs []ssAccess
	walkHeld(fn.Pkg, fn.Body.List, map[string]bool{}, func(s ast.Stmt, held map[string]bool) {
		collectAccesses(fn.Pkg, s, held, fn.Escape(), root, capture, func(a ssAccess) {
			accs = append(accs, a)
		})
	})
	return accs
}

// spawnerAccessesAfter collects the spawner's direct accesses to root
// that can run concurrently with the goroutine: statements reachable
// after the go statement, minus those behind a dominating join
// (wg.Wait or a channel receive).
func (c *sharedChecker) spawnerAccessesAfter(f *ir.Func, sp spawnInfo, root *types.Var, capture bool) []ssAccess {
	after := afterStmts(f, sp.at.b, sp.at.idx)
	afterSet := make(map[ast.Stmt]stmtAt, len(after))
	for _, at := range after {
		afterSet[at.s] = at
	}
	joins := joinStmts(f, after)
	var accs []ssAccess
	walkHeld(f.Pkg, f.Body.List, map[string]bool{}, func(s ast.Stmt, held map[string]bool) {
		collectAccesses(f.Pkg, s, held, f.Escape(), root, capture, func(a ssAccess) {
			st := enclosingNarrow(f, a.pos)
			if st == nil {
				return
			}
			at, ok := afterSet[st]
			if !ok || st == ast.Stmt(sp.g) {
				return
			}
			if isJoined(f.Dom(), joins, at) {
				return
			}
			accs = append(accs, a)
		})
	})
	return accs
}

// judge compares goroutine-side and spawner-side accesses per
// field and reports unguarded write sharing.
func (c *sharedChecker) judge(analyzer string, f *ir.Func, sp spawnInfo, root sharedRoot, goAccs, spAccs []ssAccess) []Finding {
	if len(spAccs) == 0 {
		return nil
	}
	goLine := f.Position(sp.g.Pos()).Line
	var findings []Finding
	racyFields(goAccs, spAccs, func(field *types.Var, ga, sa, all []ssAccess) {
		findings = append(findings, Finding{
			Pos:      f.Position(firstWritePos(all)),
			Analyzer: analyzer,
			Message: fmt.Sprintf("%s is shared with the goroutine spawned at line %d but not consistently guarded (goroutine holds {%s}, spawner holds {%s}): hold one mutex on both sides, use sync/atomic, or confine it before the go statement",
				accessDesc(field, root.spawnerVar), goLine, commonHeldList(ga), commonHeldList(sa)),
		})
	})
	return findings
}

// racyFields calls report for every storage key both sides access,
// some access writes, and no common guard protects: the two sides'
// accesses to it, and their concatenation.
func racyFields(a, b []ssAccess, report func(field *types.Var, fa, fb, all []ssAccess)) {
	for _, field := range sharedFields(a, b) {
		fa, fb := filterField(a, field), filterField(b, field)
		all := append(append([]ssAccess(nil), fa...), fb...)
		if anyWrite(all) && !guarded(all) {
			report(field, fa, fb, all)
		}
	}
}

// judgeSiblings checks two goroutines spawned by the same function
// against each other over the roots they both receive.
func (c *sharedChecker) judgeSiblings(analyzer string, f *ir.Func, a, b spawnInfo) []Finding {
	if a.fn == nil || b.fn == nil {
		return nil
	}
	esc := f.Escape()
	var findings []Finding
	for _, ra := range a.roots {
		for _, rb := range b.roots {
			if !esc.MayAlias(ra.spawnerVar, rb.spawnerVar) {
				continue
			}
			ga := c.goroutineAccesses(a.fn, ra.goVar, ra.spawnerVar == ra.goVar)
			gb := c.goroutineAccesses(b.fn, rb.goVar, rb.spawnerVar == rb.goVar)
			if len(ga) == 0 || len(gb) == 0 {
				continue
			}
			lineA := f.Position(a.g.Pos()).Line
			racyFields(ga, gb, func(field *types.Var, fa, fb, _ []ssAccess) {
				findings = append(findings, Finding{
					Pos:      f.Position(b.g.Pos()),
					Analyzer: analyzer,
					Message: fmt.Sprintf("%s is shared with the sibling goroutine spawned at line %d but not consistently guarded (this goroutine holds {%s}, sibling holds {%s}): hold one mutex in both goroutines or use sync/atomic",
						accessDesc(field, ra.spawnerVar), lineA, commonHeldList(fb), commonHeldList(fa)),
				})
			})
		}
	}
	return findings
}

// accessDesc renders the storage a finding is about: a struct field,
// memory reached through the shared value, or (when the key is the
// root itself) the captured variable.
func accessDesc(field, root *types.Var) string {
	switch {
	case field == nil:
		return fmt.Sprintf("memory reached through %s", root.Name())
	case field == root:
		return root.Name()
	default:
		return fmt.Sprintf("field %s of %s", field.Name(), root.Name())
	}
}

// sharedFields lists the distinct field keys present on both sides,
// ordered deterministically (nil key — the variable itself — first).
func sharedFields(a, b []ssAccess) []*types.Var {
	onA := make(map[*types.Var]bool)
	for _, x := range a {
		onA[x.field] = true
	}
	var out []*types.Var
	seen := make(map[*types.Var]bool)
	for _, x := range b {
		if onA[x.field] && !seen[x.field] {
			seen[x.field] = true
			out = append(out, x.field)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := token.NoPos, token.NoPos
		if out[i] != nil {
			pi = out[i].Pos()
		}
		if out[j] != nil {
			pj = out[j].Pos()
		}
		return pi < pj
	})
	return out
}

func filterField(accs []ssAccess, field *types.Var) []ssAccess {
	var out []ssAccess
	for _, a := range accs {
		if a.field == field {
			out = append(out, a)
		}
	}
	return out
}

func anyWrite(accs []ssAccess) bool {
	for _, a := range accs {
		if a.write {
			return true
		}
	}
	return false
}

func firstWritePos(accs []ssAccess) token.Pos {
	best := token.NoPos
	for _, a := range accs {
		if a.write && (best == token.NoPos || a.pos < best) {
			best = a.pos
		}
	}
	if best == token.NoPos && len(accs) > 0 {
		best = accs[0].pos
	}
	return best
}

// guarded reports whether the access set is consistently protected:
// every access is atomic, or one normalized lock is held at every
// access.
func guarded(accs []ssAccess) bool {
	allAtomic := true
	for _, a := range accs {
		if !a.atomic {
			allAtomic = false
			break
		}
	}
	if allAtomic {
		return true
	}
	for _, a := range accs {
		if a.atomic {
			// An atomic access holds no lock; mixing atomic and plain
			// accesses to the same field is itself a race.
			return false
		}
	}
	return len(commonHeld(accs)) > 0
}

// commonHeld intersects the locksets of every access.
func commonHeld(accs []ssAccess) map[string]bool {
	var common map[string]bool
	for _, a := range accs {
		if common == nil {
			common = maps.Clone(a.held)
			continue
		}
		for k := range common {
			if !a.held[k] {
				delete(common, k)
			}
		}
	}
	return common
}

// commonHeldList renders the locks held at every access of one side.
func commonHeldList(accs []ssAccess) string { return heldList(commonHeld(accs)) }

// joinStmts finds the statements in the after-region that
// happen-after the goroutine's work: sync.WaitGroup.Wait calls,
// channel receives, and ranges over channels.
func joinStmts(f *ir.Func, after []stmtAt) []stmtAt {
	pkg := f.Pkg
	var out []stmtAt
	for _, at := range after {
		if rs, ok := at.s.(*ast.RangeStmt); ok {
			if isChanType(pkg.Info.TypeOf(rs.X)) {
				out = append(out, at)
			}
			continue
		}
		if !simpleStmt(at.s) {
			continue
		}
		found := false
		inspectShallow(at.s, func(n ast.Node) {
			if found {
				return
			}
			switch n := n.(type) {
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					found = true
				}
			case *ast.CallExpr:
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
					if fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
						found = true
					}
				}
			}
		})
		if found {
			out = append(out, at)
		}
	}
	return out
}

// isJoined reports whether a join dominates the access at `at`.
func isJoined(dom []*ir.BitSet, joins []stmtAt, at stmtAt) bool {
	for _, j := range joins {
		if j.b == at.b {
			if j.idx < at.idx {
				return true
			}
			continue
		}
		if ir.Dominates(dom, j.b, at.b) {
			return true
		}
	}
	return false
}

// enclosingNarrow maps pos to the narrowest block-resident statement
// containing it (EnclosingStmt returns the first, which for a
// position inside an if-body is the whole IfStmt header).
func enclosingNarrow(f *ir.Func, pos token.Pos) ast.Stmt {
	var best ast.Stmt
	for _, b := range f.Blocks {
		for _, s := range b.Nodes {
			if s.Pos() <= pos && pos < s.End() {
				if best == nil || (s.Pos() >= best.Pos() && s.End() <= best.End()) {
					best = s
				}
			}
		}
	}
	return best
}

// collectAccesses finds direct accesses to variables selected by
// match inside one statement or headline expression, classifying
// each as read/write/atomic and stamping the (normalized) lockset.
//
// Three access classes, told apart by the field key so only accesses
// to the same storage pair up:
//
//   - field accesses (x.f) key on the field object and match any
//     alias of the root: both sides touch the pointee's field.
//   - memory accesses (x[i], *p, append(x, ...)) key on nil and match
//     any alias: both sides touch storage reached through the value.
//   - cell accesses (the bare identifier: n++, reading n) key on the
//     root variable itself and only count for a closure-captured
//     root, where both goroutines literally share the variable's
//     storage. Rebinding a local *alias* is private to its own
//     binding and is not an access at all.
//
// Field accesses match on MayAlias (a pointer read out of anywhere in
// the class can reach the struct); raw-memory accesses match on
// MayAliasTight so two slices that merely contain the same element
// pointers are not mistaken for the same backing array.
func collectAccesses(pkg *Package, stmt ast.Stmt, held map[string]bool, esc *ir.Escape, root *types.Var, capture bool, emit func(ssAccess)) {
	node := ir.Headline(stmt)
	if node == nil {
		return
	}
	match := func(v *types.Var) bool { return esc.MayAlias(v, root) }
	matchMem := func(v *types.Var) bool { return esc.MayAliasTight(v, root) }
	selW, cellW, memW := writeTargets(pkg, node)
	atomicRanges := atomicCallRanges(pkg, node)
	norm := normalizeHeld(held, root.Name())
	skipIdents := make(map[*ast.Ident]bool)
	record := func(field *types.Var, write bool, pos token.Pos) {
		emit(ssAccess{
			field:  field,
			write:  write,
			atomic: inRanges(atomicRanges, pos),
			held:   norm,
			pos:    pos,
		})
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectorExpr:
			base, ok := stripToIdent(n.X)
			if !ok {
				return true
			}
			skipIdents[base] = true
			v := ir.ObjVar(pkg, base)
			if v == nil || !match(v) {
				return true
			}
			field, isField := pkg.Info.Uses[n.Sel].(*types.Var)
			if !isField || !field.IsField() {
				return true // method or package selector: not a field access
			}
			if selfSyncType(field.Type()) {
				return true
			}
			write := selW[n]
			if isChanType(field.Type()) && !write {
				return true // channel reads are synchronization, not data
			}
			record(field, write, n.Pos())
		case *ast.IndexExpr, *ast.SliceExpr, *ast.StarExpr:
			var baseExpr ast.Expr
			switch x := n.(type) {
			case *ast.IndexExpr:
				baseExpr = x.X
			case *ast.SliceExpr:
				baseExpr = x.X
			case *ast.StarExpr:
				baseExpr = x.X
			}
			base, ok := stripToIdent(baseExpr)
			if !ok {
				return true
			}
			skipIdents[base] = true
			v := ir.ObjVar(pkg, base)
			if v == nil || !matchMem(v) || selfSyncType(v.Type()) {
				return true
			}
			record(nil, memW[base], n.Pos())
		case *ast.Ident:
			if skipIdents[n] {
				return true
			}
			if _, isDef := pkg.Info.Defs[n]; isDef {
				return true // declaration site, not an access
			}
			v := ir.ObjVar(pkg, n)
			if v == nil || selfSyncType(v.Type()) {
				return true
			}
			if memW[n] && matchMem(v) {
				// append/delete/clear/copy through a bare identifier
				// writes the structure the value references.
				record(nil, true, n.Pos())
				return true
			}
			if !capture || v != root {
				return true // an alias's own binding is private storage
			}
			write := cellW[n]
			if isChanType(v.Type()) && !write {
				return true
			}
			record(root, write, n.Pos())
		}
		return true
	})
}

// writeTargets analyzes a statement for the expressions it writes:
// the innermost field selector of each written chain (selW), plain
// identifiers rebound wholesale (cellW), and identifiers whose
// referenced storage is written through an index, deref, or mutating
// builtin (memW). A := defining a genuinely new variable is not a
// write to any shared one (per-iteration loop variables are fresh
// instances).
func writeTargets(pkg *Package, node ast.Node) (selW map[*ast.SelectorExpr]bool, cellW, memW map[*ast.Ident]bool) {
	selW = make(map[*ast.SelectorExpr]bool)
	cellW = make(map[*ast.Ident]bool)
	memW = make(map[*ast.Ident]bool)
	markWrite := func(expr ast.Expr, define, forceMem bool) {
		sel, id, mem := writeChain(expr)
		if sel != nil {
			selW[sel] = true
			return
		}
		if id == nil {
			return
		}
		if mem || forceMem {
			memW[id] = true
			return
		}
		if define {
			if _, isDef := pkg.Info.Defs[id]; isDef {
				return // fresh variable
			}
		}
		cellW[id] = true
	}
	if stmt, ok := node.(ast.Stmt); ok {
		for _, w := range stmtWrites(pkg, stmt) {
			markWrite(w.target, w.define, w.builtin != nil)
		}
	}
	return selW, cellW, memW
}

// writeChain walks a written expression down to the innermost field
// selector rooted at a plain identifier, or the identifier itself.
// mem reports whether the write goes through the identifier's value
// (an index or deref) rather than rebinding the identifier:
// `x.f[i].g = v` writes through field f of x; `x[i] = v` and
// `*x = v` write storage x references; `x = v` rebinds x.
func writeChain(expr ast.Expr) (sel *ast.SelectorExpr, id *ast.Ident, mem bool) {
	cur := expr
	through := false
	for {
		switch x := ast.Unparen(cur).(type) {
		case *ast.IndexExpr:
			cur, through = x.X, true
		case *ast.SliceExpr:
			cur, through = x.X, true
		case *ast.StarExpr:
			cur, through = x.X, true
		case *ast.SelectorExpr:
			if base, ok := stripToIdent(x.X); ok {
				return x, base, false
			}
			cur = x.X
		case *ast.Ident:
			return nil, x, through
		default:
			return nil, nil, false
		}
	}
}

// stripToIdent unwraps parens and derefs down to a plain identifier.
func stripToIdent(expr ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := expr.(type) {
		case *ast.ParenExpr:
			expr = x.X
		case *ast.StarExpr:
			expr = x.X
		case *ast.Ident:
			return x, true
		default:
			return nil, false
		}
	}
}

// atomicCallRanges returns the source ranges of calls into the
// sync/atomic package (atomic.AddInt64(&x.n, 1) style); accesses
// inside them are atomic by construction.
func atomicCallRanges(pkg *Package, node ast.Node) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
				out = append(out, [2]token.Pos{call.Pos(), call.End()})
			}
		}
		return true
	})
	return out
}

func inRanges(ranges [][2]token.Pos, pos token.Pos) bool {
	for _, r := range ranges {
		if r[0] <= pos && pos < r[1] {
			return true
		}
	}
	return false
}

// normalizeHeld rewrites lock names rooted at the shared variable to
// a side-independent form, so `t.mu` held in a method goroutine
// matches `s.mu` held in the spawner when t and s name the same
// object.
func normalizeHeld(held map[string]bool, rootName string) map[string]bool {
	out := make(map[string]bool, len(held))
	for k := range held {
		switch {
		case k == rootName:
			out["@"] = true
		case strings.HasPrefix(k, rootName+"."):
			out["@"+k[len(rootName):]] = true
		default:
			out[k] = true
		}
	}
	return out
}

// selfSyncType reports whether t is a sync or sync/atomic type (or a
// pointer to one): such values synchronize themselves.
func selfSyncType(t types.Type) bool {
	switch x := t.(type) {
	case *types.Pointer:
		return selfSyncType(x.Elem())
	case *types.Named:
		if p := x.Obj().Pkg(); p != nil {
			path := p.Path()
			return path == "sync" || path == "sync/atomic"
		}
	}
	return false
}

func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
