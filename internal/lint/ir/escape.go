package ir

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the flow-insensitive alias/escape analysis the
// concurrency analyzers (frozenpublish, sharedstate) build on. Per
// function it answers two questions:
//
//   - May-alias: which local variables can reach the same object? The
//     analysis runs union-find over *types.Var, merging classes on
//     every assignment that copies a reference (pointer, slice, map,
//     chan, interface, func) or takes an address. Value copies
//     (`c := *p`, struct assignment) deliberately do NOT merge — that
//     is what makes "copy, then publish" a recognizably safe idiom.
//   - Escape: through which operations does an object leave the
//     current goroutine or frame? Each alias class accumulates
//     EscapeSites: go-statement arguments and captures, channel
//     sends, atomic.Pointer/atomic.Value Stores, stores reachable
//     from package-level variables, plain call arguments, returns.
//
// The analysis is deliberately conservative in the may direction for
// aliasing (a selector or index read merges with its base: a value
// pulled out of a struct may share the struct's reachable heap) and
// in the must direction for escapes (a call result is treated as a
// fresh object; interprocedural effects are the analyzers' job via
// Memo).
type Escape struct {
	f      *Func
	parent varSets
	sites  map[*types.Var][]EscapeSite // keyed by class representative
	all    map[*types.Var]bool         // every var ever observed

	// tparent is a second, tighter union-find: classes merge only
	// through flows that preserve the value's own backing storage —
	// whole-value copies, conversions, address-of, reslicing, append
	// to the same slice. Element extraction (range values, x[i]) and
	// element insertion (append args, composite literals) do NOT
	// merge: a slice that merely contains the same pointers is not
	// the same container. MayAliasTight answers over this relation.
	tparent varSets
}

// EscapeKind classifies how a value leaves its owning goroutine/frame.
type EscapeKind uint8

const (
	// EscGoArg: passed as an argument (or receiver) of a go'd call.
	EscGoArg EscapeKind = iota
	// EscGoCapture: captured by a function literal started with go.
	EscGoCapture
	// EscChanSend: sent on a channel.
	EscChanSend
	// EscAtomicStore: published via an atomic.Value/atomic.Pointer
	// Store method.
	EscAtomicStore
	// EscGlobal: stored into, or read out of, a package-level variable.
	EscGlobal
	// EscArg: passed to an ordinary (non-go) call.
	EscArg
	// EscReturn: returned to the caller.
	EscReturn
)

func (k EscapeKind) String() string {
	switch k {
	case EscGoArg:
		return "go-arg"
	case EscGoCapture:
		return "go-capture"
	case EscChanSend:
		return "chan-send"
	case EscAtomicStore:
		return "atomic-store"
	case EscGlobal:
		return "global"
	case EscArg:
		return "arg"
	case EscReturn:
		return "return"
	}
	return "?"
}

// CrossesGoroutine reports whether this escape kind makes the object
// visible to another goroutine (as opposed to merely another frame).
func (k EscapeKind) CrossesGoroutine() bool {
	switch k {
	case EscGoArg, EscGoCapture, EscChanSend, EscAtomicStore, EscGlobal:
		return true
	}
	return false
}

// EscapeSite is one program point where an alias class escapes.
type EscapeSite struct {
	Kind EscapeKind
	Pos  token.Pos
}

// BuildEscape runs the alias/escape analysis over f's body. Nested
// function literals are skipped — each literal is its own Func with
// its own Escape; the capture relationship is visible to the spawner
// through FreeVars and the EscGoCapture sites recorded here.
func BuildEscape(f *Func) *Escape {
	e := &Escape{
		f:       f,
		parent:  make(varSets),
		sites:   make(map[*types.Var][]EscapeSite),
		all:     make(map[*types.Var]bool),
		tparent: make(varSets),
	}
	if f.Body == nil {
		return e
	}
	ast.Inspect(f.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			e.assign(n)
		case *ast.ValueSpec:
			if len(n.Values) == len(n.Names) {
				for i, name := range n.Names {
					e.flow(name, n.Values[i], true)
				}
			}
		case *ast.RangeStmt:
			// Key/value pull (possibly reference-typed) elements out of
			// the ranged container: may-alias with its root, but never
			// tight-alias — an element is not its container.
			for _, kv := range []ast.Expr{n.Key, n.Value} {
				if kv != nil {
					e.flow(kv, n.X, false)
				}
			}
		case *ast.SendStmt:
			for _, v := range e.ValueRoots(n.Value) {
				e.mark(v, EscChanSend, n.Pos())
			}
		case *ast.GoStmt:
			e.goStmt(n)
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				for _, v := range e.ValueRoots(r) {
					e.mark(v, EscReturn, r.Pos())
				}
			}
		case *ast.CallExpr:
			e.call(n)
		}
		return true
	})
	return e
}

// varSets is a union-find over variables. The earliest-declared
// member represents its class, so results do not depend on the order
// the merges were discovered in.
type varSets map[*types.Var]*types.Var

// rep returns the class representative of v with path compression.
func (s varSets) rep(v *types.Var) *types.Var {
	r := v
	for {
		p, ok := s[r]
		if !ok || p == r {
			break
		}
		r = p
	}
	for v != r {
		next := s[v]
		s[v] = r
		v = next
	}
	return r
}

// union merges the classes of a and b, returning the surviving and the
// absorbed representative (equal when they already were one class).
func (s varSets) union(a, b *types.Var) (keep, gone *types.Var) {
	keep, gone = s.rep(a), s.rep(b)
	if keep != gone {
		if gone.Pos() < keep.Pos() {
			keep, gone = gone, keep
		}
		s[gone] = keep
	}
	return keep, gone
}

func (e *Escape) union(a, b *types.Var) {
	if a == nil || b == nil {
		return
	}
	e.all[a], e.all[b] = true, true
	if keep, gone := e.parent.union(a, b); keep != gone {
		e.sites[keep] = append(e.sites[keep], e.sites[gone]...)
		delete(e.sites, gone)
	}
}

func (e *Escape) mark(v *types.Var, kind EscapeKind, pos token.Pos) {
	if v == nil {
		return
	}
	e.all[v] = true
	r := e.parent.rep(v)
	e.sites[r] = append(e.sites[r], EscapeSite{Kind: kind, Pos: pos})
}

// assign merges alias classes across an assignment.
func (e *Escape) assign(s *ast.AssignStmt) {
	switch s.Tok {
	case token.ASSIGN, token.DEFINE:
	default:
		// Compound assignments (+=, etc.) operate on scalars/strings;
		// no reference flows.
		return
	}
	if len(s.Lhs) == len(s.Rhs) {
		for i := range s.Lhs {
			e.flow(s.Lhs[i], s.Rhs[i], true)
		}
	}
	// Multi-value RHS is a call or map/chan/type-assert comma-ok: the
	// results are fresh objects as far as this frame can prove.
}

// flow records the effect of one lhs = rhs pair: the reference roots
// of rhs become reachable from lhs's root. When tight is set and the
// rhs preserves backing storage, the tight relation merges too.
func (e *Escape) flow(lhs, rhs ast.Expr, tight bool) {
	roots := e.ValueRoots(rhs)
	if len(roots) == 0 {
		return
	}
	pkg := e.f.Pkg
	switch base := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if base.Name == "_" {
			return
		}
		lv := ObjVar(pkg, base)
		if lv == nil {
			return
		}
		for _, r := range roots {
			e.union(lv, r)
		}
		if tight {
			if tr := e.tightRoot(rhs); tr != nil {
				e.tparent.union(lv, tr)
			}
		}
		e.markIfGlobal(lv, lhs.Pos())
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		// Heap store: rhs becomes reachable from the written object.
		lb := RootVar(pkg, lhs)
		if lb == nil {
			return
		}
		for _, r := range roots {
			e.union(lb, r)
		}
		e.markIfGlobal(lb, lhs.Pos())
	}
}

// markIfGlobal records an EscGlobal site when v is package-level: the
// whole alias class is now reachable by any goroutine.
func (e *Escape) markIfGlobal(v *types.Var, pos token.Pos) {
	if v != nil && IsGlobalVar(v) {
		e.mark(v, EscGlobal, pos)
	}
}

// goStmt records escapes through a go statement: call arguments, the
// receiver of a go'd method call, and every variable captured by a
// go'd literal.
func (e *Escape) goStmt(g *ast.GoStmt) {
	call := g.Call
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		for _, v := range FreeVars(e.f.Pkg, lit) {
			e.mark(v, EscGoCapture, g.Pos())
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if v := RootVar(e.f.Pkg, sel.X); v != nil {
			e.mark(v, EscGoArg, g.Pos())
		}
	}
	for _, a := range call.Args {
		for _, v := range e.ValueRoots(a) {
			e.mark(v, EscGoArg, a.Pos())
		}
	}
}

// call records escapes through an ordinary call: an atomic Store
// publishes its argument; any other call weakly escapes its reference
// arguments (and method receiver) to the callee.
func (e *Escape) call(c *ast.CallExpr) {
	pkg := e.f.Pkg
	if arg := AtomicStoreArg(pkg, c); arg != nil {
		for _, v := range e.ValueRoots(arg) {
			e.mark(v, EscAtomicStore, c.Pos())
		}
		return
	}
	// Builtins and conversions move values inside the frame only.
	if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok {
		if _, isB := pkg.Info.Uses[id].(*types.Builtin); isB {
			return
		}
	}
	if tv, ok := pkg.Info.Types[c.Fun]; ok && tv.IsType() {
		return
	}
	if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok {
		if v := RootVar(pkg, sel.X); v != nil {
			e.mark(v, EscArg, c.Pos())
		}
	}
	for _, a := range c.Args {
		for _, v := range e.ValueRoots(a) {
			e.mark(v, EscArg, a.Pos())
		}
	}
}

// ValueRoots returns the local/package variables whose reachable heap
// the value of expr may share: the alias-relevant roots of a
// reference-producing expression. Value copies and call results
// return nil (fresh objects).
func (e *Escape) ValueRoots(expr ast.Expr) []*types.Var {
	pkg := e.f.Pkg
	switch x := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if v := ObjVar(pkg, x); v != nil && IsRefLike(pkg.Info.TypeOf(x)) {
			return []*types.Var{v}
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			// &v aliases v regardless of v's own type; &T{...} reaches
			// each reference element of the literal.
			if cl, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
				return e.compositeRoots(cl)
			}
			if v := RootVar(pkg, x.X); v != nil {
				return []*types.Var{v}
			}
		}
	case *ast.StarExpr, *ast.SelectorExpr, *ast.IndexExpr, *ast.SliceExpr, *ast.TypeAssertExpr:
		// A reference read out of an object may share that object's
		// heap; a value copy (struct load) does not.
		ex := x.(ast.Expr)
		if IsRefLike(pkg.Info.TypeOf(ex)) {
			if v := RootVar(pkg, ex); v != nil {
				return []*types.Var{v}
			}
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if b, isB := pkg.Info.Uses[id].(*types.Builtin); isB && b.Name() == "append" {
				var out []*types.Var
				for _, a := range x.Args {
					out = append(out, e.ValueRoots(a)...)
				}
				return out
			}
		}
		if tv, ok := pkg.Info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return e.ValueRoots(x.Args[0])
		}
	case *ast.CompositeLit:
		return e.compositeRoots(x)
	}
	return nil
}

func (e *Escape) compositeRoots(cl *ast.CompositeLit) []*types.Var {
	var out []*types.Var
	for _, el := range cl.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			el = kv.Value
		}
		out = append(out, e.ValueRoots(el)...)
	}
	return out
}

// tightRoot resolves the variable whose backing storage the value of
// expr IS (not merely contains): whole-value reads, conversions,
// address-of, type assertions, reslicing, and append-to-same-slice
// preserve container identity; element extraction and fresh
// allocations return nil.
func (e *Escape) tightRoot(expr ast.Expr) *types.Var {
	pkg := e.f.Pkg
	switch x := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if v := ObjVar(pkg, x); v != nil && IsRefLike(pkg.Info.TypeOf(x)) {
			return v
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			if _, isLit := ast.Unparen(x.X).(*ast.CompositeLit); isLit {
				return nil // fresh object
			}
			return RootVar(pkg, x.X)
		}
	case *ast.SelectorExpr:
		// The value stored in s.f lives in s's reachable heap.
		if IsRefLike(pkg.Info.TypeOf(x)) {
			return RootVar(pkg, x)
		}
	case *ast.SliceExpr:
		// x[i:j] shares x's backing array.
		if IsRefLike(pkg.Info.TypeOf(x)) {
			return RootVar(pkg, x.X)
		}
	case *ast.TypeAssertExpr:
		if IsRefLike(pkg.Info.TypeOf(x)) {
			return RootVar(pkg, x.X)
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if b, isB := pkg.Info.Uses[id].(*types.Builtin); isB && b.Name() == "append" && len(x.Args) > 0 {
				// append may grow in place: the result shares arg0's
				// backing; the appended elements do not become it.
				return e.tightRoot(x.Args[0])
			}
		}
		if tv, ok := pkg.Info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return e.tightRoot(x.Args[0])
		}
	}
	return nil
}

// MayAliasTight reports whether a and b may be the same container —
// aliased through backing-preserving flows only. Implies MayAlias.
func (e *Escape) MayAliasTight(a, b *types.Var) bool {
	if a == nil || b == nil {
		return false
	}
	if a == b {
		return true
	}
	return e.tparent.rep(a) == e.tparent.rep(b)
}

// MayAlias reports whether a and b can reach the same object.
func (e *Escape) MayAlias(a, b *types.Var) bool {
	if a == nil || b == nil {
		return false
	}
	if a == b {
		return true
	}
	return e.parent.rep(a) == e.parent.rep(b)
}

// AliasVars returns every observed variable in v's alias class
// (including v itself), ordered by declaration position.
func (e *Escape) AliasVars(v *types.Var) []*types.Var {
	if v == nil {
		return nil
	}
	r := e.parent.rep(v)
	out := []*types.Var{}
	seen := false
	for x := range e.all {
		if e.parent.rep(x) == r {
			out = append(out, x)
			if x == v {
				seen = true
			}
		}
	}
	if !seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// Sites returns the escape sites recorded for v's alias class.
func (e *Escape) Sites(v *types.Var) []EscapeSite {
	if v == nil {
		return nil
	}
	return e.sites[e.parent.rep(v)]
}

// SharedWithGoroutine reports whether v's alias class escapes to
// another goroutine (go arg/capture, channel send, atomic store, or a
// package-level variable).
func (e *Escape) SharedWithGoroutine(v *types.Var) bool {
	for _, s := range e.Sites(v) {
		if s.Kind.CrossesGoroutine() {
			return true
		}
	}
	return false
}

// Escapes reports whether v's alias class escapes the frame at all.
func (e *Escape) Escapes(v *types.Var) bool { return len(e.Sites(v)) > 0 }

// AtomicStoreArg returns the stored value when call is a Store method
// call on a sync/atomic type (atomic.Value, atomic.Pointer[T], the
// scalar wrappers), else nil.
func AtomicStoreArg(pkg *Package, call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Store" || len(call.Args) != 1 {
		return nil
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return call.Args[0]
}

// FreeVars returns the variables a function literal captures from
// enclosing scopes: every identifier used in its body that resolves
// to a non-field, non-package-level variable declared outside the
// literal. Sorted by declaration position for determinism.
func FreeVars(pkg *Package, lit *ast.FuncLit) []*types.Var {
	seen := make(map[*types.Var]bool)
	var out []*types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || IsGlobalVar(v) {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() >= lit.End() {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// RootVar resolves the base variable an expression chain is rooted
// at: x, x.f, x[i], *x, &x.f, T(x) all root at x. Returns nil when
// the chain bottoms out in a call, a literal, or anything else with
// no variable identity. Package-level variables are returned too;
// callers that need locals must filter with IsGlobalVar.
func RootVar(pkg *Package, expr ast.Expr) *types.Var {
	for {
		switch x := expr.(type) {
		case *ast.ParenExpr:
			expr = x.X
		case *ast.StarExpr:
			expr = x.X
		case *ast.IndexExpr:
			expr = x.X
		case *ast.SliceExpr:
			expr = x.X
		case *ast.TypeAssertExpr:
			expr = x.X
		case *ast.SelectorExpr:
			// Qualified reference to another package's variable.
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := pkg.Info.Uses[id].(*types.PkgName); isPkg {
					if v, ok := pkg.Info.Uses[x.Sel].(*types.Var); ok {
						return v
					}
					return nil
				}
			}
			expr = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			expr = x.X
		case *ast.CallExpr:
			// Type conversions preserve the operand's identity.
			if tv, ok := pkg.Info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
				expr = x.Args[0]
				continue
			}
			return nil
		case *ast.Ident:
			return ObjVar(pkg, x)
		default:
			return nil
		}
	}
}

// Type returns f's signature syntax.
func (f *Func) Type() *ast.FuncType {
	if f.Decl != nil {
		return f.Decl.Type
	}
	return f.Lit.Type
}

// fieldVars lists the variables a parameter, result or receiver list
// declares, in order. Unnamed entries contribute nil placeholders so
// indexes line up with call-site arguments and result positions.
func fieldVars(pkg *Package, list *ast.FieldList) []*types.Var {
	var out []*types.Var
	if list == nil {
		return out
	}
	for _, fl := range list.List {
		if len(fl.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, n := range fl.Names {
			v, _ := pkg.Info.Defs[n].(*types.Var)
			out = append(out, v)
		}
	}
	return out
}

// RecvVar returns the declared receiver variable of f, or nil.
func RecvVar(f *Func) *types.Var {
	if f.Decl == nil {
		return nil
	}
	if vars := fieldVars(f.Pkg, f.Decl.Recv); len(vars) > 0 {
		return vars[0]
	}
	return nil
}

// ParamVars returns f's declared parameters in order (receiver
// excluded — see RecvVar), nil where a parameter is unnamed.
func ParamVars(f *Func) []*types.Var { return fieldVars(f.Pkg, f.Type().Params) }

// ResultVars returns f's results in order, nil where one is unnamed.
func ResultVars(f *Func) []*types.Var { return fieldVars(f.Pkg, f.Type().Results) }

// IsGlobalVar reports whether v is a package-level variable.
func IsGlobalVar(v *types.Var) bool {
	return v != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// ObjVar resolves an identifier to its variable object (use or def),
// excluding struct fields.
func ObjVar(pkg *Package, id *ast.Ident) *types.Var {
	if v, ok := pkg.Info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := pkg.Info.Uses[id].(*types.Var); ok && !v.IsField() {
		return v
	}
	return nil
}

// IsRefLike reports whether values of t carry references: mutating
// through one copy is visible through another.
func IsRefLike(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface, *types.Signature:
		return true
	}
	return false
}
