package ir

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"path/filepath"
	"sort"
	"strings"
)

// This file is the interprocedural taint engine the wire-facing
// analyzers (wiretaint, boundedalloc) share. It answers
// one question per value: can a remote peer have chosen this number?
//
// The lattice is three-point — Bounded < Unknown < Wire — plus a
// parameter mask that defers the answer to the call sites:
//
//   - Bounded: a constant, a small fixed-width integer, len/cap of
//     in-memory data, or a value a dominating guard clamped.
//   - Unknown: the engine cannot see where the value came from. In a
//     pessimistic client (boundedalloc) unknown means "the peer picked
//     it"; in the wire client unknown stays silent because the finding
//     could not name its source.
//   - Wire: the value provably derives from bytes that crossed the
//     trust boundary (a conn read, a decode result, a tainted entry
//     parameter), with the source recorded for the witness chain.
//
// Params is a bitmask of the enclosing function's parameters the value
// copies its taint from: a parameter starts as {Bounded, 1<<i}, and a
// sink fed such a value becomes an obligation that Run resolves by
// walking the recorded call-site arguments (ParamWire), producing the
// interprocedural witness chain. A clamp anywhere clears the mask —
// which is exactly how a guard inside a callee sanitizes every caller.
//
// Per-function facts (result taint, pointee effects, recorded
// call-site arguments, sink obligations) are memoized summaries in a
// Memo, so cyclic queries see a conservative stub that is never cached.

// Taint is the value lattice: Bounded < Unknown < Wire.
type Taint uint8

const (
	// TaintBounded: provably capped independent of peer input.
	TaintBounded Taint = iota
	// TaintUnknown: provenance invisible to the engine.
	TaintUnknown
	// TaintWire: derives from bytes a remote peer controls.
	TaintWire
)

func (t Taint) String() string {
	switch t {
	case TaintBounded:
		return "bounded"
	case TaintUnknown:
		return "unknown"
	case TaintWire:
		return "wire"
	}
	return "?"
}

// recvParam is the Params bit standing for the method receiver.
const recvParam = 63

// TVal is one value's taint: the lattice point, the parameter mask the
// value inherits taint through, and — when wire — the source that
// tainted it.
type TVal struct {
	T      Taint
	Params uint64
	Src    string
	SrcPos token.Pos
}

// BoundedVal is the lattice bottom.
func BoundedVal() TVal { return TVal{T: TaintBounded} }

// UnknownVal is the no-provenance point.
func UnknownVal() TVal { return TVal{T: TaintUnknown} }

// WireVal marks a value as peer-controlled, recording its source.
func WireVal(src string, pos token.Pos) TVal {
	return TVal{T: TaintWire, Src: src, SrcPos: pos}
}

// Join is the lattice join: max taint, union of parameter masks. When
// both sides are wire the earlier source wins, keeping witness chains
// deterministic regardless of evaluation order.
func (a TVal) Join(b TVal) TVal {
	out := TVal{T: a.T, Params: a.Params | b.Params, Src: a.Src, SrcPos: a.SrcPos}
	if b.T > out.T {
		out.T = b.T
	}
	switch {
	case a.T == TaintWire && b.T == TaintWire:
		if b.SrcPos != token.NoPos && (a.SrcPos == token.NoPos || b.SrcPos < a.SrcPos) {
			out.Src, out.SrcPos = b.Src, b.SrcPos
		}
	case a.T == TaintWire:
		// keep a's source
	case b.T == TaintWire:
		out.Src, out.SrcPos = b.Src, b.SrcPos
	}
	return out
}

// BoundedStrict reports whether the value is bounded with no deferred
// parameter dependency — the only verdict a pessimistic client trusts.
func (a TVal) BoundedStrict() bool { return a.T == TaintBounded && a.Params == 0 }

// wireish reports whether a value is wire now or could resolve to wire
// through a parameter.
func wireish(v TVal) bool { return v.T == TaintWire || v.Params != 0 }

// TaintMode selects the client contract.
type TaintMode uint8

const (
	// ModePessimistic is boundedalloc's contract: no content tracking
	// (element/field reads and external results are Unknown), loops
	// walked once, and every recorded sink whose value is not strictly
	// bounded is a finding. This pins the original
	// flow-sensitive boundedness walk, with one deliberate upgrade:
	// module-local call results resolve through callee summaries, so a
	// clamp inside a callee now bounds the call site.
	ModePessimistic TaintMode = iota
	// ModeWire is wiretaint's contract: sources inject TaintWire,
	// element/field reads propagate it, loops run to a cheap two-pass
	// fixpoint, and only sinks that provably reach wire (directly or
	// through resolved parameter obligations) are findings.
	ModeWire
)

// SinkKind classifies what resource a tainted value would size.
type SinkKind uint8

const (
	// SinkAlloc: make() slice length/capacity or map size hint.
	SinkAlloc SinkKind = iota
	// SinkLoop: a loop trip count (for-condition bound, range-over-int).
	SinkLoop
	// SinkMapKey: an insertion key into a long-lived map.
	SinkMapKey
	// SinkSleep: a time.Sleep/timer/deadline duration.
	SinkSleep
	// SinkSpawn: a goroutine started inside a wire-bounded loop.
	SinkSpawn
	// SinkChanCap: make(chan) capacity, wire mode only.
	SinkChanCap
	// SinkReadAll: io.ReadAll, pessimistic mode only (no bound at all).
	SinkReadAll
)

func (k SinkKind) String() string {
	switch k {
	case SinkAlloc:
		return "alloc"
	case SinkLoop:
		return "loop"
	case SinkMapKey:
		return "mapkey"
	case SinkSleep:
		return "sleep"
	case SinkSpawn:
		return "spawn"
	case SinkChanCap:
		return "chancap"
	case SinkReadAll:
		return "readall"
	}
	return "?"
}

// SinkRecord is one sink observation inside a function: what kind of
// resource, where, the offending expression, and the taint that
// reached it at walk time.
type SinkRecord struct {
	Kind SinkKind
	Pos  token.Pos
	Fn   *Func
	Expr string
	Val  TVal
}

// TaintSink is a resolved finding: a sink whose value is (or resolved
// to) peer-controlled, with the interprocedural witness chain when the
// taint entered through parameters.
type TaintSink struct {
	SinkRecord
	// Chain lists, sink-outward, how the taint crossed call sites:
	// "param n of F ← G (file:line)".
	Chain []string
}

// FuncTaint is the memoized per-function summary.
type FuncTaint struct {
	// Results holds the joined taint of each result position.
	Results []TVal
	// Effects is the mask of parameters (and recvParam) whose pointee
	// content this function wire-taints (e.g. Read(buf) fills buf with
	// peer bytes).
	Effects   uint64
	EffectSrc string
	EffectPos token.Pos
	// ArgVals / RecvVals record the taint of every resolved call
	// site's arguments, the raw material for ParamWire queries.
	ArgVals  map[*CallSite][]TVal
	RecvVals map[*CallSite]TVal
	// Sinks are the sink observations recorded while walking.
	Sinks []SinkRecord

	sinkIdx map[sinkKey]int
}

type sinkKey struct {
	pos  token.Pos
	kind SinkKind
}

// taintMaxDepth bounds interprocedural recursion (cycles are broken by
// the visiting set; the depth guard is a backstop).
const taintMaxDepth = 64

// TaintAnalysis is one engine run over a Program.
type TaintAnalysis struct {
	Prog *Program
	Mode TaintMode

	// SourceCall classifies a call as a trust-boundary source (wire
	// mode). src names the source; taintsResult taints every result;
	// taintArgs lists argument indices whose pointee content becomes
	// wire (conn.Read(buf) → [0]). ok=false falls through to normal
	// call handling.
	SourceCall func(pkg *Package, call *ast.CallExpr, callee types.Object) (src string, taintsResult bool, taintArgs []int, ok bool)

	// EntryParam marks a parameter as wire at function entry (wire
	// mode): the trust-boundary roots, e.g. the []byte input of an
	// exported decoder in a wire package.
	EntryParam func(f *Func, i int, v *types.Var) (src string, ok bool)

	facts     Memo[*Func, *FuncTaint]
	paramWire Memo[pwKey, pwResult]
}

type pwKey struct {
	f   *Func
	idx int
}

type pwResult struct {
	val   TVal
	chain []string
	ok    bool
}

// noFacts is the stub a cyclic Facts query sees; it is only ever read.
var noFacts = &FuncTaint{}

// Facts returns f's taint summary, computing and memoizing it on first
// use. A query that cycles back into an in-progress computation (or
// exceeds the depth bound) gets an empty stub that is NOT cached, so a
// later top-level query recomputes properly.
func (a *TaintAnalysis) Facts(f *Func) *FuncTaint {
	a.facts.MaxDepth = taintMaxDepth
	return a.facts.Get(f, noFacts, func() *FuncTaint { return a.compute(f) })
}

// Run computes facts for every function and resolves sink obligations
// into findings: pessimistic mode reports every sink not strictly
// bounded; wire mode reports sinks whose value is wire, or whose
// parameter mask resolves to wire through the recorded call-site
// arguments (yielding the witness chain). Results are position-sorted.
func (a *TaintAnalysis) Run() []TaintSink {
	// Every summary first: resolving a parameter obligation reads the
	// recorded arguments of callers that may sit later in Funcs.
	for _, f := range a.Prog.Funcs {
		a.Facts(f)
	}
	var out []TaintSink
	for _, f := range a.Prog.Funcs {
		for _, s := range a.Facts(f).Sinks {
			switch a.Mode {
			case ModePessimistic:
				if !s.Val.BoundedStrict() {
					out = append(out, TaintSink{SinkRecord: s})
				}
			case ModeWire:
				if s.Val.T == TaintWire {
					out = append(out, TaintSink{SinkRecord: s})
				} else if s.Val.Params != 0 {
					if val, chain, ok := a.paramsWire(f, s.Val.Params); ok {
						rec := s
						rec.Val = val
						out = append(out, TaintSink{SinkRecord: rec, Chain: chain})
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// ParamWire reports whether parameter idx of f (recvParam for the
// receiver) receives a wire-tainted argument at any call site,
// returning the wire value and the sink-outward witness chain.
func (a *TaintAnalysis) ParamWire(f *Func, idx int) (TVal, []string, bool) {
	r := a.paramWire.Get(pwKey{f: f, idx: idx}, pwResult{}, func() pwResult {
		val, chain, ok := a.paramWireUncached(f, idx)
		return pwResult{val: val, chain: chain, ok: ok}
	})
	return r.val, r.chain, r.ok
}

func (a *TaintAnalysis) paramWireUncached(f *Func, idx int) (TVal, []string, bool) {
	for _, cs := range a.Prog.Callers[f] {
		ft, ok := a.facts.Cached(cs.Caller)
		if !ok {
			continue
		}
		var av TVal
		have := false
		if idx == recvParam {
			av, have = ft.RecvVals[cs]
		} else if args, ok := ft.ArgVals[cs]; ok {
			av, have = argForParam(f, idx, args)
		}
		if !have {
			continue
		}
		link := fmt.Sprintf("param %s of %s ← %s (%s)",
			paramName(f, idx), f.Name, cs.Caller.Name, shortPos(f.Pkg.Fset, cs.Call.Pos()))
		if av.T == TaintWire {
			return av, []string{link}, true
		}
		if av.Params != 0 {
			if val, chain, ok := a.paramsWire(cs.Caller, av.Params); ok {
				return val, append([]string{link}, chain...), true
			}
		}
	}
	return TVal{}, nil, false
}

// paramsWire resolves a whole parameter mask: the first bit that
// resolves to wire wins.
func (a *TaintAnalysis) paramsWire(f *Func, mask uint64) (TVal, []string, bool) {
	for i := 0; i < 64; i++ {
		if mask&(1<<i) == 0 {
			continue
		}
		if val, chain, ok := a.ParamWire(f, i); ok {
			return val, chain, ok
		}
	}
	return TVal{}, nil, false
}

// argForParam maps a parameter index onto recorded argument values,
// folding a variadic tail into its single parameter.
func argForParam(f *Func, idx int, args []TVal) (TVal, bool) {
	sig := funcSig(f)
	if sig != nil && sig.Variadic() && idx == sig.Params().Len()-1 {
		if idx >= len(args) {
			return BoundedVal(), true // empty variadic call
		}
		out := args[idx]
		for _, v := range args[idx+1:] {
			out = out.Join(v)
		}
		return out, true
	}
	if idx < len(args) {
		return args[idx], true
	}
	return TVal{}, false
}

func paramName(f *Func, idx int) string {
	if idx == recvParam {
		return "receiver"
	}
	params := ParamVars(f)
	if idx < len(params) && params[idx] != nil {
		return params[idx].Name()
	}
	return fmt.Sprintf("#%d", idx)
}

func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

func funcSig(f *Func) *types.Signature {
	if f.Obj != nil {
		if s, ok := f.Obj.Type().(*types.Signature); ok {
			return s
		}
	}
	if f.Lit != nil {
		if tv, ok := f.Pkg.Info.Types[f.Lit]; ok {
			if s, ok := tv.Type.(*types.Signature); ok {
				return s
			}
		}
	}
	return nil
}

// compute walks f's body flow-sensitively and assembles its summary.
func (a *TaintAnalysis) compute(f *Func) *FuncTaint {
	ft := &FuncTaint{
		ArgVals:  make(map[*CallSite][]TVal),
		RecvVals: make(map[*CallSite]TVal),
		sinkIdx:  make(map[sinkKey]int),
	}
	if f.Body == nil {
		return ft
	}
	w := &taintWalker{
		a:    a,
		f:    f,
		ft:   ft,
		csOf: make(map[*ast.CallExpr]*CallSite, len(f.Calls)),
		pidx: make(map[*types.Var]int),
	}
	for _, cs := range f.Calls {
		w.csOf[cs.Call] = cs
	}
	w.resultVars = ResultVars(f)
	w.numResults = len(w.resultVars)

	state := make(taintState)
	params := ParamVars(f)
	for i, p := range params {
		if p == nil || i >= recvParam {
			continue
		}
		state[p] = TVal{T: TaintBounded, Params: 1 << i}
		w.pidx[p] = i
	}
	if rv := RecvVar(f); rv != nil {
		state[rv] = TVal{T: TaintBounded, Params: 1 << recvParam}
		w.pidx[rv] = recvParam
	}
	if a.Mode == ModeWire && a.EntryParam != nil {
		for i, p := range params {
			if p == nil {
				continue
			}
			if src, ok := a.EntryParam(f, i, p); ok {
				state[p] = WireVal(src, p.Pos())
			}
		}
	}
	w.walkStmts(f.Body.List, state)
	return ft
}

// taintState maps in-scope objects to their current taint. Absent
// means Unknown.
type taintState map[types.Object]TVal

// joinStates is the branch-merge join; a variable tracked on only one
// side joins with Unknown (matching the original intersect semantics:
// bounded only when bounded on both paths, wire when wire on either).
func joinStates(a, b taintState) taintState {
	out := make(taintState, len(a))
	for k, va := range a {
		if vb, ok := b[k]; ok {
			out[k] = va.Join(vb)
		} else {
			out[k] = va.Join(UnknownVal())
		}
	}
	for k, vb := range b {
		if _, ok := a[k]; !ok {
			out[k] = vb.Join(UnknownVal())
		}
	}
	return out
}

func replaceState(dst, src taintState) {
	for k := range dst {
		if _, ok := src[k]; !ok {
			delete(dst, k)
		}
	}
	for k, v := range src {
		dst[k] = v
	}
}

type taintWalker struct {
	a    *TaintAnalysis
	f    *Func
	ft   *FuncTaint
	csOf map[*ast.CallExpr]*CallSite
	pidx map[*types.Var]int

	resultVars []*types.Var
	numResults int

	// loopTaint stacks the trip-count taint of enclosing wire-bounded
	// loops, for the spawn sink.
	loopTaint []TVal
}

func (w *taintWalker) record(kind SinkKind, pos token.Pos, expr string, val TVal) {
	key := sinkKey{pos: pos, kind: kind}
	if i, ok := w.ft.sinkIdx[key]; ok {
		w.ft.Sinks[i].Val = w.ft.Sinks[i].Val.Join(val)
		return
	}
	w.ft.sinkIdx[key] = len(w.ft.Sinks)
	w.ft.Sinks = append(w.ft.Sinks, SinkRecord{Kind: kind, Pos: pos, Fn: w.f, Expr: expr, Val: val})
}

// lookup resolves an object's current taint. In wire mode a miss on a
// reference-typed variable falls back to its tight alias class: a
// reslice of a wire buffer is the same wire buffer.
func (w *taintWalker) lookup(obj types.Object, state taintState) TVal {
	if v, ok := state[obj]; ok {
		return v
	}
	if w.a.Mode == ModeWire {
		if tv, ok := obj.(*types.Var); ok && IsRefLike(tv.Type()) {
			alias := w.f.Alias()
			out := UnknownVal()
			found := false
			for o, v := range state {
				ov, ok := o.(*types.Var)
				if !ok || ov == tv {
					continue
				}
				if alias.MayAliasTight(tv, ov) {
					out = out.Join(v)
					found = true
				}
			}
			if found {
				return out
			}
		}
	}
	return UnknownVal()
}

// walkStmts processes a statement list sequentially, mutating state in
// place as facts are established.
func (w *taintWalker) walkStmts(list []ast.Stmt, state taintState) {
	for _, stmt := range list {
		w.walkStmt(stmt, state)
	}
}

func (w *taintWalker) walkStmt(stmt ast.Stmt, state taintState) {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			w.scan(rhs, state)
		}
		w.applyAssign(s, state)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					w.scan(v, state)
				}
				if len(vs.Values) == len(vs.Names) {
					for i, name := range vs.Names {
						if obj := w.f.Pkg.Info.Defs[name]; obj != nil {
							state[obj] = w.eval(vs.Values[i], state)
						}
					}
				}
			}
		}
	case *ast.IfStmt:
		w.walkIf(s, state)
	case *ast.ForStmt:
		w.walkFor(s, state)
	case *ast.RangeStmt:
		w.walkRange(s, state)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, state)
		}
		if s.Tag != nil {
			w.scan(s.Tag, state)
		}
		for _, cc := range s.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				inner := maps.Clone(state)
				if s.Tag == nil {
					// Tagless switch: a clause body runs under its own
					// condition's truth.
					for _, cond := range clause.List {
						w.applyFacts(inner, state, cond, true)
					}
				}
				w.walkStmts(clause.Body, inner)
			}
		}
	case *ast.TypeSwitchStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if inner, ok := n.(*ast.CaseClause); ok {
				w.walkStmts(inner.Body, maps.Clone(state))
				return false
			}
			return true
		})
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			if clause, ok := cc.(*ast.CommClause); ok {
				if clause.Comm != nil {
					w.walkStmt(clause.Comm, maps.Clone(state))
				}
				w.walkStmts(clause.Body, maps.Clone(state))
			}
		}
	case *ast.BlockStmt:
		w.walkStmts(s.List, state)
	case *ast.ExprStmt:
		w.scan(s.X, state)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.scan(r, state)
		}
		w.addReturn(s, state)
	case *ast.DeferStmt:
		w.scan(s.Call, state)
	case *ast.GoStmt:
		w.scan(s.Call, state)
		if w.a.Mode == ModeWire && len(w.loopTaint) > 0 {
			top := w.loopTaint[0]
			for _, v := range w.loopTaint[1:] {
				top = top.Join(v)
			}
			w.record(SinkSpawn, s.Pos(), types.ExprString(s.Call.Fun), top)
		}
	case *ast.SendStmt:
		w.scan(s.Chan, state)
		w.scan(s.Value, state)
	case *ast.IncDecStmt:
		w.scan(s.X, state)
		if idx, ok := ast.Unparen(s.X).(*ast.IndexExpr); ok {
			w.checkMapKey(idx, state)
		}
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt, state)
	}
}

// addReturn joins this return's values into the function's result
// summary (naked returns read the named result variables).
func (w *taintWalker) addReturn(s *ast.ReturnStmt, state taintState) {
	if w.numResults == 0 {
		return
	}
	vals := make([]TVal, 0, w.numResults)
	switch {
	case len(s.Results) == w.numResults:
		for _, r := range s.Results {
			vals = append(vals, w.eval(r, state))
		}
	case len(s.Results) == 1 && w.numResults > 1:
		if call, ok := ast.Unparen(s.Results[0]).(*ast.CallExpr); ok {
			vals = append(vals, w.evalCallExpr(call, state)...)
		}
	case len(s.Results) == 0:
		for _, rv := range w.resultVars {
			if rv != nil {
				vals = append(vals, w.lookup(rv, state))
			} else {
				vals = append(vals, UnknownVal())
			}
		}
	}
	if len(vals) != w.numResults {
		vals = make([]TVal, w.numResults)
		for i := range vals {
			vals[i] = UnknownVal()
		}
	}
	if w.ft.Results == nil {
		w.ft.Results = vals
		return
	}
	for i := range w.ft.Results {
		if i < len(vals) {
			w.ft.Results[i] = w.ft.Results[i].Join(vals[i])
		}
	}
}

// walkIf handles the two guard idioms that establish boundedness:
// abort-on-oversize and clamp. The post-state is the join of the
// branch exit states, where a terminating branch (return, panic,
// break/continue/goto) contributes nothing.
func (w *taintWalker) walkIf(s *ast.IfStmt, state taintState) {
	if s.Init != nil {
		w.walkStmt(s.Init, state)
	}
	w.scan(s.Cond, state)

	bodySet := maps.Clone(state)
	w.applyFacts(bodySet, state, s.Cond, true)
	w.walkStmts(s.Body.List, bodySet)

	elseSet := maps.Clone(state)
	w.applyFacts(elseSet, state, s.Cond, false)
	if s.Else != nil {
		w.walkStmt(s.Else, elseSet)
	}

	bodyTerm := Terminates(s.Body)
	elseTerm := s.Else != nil && StmtTerminates(s.Else)

	var after taintState
	switch {
	case bodyTerm && elseTerm:
		after = elseSet // unreachable fallthrough; keep something sane
	case bodyTerm:
		after = elseSet
	case elseTerm:
		after = bodySet
	default:
		after = joinStates(bodySet, elseSet)
	}
	replaceState(state, after)
}

// walkFor handles for-loops: the loop-bound sink, the guard facts of
// the condition, and (wire mode) a second body pass so loop-carried
// taint reaches sinks earlier in the body.
func (w *taintWalker) walkFor(s *ast.ForStmt, state taintState) {
	inner := maps.Clone(state)
	if s.Init != nil {
		w.walkStmt(s.Init, inner)
	}
	pushed := false
	if s.Cond != nil {
		w.scan(s.Cond, inner)
		if w.a.Mode == ModeWire {
			if bv, bexpr, ok := w.loopBound(s.Cond, inner); ok && wireish(bv) {
				w.record(SinkLoop, s.For, types.ExprString(bexpr), bv)
				w.loopTaint = append(w.loopTaint, bv)
				pushed = true
			}
		}
		w.applyFacts(inner, inner, s.Cond, true)
	}
	if s.Post != nil {
		w.walkStmt(s.Post, inner)
	}
	preBody := maps.Clone(inner)
	w.walkStmts(s.Body.List, inner)
	if w.a.Mode == ModeWire {
		second := joinStates(preBody, inner)
		if s.Cond != nil {
			w.applyFacts(second, second, s.Cond, true)
		}
		w.walkStmts(s.Body.List, second)
		replaceState(state, joinStates(state, second))
	}
	if pushed {
		w.loopTaint = w.loopTaint[:len(w.loopTaint)-1]
	}
}

func (w *taintWalker) walkRange(s *ast.RangeStmt, state taintState) {
	w.scan(s.X, state)
	inner := maps.Clone(state)
	pushed := false
	if w.a.Mode == ModeWire {
		xv := w.eval(s.X, state)
		xt := w.f.Pkg.Info.TypeOf(s.X)
		if xt != nil {
			if b, ok := xt.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
				// range over an integer: the trip count IS the value.
				if wireish(xv) {
					w.record(SinkLoop, s.For, types.ExprString(s.X), xv)
					w.loopTaint = append(w.loopTaint, xv)
					pushed = true
				}
			}
		}
		w.bindRangeVars(s, xv, inner)
	}
	preBody := maps.Clone(inner)
	w.walkStmts(s.Body.List, inner)
	if w.a.Mode == ModeWire {
		second := joinStates(preBody, inner)
		w.bindRangeVars(s, w.eval(s.X, second), second)
		w.walkStmts(s.Body.List, second)
		replaceState(state, joinStates(state, second))
	}
	if pushed {
		w.loopTaint = w.loopTaint[:len(w.loopTaint)-1]
	}
}

// bindRangeVars taints the key/value variables of a range loop: slice
// and string indices are bounded by in-memory data; elements (and map
// keys) carry the container's taint.
func (w *taintWalker) bindRangeVars(s *ast.RangeStmt, xv TVal, state taintState) {
	xt := w.f.Pkg.Info.TypeOf(s.X)
	isMap := false
	if xt != nil {
		_, isMap = xt.Underlying().(*types.Map)
	}
	if id, ok := s.Key.(*ast.Ident); ok && id.Name != "_" {
		if obj := w.f.Pkg.Info.ObjectOf(id); obj != nil {
			if isMap {
				state[obj] = xv
			} else {
				state[obj] = BoundedVal()
			}
		}
	}
	if id, ok := s.Value.(*ast.Ident); ok && id.Name != "_" {
		if obj := w.f.Pkg.Info.ObjectOf(id); obj != nil {
			state[obj] = xv
		}
	}
}

// loopBound picks the tightest conjunct bound of a loop condition:
// `i < n && i < max` is bounded by min(n, max), so the least-tainted
// comparison side wins. Reported only when no conjunct is bounded.
func (w *taintWalker) loopBound(cond ast.Expr, state taintState) (TVal, ast.Expr, bool) {
	var cmps []*ast.BinaryExpr
	var collect func(e ast.Expr)
	collect = func(e ast.Expr) {
		switch x := ast.Unparen(e).(type) {
		case *ast.BinaryExpr:
			if x.Op == token.LAND {
				collect(x.X)
				collect(x.Y)
				return
			}
			cmps = append(cmps, x)
		}
	}
	collect(cond)
	found := false
	var best TVal
	var bestE ast.Expr
	rank := func(v TVal) int {
		switch {
		case v.BoundedStrict():
			return 0
		case v.T == TaintBounded:
			return 1
		case v.T == TaintUnknown:
			return 2
		}
		return 3
	}
	for _, cmp := range cmps {
		var bound ast.Expr
		switch cmp.Op {
		case token.LSS, token.LEQ:
			// loop runs while i < bound: the right side caps the trips.
			bound = cmp.Y
		case token.GTR, token.GEQ:
			// loop runs while x > floor: the left side's magnitude caps.
			bound = cmp.X
		default:
			continue
		}
		v := w.eval(bound, state)
		if !found || rank(v) < rank(best) {
			best, bestE, found = v, bound, true
		}
	}
	return best, bestE, found
}

// applyFacts installs the guard facts cond establishes under truth
// into dst, evaluating bound expressions against evalIn (the pre-guard
// state). In wire mode a comparison against a wire value sanitizes
// nothing: `if n < m` with peer-chosen m is not a cap.
func (w *taintWalker) applyFacts(dst, evalIn taintState, cond ast.Expr, truth bool) {
	for _, fact := range condFacts(w.f.Pkg, cond, truth) {
		if w.a.Mode == ModeWire && fact.Bound != nil {
			if w.eval(fact.Bound, evalIn).T == TaintWire {
				continue
			}
		}
		dst[fact.Obj] = BoundedVal()
	}
}

// applyAssign updates taint for an assignment.
func (w *taintWalker) applyAssign(s *ast.AssignStmt, state taintState) {
	// Multi-value from a single call (x, err := f()): resolve each
	// result through the callee summary.
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			vals := w.evalCallExpr(call, state)
			for i, lhs := range s.Lhs {
				v := UnknownVal()
				if i < len(vals) {
					v = vals[i]
				}
				w.assignOne(lhs, v, state)
			}
			return
		}
		// Comma-ok (map index, type assert, channel receive): the value
		// carries the container's taint; ok is a bool.
		v0 := w.eval(s.Rhs[0], state)
		w.assignOne(s.Lhs[0], v0, state)
		if len(s.Lhs) == 2 {
			w.assignOne(s.Lhs[1], UnknownVal(), state)
		}
		return
	}
	for i, lhs := range s.Lhs {
		if i >= len(s.Rhs) {
			if obj := w.lhsObject(lhs); obj != nil {
				delete(state, obj)
			}
			continue
		}
		rhs := s.Rhs[i]
		switch s.Tok {
		case token.ASSIGN, token.DEFINE:
			w.assignOne(lhs, w.eval(rhs, state), state)
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.SHL_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
			// x op= y joins both sides: bounded only if both were.
			obj := w.lhsObject(lhs)
			if obj != nil {
				state[obj] = w.lookup(obj, state).Join(w.eval(rhs, state))
			}
			w.assignThrough(lhs, w.eval(rhs, state), state)
		case token.REM_ASSIGN, token.AND_ASSIGN:
			// x %= y and x &= y are capped by whichever side is tighter.
			obj := w.lhsObject(lhs)
			if obj != nil {
				cur := w.lookup(obj, state)
				y := w.eval(rhs, state)
				state[obj] = minTV(cur, y)
			}
		case token.QUO_ASSIGN, token.SHR_ASSIGN:
			// x /= y and x >>= y never increase x.
		default:
			if obj := w.lhsObject(lhs); obj != nil {
				delete(state, obj)
			}
		}
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			w.checkMapKey(idx, state)
		}
	}
}

// minTV picks the tighter of two caps (lower lattice point wins).
func minTV(a, b TVal) TVal {
	ra := int(a.T)
	rb := int(b.T)
	if ra == rb {
		if a.Params != 0 && b.Params == 0 {
			return b
		}
		return a
	}
	if ra < rb {
		return a
	}
	return b
}

// assignOne writes val to an lvalue: plain identifiers rebind; element
// and field stores taint the written-through root (wire mode) and feed
// the map-key sink.
func (w *taintWalker) assignOne(lhs ast.Expr, val TVal, state taintState) {
	if obj := w.lhsObject(lhs); obj != nil {
		state[obj] = val
		return
	}
	if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
		w.checkMapKey(idx, state)
	}
	w.assignThrough(lhs, val, state)
}

// assignThrough propagates a wire store through a field/element/deref
// write to the root variable's taint, recording a pointee effect when
// the root is a parameter.
func (w *taintWalker) assignThrough(lhs ast.Expr, val TVal, state taintState) {
	if w.a.Mode != ModeWire || !wireish(val) {
		return
	}
	switch ast.Unparen(lhs).(type) {
	case *ast.IndexExpr, *ast.StarExpr, *ast.SelectorExpr:
	default:
		return
	}
	root := RootVar(w.f.Pkg, lhs)
	if root == nil {
		return
	}
	state[root] = w.lookup(root, state).Join(val)
	if val.T == TaintWire {
		if pi, ok := w.pidx[root]; ok {
			w.ft.Effects |= 1 << pi
			if w.ft.EffectSrc == "" {
				w.ft.EffectSrc, w.ft.EffectPos = val.Src, val.SrcPos
			}
		}
	}
}

func (w *taintWalker) lhsObject(lhs ast.Expr) types.Object {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		return w.f.Pkg.Info.ObjectOf(id)
	}
	return nil
}

// checkMapKey records a map-key sink: a wire-tainted key inserted into
// a map that outlives the frame (global, field, or caller-owned).
func (w *taintWalker) checkMapKey(idx *ast.IndexExpr, state taintState) {
	if w.a.Mode != ModeWire {
		return
	}
	t := w.f.Pkg.Info.TypeOf(idx.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	kv := w.eval(idx.Index, state)
	if !wireish(kv) {
		return
	}
	if !w.longLived(idx.X) {
		return
	}
	w.record(SinkMapKey, idx.Pos(), types.ExprString(idx.Index), kv)
}

// longLived reports whether a map expression plausibly outlives the
// current frame: package-level, parameter/receiver-owned, reached
// through a field or call — anything but a plain local.
func (w *taintWalker) longLived(mapExpr ast.Expr) bool {
	root := RootVar(w.f.Pkg, mapExpr)
	if root == nil {
		return true // call result or untracked origin: cannot prove local
	}
	if IsGlobalVar(root) {
		return true
	}
	if _, ok := w.pidx[root]; ok {
		return true
	}
	if _, ok := ast.Unparen(mapExpr).(*ast.Ident); !ok {
		return true // field chains: x.m, x.f.m
	}
	return false
}

// scan visits every call expression inside expr (skipping nested
// function literals, which are independent Funcs) so sinks, sources,
// and call-site argument recording happen even for calls whose value
// the surrounding statement discards.
func (w *taintWalker) scan(expr ast.Expr, state taintState) {
	if expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			w.evalCallExpr(call, state)
		}
		return true
	})
}

// eval computes the taint of an expression in the current state.
func (w *taintWalker) eval(expr ast.Expr, state taintState) TVal {
	expr = ast.Unparen(expr)
	if tv, ok := w.f.Pkg.Info.Types[expr]; ok {
		// Compile-time constants are bounded by definition.
		if tv.Value != nil {
			return BoundedVal()
		}
		// Small fixed-width integers cannot express an attacker-sized
		// length: a byte tops out at 255, a uint16 at 65535.
		if basic, ok := tv.Type.Underlying().(*types.Basic); ok {
			switch basic.Kind() {
			case types.Bool, types.Int8, types.Uint8, types.Int16, types.Uint16:
				return BoundedVal()
			}
		}
	}
	switch e := expr.(type) {
	case *ast.Ident:
		if obj := w.f.Pkg.Info.ObjectOf(e); obj != nil {
			return w.lookup(obj, state)
		}
		return UnknownVal()
	case *ast.BinaryExpr:
		switch e.Op {
		case token.REM, token.AND:
			// v % c ∈ [0, c); v & c ≤ c: capped by the right side.
			return w.eval(e.Y, state)
		case token.QUO, token.SHR:
			// v / c ≤ v; v >> c ≤ v.
			return w.eval(e.X, state)
		case token.ADD, token.SUB, token.MUL, token.SHL, token.OR, token.XOR, token.AND_NOT:
			return w.eval(e.X, state).Join(w.eval(e.Y, state))
		default:
			return UnknownVal()
		}
	case *ast.UnaryExpr:
		return w.eval(e.X, state)
	case *ast.CallExpr:
		vals := w.evalCallExpr(e, state)
		if len(vals) > 0 {
			return vals[0]
		}
		return BoundedVal()
	case *ast.IndexExpr, *ast.SelectorExpr, *ast.StarExpr, *ast.SliceExpr, *ast.TypeAssertExpr:
		// Content reads: the element/field of a wire container is wire.
		// Pessimistic mode does not track content, matching the original
		// walk (a field or element read is simply not provably bounded).
		if w.a.Mode != ModeWire {
			return UnknownVal()
		}
		if ta, ok := e.(*ast.TypeAssertExpr); ok {
			return w.eval(ta.X, state)
		}
		if root := RootVar(w.f.Pkg, e.(ast.Expr)); root != nil {
			return w.lookup(root, state)
		}
		return UnknownVal()
	case *ast.CompositeLit:
		if w.a.Mode != ModeWire {
			return UnknownVal()
		}
		out := BoundedVal()
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			out = out.Join(w.eval(el, state))
		}
		return out
	case *ast.FuncLit:
		return w.fresh()
	}
	return UnknownVal()
}

// fresh is the taint of a value this frame just made (make, new, a
// copy count, a function literal): bounded in wire mode; pessimistic
// mode tracks no content, so there it is simply not provably bounded.
func (w *taintWalker) fresh() TVal {
	if w.a.Mode == ModeWire {
		return BoundedVal()
	}
	return UnknownVal()
}

// evalCallExpr handles every call shape: builtins (with the alloc and
// capacity sink checks), conversions, trust-boundary sources, local
// calls resolved through summaries, and opaque externals. It returns
// one TVal per result.
func (w *taintWalker) evalCallExpr(call *ast.CallExpr, state taintState) []TVal {
	fun := ast.Unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := w.f.Pkg.Info.Uses[id].(*types.Builtin); ok {
			return w.evalBuiltin(b, call, state)
		}
	}
	if tv, ok := w.f.Pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		// Type conversion: as tainted as its operand.
		if len(call.Args) == 1 {
			return []TVal{w.eval(call.Args[0], state)}
		}
		return []TVal{UnknownVal()}
	}
	return w.evalRealCall(call, state)
}

func (w *taintWalker) evalBuiltin(b *types.Builtin, call *ast.CallExpr, state taintState) []TVal {
	switch b.Name() {
	case "len", "cap":
		// Bounded by data already in memory: the peer paid for those
		// bytes, so sizing by them cannot be inflated beyond them.
		return []TVal{BoundedVal()}
	case "min":
		// min is bounded if any argument is.
		anyStrict := false
		out := UnknownVal()
		for i, arg := range call.Args {
			v := w.eval(arg, state)
			if v.BoundedStrict() {
				anyStrict = true
			}
			if i == 0 {
				out = v
			} else {
				out = minTV(out, v)
			}
		}
		if anyStrict {
			return []TVal{BoundedVal()}
		}
		if w.a.Mode == ModeWire {
			return []TVal{out}
		}
		return []TVal{UnknownVal()}
	case "make":
		w.checkMakeSinks(call, state)
		return []TVal{w.fresh()} // the made container starts zeroed
	case "append":
		if w.a.Mode == ModeWire {
			out := BoundedVal()
			for _, arg := range call.Args {
				out = out.Join(w.eval(arg, state))
			}
			return []TVal{out}
		}
		return []TVal{UnknownVal()}
	case "copy":
		if w.a.Mode == ModeWire && len(call.Args) == 2 {
			w.taintContent(call.Args[0], w.eval(call.Args[1], state), state)
		}
		return []TVal{w.fresh()} // the count is capped by len of both slices
	case "new":
		return []TVal{w.fresh()}
	default:
		return []TVal{UnknownVal()}
	}
}

// checkMakeSinks records the allocation-size sinks of a make call:
// slice length/capacity and map size hints (SinkAlloc) and, in wire
// mode, channel capacities (SinkChanCap).
func (w *taintWalker) checkMakeSinks(call *ast.CallExpr, state taintState) {
	if len(call.Args) < 2 {
		return
	}
	tv, ok := w.f.Pkg.Info.Types[call.Args[0]]
	if !ok {
		return
	}
	var kind SinkKind
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		kind = SinkAlloc
	case *types.Map:
		if w.a.Mode != ModeWire {
			return // the original walk checked slices only
		}
		kind = SinkAlloc
	case *types.Chan:
		if w.a.Mode != ModeWire {
			return
		}
		kind = SinkChanCap
	default:
		return
	}
	// Report the first offending size argument, like the original walk.
	var offender ast.Expr
	var oval TVal
	for _, arg := range call.Args[1:] {
		v := w.eval(arg, state)
		bad := false
		if w.a.Mode == ModeWire {
			bad = wireish(v)
		} else {
			bad = !v.BoundedStrict()
		}
		if bad {
			offender, oval = arg, v
			break
		}
	}
	if offender == nil {
		return
	}
	w.record(kind, call.Pos(), types.ExprString(offender), oval)
}

// evalRealCall models a non-builtin, non-conversion call: source
// hooks, local summaries, or the opaque-external default.
func (w *taintWalker) evalRealCall(call *ast.CallExpr, state taintState) []TVal {
	pkg := w.f.Pkg
	n := w.callResultCount(call)
	argVals := make([]TVal, len(call.Args))
	for i, arg := range call.Args {
		argVals[i] = w.eval(arg, state)
	}
	var recvVal TVal
	hasRecv := false
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isSel := pkg.Info.Selections[sel]; isSel {
			recvVal = w.eval(sel.X, state)
			hasRecv = true
		}
	}
	callee := CalleeOf(pkg, call)

	// io.ReadAll never has a bound; pessimistic mode flags every call.
	if w.a.Mode == ModePessimistic && isReadAllCall(pkg, call) {
		w.record(SinkReadAll, call.Pos(), "io.ReadAll", UnknownVal())
	}

	if w.a.Mode == ModeWire {
		// Duration/deadline sink: a peer-chosen sleep parks the slot.
		if di := durationArgIndex(callee); di >= 0 && di < len(argVals) {
			if wireish(argVals[di]) {
				w.record(SinkSleep, call.Pos(), types.ExprString(call.Args[di]), argVals[di])
			}
		}
		// Trust-boundary source?
		if w.a.SourceCall != nil {
			if src, taintsResult, taintArgs, ok := w.a.SourceCall(pkg, call, callee); ok {
				wv := WireVal(src, call.Pos())
				for _, ti := range taintArgs {
					if ti >= 0 && ti < len(call.Args) {
						w.taintContent(call.Args[ti], wv, state)
					}
				}
				out := make([]TVal, n)
				for i := range out {
					if taintsResult {
						out[i] = wv
					} else {
						// Read-style count results are capped by the buffer.
						out[i] = BoundedVal()
					}
				}
				return out
			}
		}
	}

	// Module-local callee: record the call-site argument taint (the
	// raw material for witness chains) and resolve the summary.
	if cs := w.csOf[call]; cs != nil && cs.Callee != nil {
		w.ft.ArgVals[cs] = append([]TVal(nil), argVals...)
		if hasRecv {
			w.ft.RecvVals[cs] = recvVal
		}
		sum := w.a.Facts(cs.Callee)
		if w.a.Mode == ModeWire && sum.Effects != 0 {
			ev := WireVal(sum.EffectSrc, sum.EffectPos)
			for i := 0; i < recvParam; i++ {
				if sum.Effects&(1<<i) != 0 && i < len(call.Args) {
					w.taintContent(call.Args[i], ev, state)
				}
			}
			if sum.Effects&(1<<recvParam) != 0 && hasRecv {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					w.taintContent(sel.X, ev, state)
				}
			}
		}
		out := make([]TVal, n)
		for i := range out {
			if i < len(sum.Results) {
				out[i] = w.resolveResult(sum.Results[i], cs.Callee, argVals, recvVal, hasRecv)
			} else {
				out[i] = UnknownVal()
			}
		}
		return out
	}

	// Opaque external or dynamic call.
	out := make([]TVal, n)
	if w.a.Mode == ModePessimistic {
		for i := range out {
			out[i] = UnknownVal()
		}
		return out
	}
	// Size/shape metadata of in-memory data is bounded — the method
	// twin of the len/cap builtins. v.Len() of a decoded slice, a
	// big.Int's BitLen, reflect's Type/Kind/NumField: none can exceed
	// what the peer already paid to materialize in memory, and the set
	// of program types is finite. Only external callees take this
	// shortcut; a module-local method named Len resolves through its
	// summary, which knows whether it really returns a capped value.
	if fn, ok := callee.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && sig.Params().Len() == 0 {
			switch fn.Name() {
			case "Len", "Cap", "Size", "BitLen", "Kind", "Type", "NumField", "NumMethod", "NumIn", "NumOut":
				for i := range out {
					out[i] = BoundedVal()
				}
				return out
			}
		}
	}
	// Wire default: the result of an unknown function over wire data
	// is wire (binary.BigEndian.Uint64(hdr), strconv.Atoi(s), ...);
	// otherwise unknown, keeping parameter obligations alive.
	j := UnknownVal()
	for _, av := range argVals {
		j = j.Join(av)
	}
	if hasRecv {
		j = j.Join(recvVal)
	}
	for i := range out {
		out[i] = j
	}
	return out
}

// resolveResult substitutes call-site argument taint into a callee
// result summary: {Bounded, param i} resolved against a wire argument
// is wire.
func (w *taintWalker) resolveResult(tv TVal, callee *Func, argVals []TVal, recvVal TVal, hasRecv bool) TVal {
	out := TVal{T: tv.T, Src: tv.Src, SrcPos: tv.SrcPos}
	if tv.Params == 0 {
		return out
	}
	for i := 0; i < recvParam; i++ {
		if tv.Params&(1<<i) == 0 {
			continue
		}
		if av, ok := argForParam(callee, i, argVals); ok {
			out = out.Join(av)
		} else if out.T < TaintUnknown {
			out.T = TaintUnknown
		}
	}
	if tv.Params&(1<<recvParam) != 0 {
		if hasRecv {
			out = out.Join(recvVal)
		} else if out.T < TaintUnknown {
			out.T = TaintUnknown
		}
	}
	return out
}

// taintContent joins tv into the variable backing argExpr — the model
// for "this call fills that buffer with peer bytes". A parameter root
// becomes a pointee effect in the summary.
func (w *taintWalker) taintContent(argExpr ast.Expr, tv TVal, state taintState) {
	root := RootVar(w.f.Pkg, argExpr)
	if root == nil {
		return
	}
	state[root] = w.lookup(root, state).Join(tv)
	if tv.T == TaintWire {
		if pi, ok := w.pidx[root]; ok {
			w.ft.Effects |= 1 << pi
			if w.ft.EffectSrc == "" {
				w.ft.EffectSrc, w.ft.EffectPos = tv.Src, tv.SrcPos
			}
		}
	}
}

func (w *taintWalker) callResultCount(call *ast.CallExpr) int {
	tv, ok := w.f.Pkg.Info.Types[call]
	if !ok || tv.Type == nil {
		return 1
	}
	if t, ok := tv.Type.(*types.Tuple); ok {
		return t.Len()
	}
	return 1
}

// isReadAllCall reports whether call invokes io.ReadAll (or the legacy
// io/ioutil.ReadAll).
func isReadAllCall(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != "ReadAll" || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "io" || fn.Pkg().Path() == "io/ioutil"
}

// durationArgIndex returns the argument index carrying a duration or
// deadline for the std time-park APIs, or -1.
func durationArgIndex(callee types.Object) int {
	fn, ok := callee.(*types.Func)
	if !ok {
		return -1
	}
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil
	switch {
	case pkgPath == "time" && !isMethod:
		switch fn.Name() {
		case "Sleep", "After", "Tick", "NewTimer", "NewTicker", "AfterFunc":
			return 0
		}
	case isMethod:
		switch fn.Name() {
		case "SetDeadline", "SetReadDeadline", "SetWriteDeadline":
			return 0
		case "Reset":
			if pkgPath == "time" {
				return 0
			}
		}
	case pkgPath == "context" && fn.Name() == "WithTimeout":
		return 1
	}
	return -1
}

// BoundFact is one object a condition proves bounded, plus the
// expression doing the bounding (nil when structural).
type BoundFact struct {
	Obj   types.Object
	Bound ast.Expr
}

// condFacts extracts the objects proven bounded when cond evaluates to
// the given truth value. For truth=true it decomposes && chains (all
// operands hold); for truth=false it decomposes || chains (all
// negations hold). A comparison bounds the variable on its small side:
// `v < cap` bounds v when true; `v > cap` bounds v when false.
func condFacts(pkg *Package, cond ast.Expr, truth bool) []BoundFact {
	cond = ast.Unparen(cond)
	switch e := cond.(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			if truth {
				return append(condFacts(pkg, e.X, true), condFacts(pkg, e.Y, true)...)
			}
			return nil
		case token.LOR:
			if !truth {
				return append(condFacts(pkg, e.X, false), condFacts(pkg, e.Y, false)...)
			}
			return nil
		case token.LSS, token.LEQ:
			// x < y: true bounds x by y, false bounds y by x.
			if truth {
				return boundFacts(pkg, e.X, e.Y)
			}
			return boundFacts(pkg, e.Y, e.X)
		case token.GTR, token.GEQ:
			// x > y: true bounds y by x, false bounds x by y.
			if truth {
				return boundFacts(pkg, e.Y, e.X)
			}
			return boundFacts(pkg, e.X, e.Y)
		}
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			return condFacts(pkg, e.X, !truth)
		}
	}
	return nil
}

func boundFacts(pkg *Package, small, big ast.Expr) []BoundFact {
	var out []BoundFact
	for _, obj := range identObjects(pkg, small) {
		out = append(out, BoundFact{Obj: obj, Bound: big})
	}
	return out
}

// identObjects returns the object behind expr if it is a plain
// identifier (possibly through a conversion like uint64(v)).
func identObjects(pkg *Package, expr ast.Expr) []types.Object {
	expr = ast.Unparen(expr)
	if call, ok := expr.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
			expr = ast.Unparen(call.Args[0])
		}
	}
	if id, ok := expr.(*ast.Ident); ok {
		if obj := pkg.Info.Uses[id]; obj != nil {
			return []types.Object{obj}
		}
	}
	return nil
}

// Terminates reports whether a block always transfers control away
// (return, panic, or branch) at its end.
func Terminates(block *ast.BlockStmt) bool {
	if block == nil || len(block.List) == 0 {
		return false
	}
	return StmtTerminates(block.List[len(block.List)-1])
}

// StmtTerminates reports whether stmt always transfers control away.
func StmtTerminates(stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok == token.BREAK || s.Tok == token.CONTINUE || s.Tok == token.GOTO
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return Terminates(s)
	case *ast.IfStmt:
		return Terminates(s.Body) && s.Else != nil && StmtTerminates(s.Else)
	}
	return false
}

// DescribeSource renders a TVal's source for a finding message.
func (a TVal) DescribeSource(fset *token.FileSet) string {
	if a.Src == "" {
		return "wire data"
	}
	if a.SrcPos == token.NoPos {
		return a.Src
	}
	return fmt.Sprintf("%s at %s", a.Src, shortPos(fset, a.SrcPos))
}

// ChainString renders a witness chain for a finding message.
func ChainString(chain []string) string {
	if len(chain) == 0 {
		return ""
	}
	return "; path: " + strings.Join(chain, " ← ")
}
