package ir

import (
	"go/ast"
	"go/types"
	"strings"
	"testing"
)

// taintRecv is the unit-test source hook: any call to a function named
// recv returns peer-controlled data.
func taintRecv(pkg *Package, call *ast.CallExpr, callee types.Object) (string, bool, []int, bool) {
	if callee != nil && callee.Name() == "recv" {
		return "peer", true, nil, true
	}
	return "", false, nil, false
}

func wireEngine(prog *Program) *TaintAnalysis {
	return &TaintAnalysis{Prog: prog, Mode: ModeWire, SourceCall: taintRecv}
}

// sinksByFunc indexes resolved sinks by the short name of the function
// they were recorded in.
func sinksByFunc(sinks []TaintSink) map[string][]TaintSink {
	out := make(map[string][]TaintSink)
	for _, s := range sinks {
		name := s.Fn.Name
		if i := strings.LastIndex(name, "."); i >= 0 {
			name = name[i+1:]
		}
		out[name] = append(out[name], s)
	}
	return out
}

// TestTaintSummaryMemoization pins the summary cache: a callee's facts
// are computed on demand while walking its caller, the cached pointer
// is returned on every later query, and a recursive cycle still
// converges to one cached summary per function.
func TestTaintSummaryMemoization(t *testing.T) {
	_, prog := parseFixture(t, `package fixture
func helper(n int) []int { return make([]int, n) }
func caller1() []int { return helper(1) }
func caller2() []int { return helper(2) }
func ping(n int) int {
	if n == 0 {
		return 0
	}
	return pong(n - 1)
}
func pong(n int) int { return ping(n) }`)
	a := wireEngine(prog)
	helper := funcByName(t, prog, "helper")

	a.Facts(funcByName(t, prog, "caller1"))
	cached, ok := a.facts.Cached(helper)
	if !ok || cached == nil {
		t.Fatal("walking caller1 must compute and cache helper's summary on demand")
	}
	if got := a.Facts(helper); got != cached {
		t.Error("Facts(helper) must return the pointer cached during caller1's walk")
	}
	a.Facts(funcByName(t, prog, "caller2"))
	if got := a.Facts(helper); got != cached {
		t.Error("a second caller must reuse helper's memoized summary, not recompute it")
	}
	if len(cached.Sinks) != 1 || cached.Sinks[0].Kind != SinkAlloc {
		t.Fatalf("helper summary must hold its one alloc sink, got %v", cached.Sinks)
	}
	if cached.Sinks[0].Val.Params != 1 {
		t.Errorf("helper's sink must carry the param-0 obligation, got mask %b", cached.Sinks[0].Val.Params)
	}

	ping := funcByName(t, prog, "ping")
	pong := funcByName(t, prog, "pong")
	ft1 := a.Facts(ping)
	if ft2 := a.Facts(ping); ft2 != ft1 {
		t.Error("recursive function must still memoize to a single summary")
	}
	cachedPong, _ := a.facts.Cached(pong)
	if cachedPong == nil {
		t.Error("the cycle partner must end up cached too")
	}
	if got := a.Facts(pong); got != cachedPong {
		t.Error("Facts(pong) must return the cached cycle-partner summary")
	}
}

// TestTaintThroughAlias pins the MayAliasTight fallback: the walker's
// switch-clause states are discarded, so the only way taint survives
// `case: view = feed` is the flow-insensitive tight-alias class. A
// variable aliasing only bounded data must stay silent.
func TestTaintThroughAlias(t *testing.T) {
	_, prog := parseFixture(t, `package fixture
func recv() []int { return nil }
func classify(kind int) []int {
	feed := recv()
	var view []int
	switch kind {
	case 1:
		view = feed
	}
	return make([]int, view[0])
}
func classifyClean(kind int) []int {
	feed := recv()
	_ = feed
	local := []int{1, 2}
	var view2 []int
	switch kind {
	case 1:
		view2 = local
	}
	return make([]int, view2[0])
}`)
	byFn := sinksByFunc(wireEngine(prog).Run())
	got := byFn["classify"]
	if len(got) != 1 || got[0].Kind != SinkAlloc {
		t.Fatalf("classify must report exactly its alloc sink, got %v", got)
	}
	if got[0].Val.T != TaintWire || got[0].Val.Src != "peer" {
		t.Errorf("alias-recovered taint must be wire from the peer source, got %+v", got[0].Val)
	}
	if len(byFn["classifyClean"]) != 0 {
		t.Errorf("aliasing only bounded data must stay silent, got %v", byFn["classifyClean"])
	}
}

// TestTaintSanitizerDominance pins guard placement: an oversize check
// dominating the sink sanitizes, the same check after the sink does
// not, and a "bound" that is itself wire sanitizes nothing.
func TestTaintSanitizerDominance(t *testing.T) {
	_, prog := parseFixture(t, `package fixture
func recv() []int { return nil }
func guarded() []int {
	data := recv()
	n := data[0]
	if n > 64 {
		return nil
	}
	return make([]int, n)
}
func unguarded() []int {
	data := recv()
	n := data[0]
	out := make([]int, n)
	if n > 64 {
		return nil
	}
	return out
}
func wireBound() []int {
	data := recv()
	n := data[0]
	m := data[1]
	if n > m {
		return nil
	}
	return make([]int, n)
}`)
	byFn := sinksByFunc(wireEngine(prog).Run())
	if len(byFn["guarded"]) != 0 {
		t.Errorf("a dominating oversize guard must sanitize, got %v", byFn["guarded"])
	}
	if len(byFn["unguarded"]) != 1 {
		t.Errorf("a guard after the allocation must not sanitize, got %v", byFn["unguarded"])
	}
	if len(byFn["wireBound"]) != 1 {
		t.Errorf("a comparison against a peer-chosen bound must not sanitize, got %v", byFn["wireBound"])
	}
}

// TestTaintWitnessChain pins interprocedural resolution: a sink fed by
// a parameter obligation resolves through the recorded call-site
// arguments, and the chain lists every hop sink-outward.
func TestTaintWitnessChain(t *testing.T) {
	_, prog := parseFixture(t, `package fixture
func recv() []int { return nil }
func sink(n int) []int { return make([]int, n) }
func relay(m int) []int { return sink(m) }
func entry() []int {
	data := recv()
	return relay(data[0])
}`)
	sinks := wireEngine(prog).Run()
	if len(sinks) != 1 {
		t.Fatalf("want exactly one resolved sink, got %v", sinks)
	}
	s := sinks[0]
	if !strings.HasSuffix(s.Fn.Name, ".sink") || s.Kind != SinkAlloc || s.Expr != "n" {
		t.Fatalf("finding must land on sink's allocation, got %+v", s.SinkRecord)
	}
	if s.Val.T != TaintWire || s.Val.Src != "peer" {
		t.Fatalf("resolved value must be wire from the peer source, got %+v", s.Val)
	}
	if len(s.Chain) != 2 {
		t.Fatalf("chain must record both hops, got %v", s.Chain)
	}
	if !strings.Contains(s.Chain[0], "param n of") || !strings.Contains(s.Chain[0], "relay") {
		t.Errorf("first hop must name sink's param and relay's call site, got %q", s.Chain[0])
	}
	if !strings.Contains(s.Chain[1], "param m of") || !strings.Contains(s.Chain[1], "entry") {
		t.Errorf("second hop must name relay's param and entry's call site, got %q", s.Chain[1])
	}
}

// TestTaintPessimisticCalleeClamp pins the boundedalloc upgrade: in
// pessimistic mode a clamp inside a callee bounds the call site, while
// an unclamped parameter still reports.
func TestTaintPessimisticCalleeClamp(t *testing.T) {
	_, prog := parseFixture(t, `package fixture
func clampTo(n int) int {
	if n > 64 {
		return 64
	}
	return n
}
func usesClamp(x int) []int { return make([]int, clampTo(x)) }
func usesRaw(x int) []int   { return make([]int, x) }`)
	byFn := sinksByFunc((&TaintAnalysis{Prog: prog, Mode: ModePessimistic}).Run())
	if len(byFn["usesClamp"]) != 0 {
		t.Errorf("a clamp inside the callee must bound the call site, got %v", byFn["usesClamp"])
	}
	if len(byFn["usesRaw"]) != 1 {
		t.Errorf("an unclamped parameter must stay a pessimistic finding, got %v", byFn["usesRaw"])
	}
}
