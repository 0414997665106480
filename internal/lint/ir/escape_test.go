package ir

import (
	"go/ast"
	"go/types"
	"testing"
)

// localVar finds the unique *types.Var named name declared anywhere in
// the fixture (fixtures use unique names per variable on purpose).
func localVar(t *testing.T, sp *Package, name string) *types.Var {
	t.Helper()
	var found *types.Var
	for _, obj := range sp.Info.Defs {
		v, ok := obj.(*types.Var)
		if !ok || v.Name() != name {
			continue
		}
		if found != nil && found != v {
			t.Fatalf("variable name %q is ambiguous in fixture", name)
		}
		found = v
	}
	if found == nil {
		t.Fatalf("no variable named %q in fixture", name)
	}
	return found
}

// TestEscapeAliasThroughCopy pins the basic union: an ident copy
// aliases both loosely and tightly, and an unrelated local does not.
func TestEscapeAliasThroughCopy(t *testing.T) {
	sp, prog := parseFixture(t, `package fixture
type box struct{ n int }
func copies() {
	a := &box{}
	b := a
	c := &box{}
	_, _ = b, c
}`)
	f := funcByName(t, prog, "copies")
	e := BuildEscape(f)
	a, b, c := localVar(t, sp, "a"), localVar(t, sp, "b"), localVar(t, sp, "c")
	if !e.MayAlias(a, b) || !e.MayAliasTight(a, b) {
		t.Error("ident copy must alias under both relations")
	}
	if e.MayAlias(a, c) || e.MayAliasTight(a, c) {
		t.Error("independent allocations must not alias")
	}
}

// TestEscapeTightExcludesElementFlows pins the difference between the
// two relations: range-element and index extraction reach the
// container loosely (same object graph) but not tightly (a slice that
// merely contains a pointer is not the same container).
func TestEscapeTightExcludesElementFlows(t *testing.T) {
	sp, prog := parseFixture(t, `package fixture
type box struct{ n int }
func elems(items []*box) {
	var last *box
	for _, it := range items {
		last = it
	}
	first := items[0]
	tail := items[1:]
	_, _, _ = last, first, tail
}`)
	f := funcByName(t, prog, "elems")
	e := BuildEscape(f)
	items := localVar(t, sp, "items")
	it := localVar(t, sp, "it")
	last := localVar(t, sp, "last")
	first := localVar(t, sp, "first")
	tail := localVar(t, sp, "tail")

	if !e.MayAlias(it, items) {
		t.Error("range element must alias its container loosely")
	}
	if e.MayAliasTight(it, items) {
		t.Error("range element must NOT alias its container tightly")
	}
	if !e.MayAliasTight(last, it) {
		t.Error("ident copy of the element must stay tight")
	}
	if e.MayAliasTight(first, items) {
		t.Error("index extraction must NOT be a tight flow")
	}
	if !e.MayAlias(first, items) {
		t.Error("index extraction must still be a loose flow")
	}
	if !e.MayAliasTight(tail, items) {
		t.Error("a reslice shares the backing array: tight flow required")
	}
}

// TestEscapeGoroutineCapture pins SharedWithGoroutine and Sites: a
// free variable of a go-literal crosses the goroutine boundary, a
// plain local does not escape at all.
func TestEscapeGoroutineCapture(t *testing.T) {
	sp, prog := parseFixture(t, `package fixture
func spawn() {
	shared := map[int]int{}
	private := 0
	go func() {
		shared[0] = 1
	}()
	private++
	_ = private
}`)
	f := funcByName(t, prog, "spawn")
	e := BuildEscape(f)
	shared, private := localVar(t, sp, "shared"), localVar(t, sp, "private")

	if !e.SharedWithGoroutine(shared) {
		t.Error("captured map must be shared with the goroutine")
	}
	if !e.Escapes(shared) {
		t.Error("captured map must have at least one escape site")
	}
	crossing := false
	for _, site := range e.Sites(shared) {
		if site.Kind.CrossesGoroutine() {
			crossing = true
		}
	}
	if !crossing {
		t.Error("capture site must be marked as crossing a goroutine")
	}
	if e.Escapes(private) || e.SharedWithGoroutine(private) {
		t.Error("uncaptured local must not escape")
	}
}

// TestFreeVars pins the capture set of a literal: variables bound
// outside the literal appear, literal-local declarations do not.
func TestFreeVars(t *testing.T) {
	sp, prog := parseFixture(t, `package fixture
func outer() {
	captured := 1
	alsoCaptured := 2
	fn := func() int {
		inner := 3
		return captured + alsoCaptured + inner
	}
	_ = fn
}`)
	f := funcByName(t, prog, "outer")
	var lit *ast.FuncLit
	ast.Inspect(f.Body, func(n ast.Node) bool {
		if l, ok := n.(*ast.FuncLit); ok && lit == nil {
			lit = l
		}
		return lit == nil
	})
	if lit == nil {
		t.Fatal("fixture must contain a func literal")
	}
	got := make(map[*types.Var]bool)
	for _, v := range FreeVars(f.Pkg, lit) {
		got[v] = true
	}
	if !got[localVar(t, sp, "captured")] || !got[localVar(t, sp, "alsoCaptured")] {
		t.Errorf("FreeVars missed a captured variable: %v", got)
	}
	if got[localVar(t, sp, "inner")] {
		t.Error("FreeVars must not include literal-local declarations")
	}
}

// TestRootAndParamVars pins the selector-root walk and the
// receiver/parameter enumeration used by the spawn analysis.
func TestRootAndParamVars(t *testing.T) {
	sp, prog := parseFixture(t, `package fixture
type inner struct{ n int }
type holder struct{ in *inner }
func (h *holder) bump(delta int, tag string) {
	h.in.n += delta
	_ = tag
}`)
	f := funcByName(t, prog, "bump")
	h := localVar(t, sp, "h")

	if got := RecvVar(f); got != h {
		t.Fatalf("RecvVar = %v, want receiver h", got)
	}
	params := ParamVars(f)
	names := make(map[string]bool, len(params))
	for _, p := range params {
		names[p.Name()] = true
	}
	if !names["delta"] || !names["tag"] || len(params) != 2 {
		t.Fatalf("ParamVars = %v, want delta and tag", names)
	}

	// The write target h.in.n roots at the receiver.
	var sel *ast.SelectorExpr
	ast.Inspect(f.Body, func(n ast.Node) bool {
		if s, ok := n.(*ast.SelectorExpr); ok && sel == nil {
			sel = s
		}
		return sel == nil
	})
	if sel == nil {
		t.Fatal("fixture must contain a selector")
	}
	if got := RootVar(f.Pkg, sel); got != h {
		t.Fatalf("RootVar(h.in.n...) = %v, want h", got)
	}
}
