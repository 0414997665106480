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
// aliases, and an unrelated local does not.
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
	e := BuildAlias(f)
	a, b, c := localVar(t, sp, "a"), localVar(t, sp, "b"), localVar(t, sp, "c")
	if !e.MayAliasTight(a, b) {
		t.Error("ident copy must alias")
	}
	if e.MayAliasTight(a, c) {
		t.Error("independent allocations must not alias")
	}
}

// TestEscapeTightExcludesElementFlows pins what the relation leaves
// out: range-element and index extraction reach the container's object
// graph, but a slice that merely contains a pointer is not the same
// container, while a reslice is.
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
	e := BuildAlias(f)
	items := localVar(t, sp, "items")
	it := localVar(t, sp, "it")
	last := localVar(t, sp, "last")
	first := localVar(t, sp, "first")
	tail := localVar(t, sp, "tail")

	if e.MayAliasTight(it, items) {
		t.Error("range element must NOT alias its container")
	}
	if !e.MayAliasTight(last, it) {
		t.Error("ident copy of the element must stay tight")
	}
	if e.MayAliasTight(first, items) {
		t.Error("index extraction must NOT be a tight flow")
	}
	if !e.MayAliasTight(tail, items) {
		t.Error("a reslice shares the backing array: tight flow required")
	}
}

// TestRootAndParamVars pins the selector-root walk and the
// receiver/parameter enumeration the taint engine seeds from.
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
