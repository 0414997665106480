package ir

import (
	"go/ast"
	"strings"
	"testing"
)

func TestBitSetOps(t *testing.T) {
	a := NewBitSet(130)
	b := NewBitSet(130)
	a.Set(0)
	a.Set(64)
	a.Set(129)
	b.Set(64)
	b.Set(100)

	if !a.Has(129) || a.Has(128) {
		t.Fatalf("Set/Has across word boundaries broken")
	}
	c := a.Copy()
	if changed := c.UnionWith(b); !changed {
		t.Fatalf("union should report change")
	}
	for _, i := range []int{0, 64, 100, 129} {
		if !c.Has(i) {
			t.Fatalf("union missing bit %d", i)
		}
	}
	d := a.Copy()
	d.IntersectWith(b)
	if !d.Has(64) || d.Has(0) || d.Has(129) {
		t.Fatalf("intersection wrong")
	}
	d.Clear(64)
	if !d.Empty() {
		t.Fatalf("expected empty after clearing the only bit")
	}
	full := NewBitSet(130)
	full.Fill()
	got := 0
	full.ForEach(func(int) { got++ })
	if got != 130 {
		t.Fatalf("Fill+ForEach visited %d bits, want 130", got)
	}
	if full.Has(130) || full.Has(-1) {
		t.Fatalf("out-of-range Has must be false")
	}
}

// TestSolveForwardMay checks a reaching-definitions-style forward/
// union problem: facts generated in one branch survive to the join.
func TestSolveForwardMay(t *testing.T) {
	_, prog := parseFixture(t, `package fixture
func f(c bool) int {
	x := 1
	if c {
		x = 2
	}
	return x
}`)
	fn := funcByName(t, prog, "f")
	du := BuildDefUse(fn)

	ret := blockContaining(t, fn, "return x")
	var use *ast.Ident
	ast.Inspect(ret.Nodes[len(ret.Nodes)-1], func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "x" {
			use = id
		}
		return true
	})
	rhs := du.ReachingRHS(use)
	if len(rhs) != 2 {
		t.Fatalf("got %d reaching defs at the join, want 2 (both branches)", len(rhs))
	}
	// Inside the then-branch, only the re-assignment reaches.
	_ = rhs
}

// TestSolveKill checks that a later def kills an earlier one on a
// straight-line path.
func TestSolveKill(t *testing.T) {
	_, prog := parseFixture(t, `package fixture
func g() int {
	x := 1
	x = 2
	return x
}`)
	fn := funcByName(t, prog, "g")
	du := BuildDefUse(fn)
	ret := blockContaining(t, fn, "return x")
	var use *ast.Ident
	ast.Inspect(ret.Nodes[len(ret.Nodes)-1], func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "x" {
			use = id
		}
		return true
	})
	rhs := du.ReachingRHS(use)
	if len(rhs) != 1 {
		t.Fatalf("got %d reaching defs, want 1 (the overwrite)", len(rhs))
	}
	if lit, ok := rhs[0].(*ast.BasicLit); !ok || lit.Value != "2" {
		t.Fatalf("surviving def is not the overwrite")
	}
}

// TestSolveLoopFixpoint: defs flowing around a back edge reach the
// loop header without infinite iteration.
func TestSolveLoopFixpoint(t *testing.T) {
	_, prog := parseFixture(t, `package fixture
func h(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		x = x + i
	}
	return x
}`)
	fn := funcByName(t, prog, "h")
	du := BuildDefUse(fn)
	// The use of x inside the loop body sees both the init and the
	// loop-carried def.
	body := blockContaining(t, fn, "x = x + i")
	var use *ast.Ident
	ast.Inspect(body.Nodes[0], func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		ast.Inspect(as.Rhs[0], func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && id.Name == "x" {
				use = id
			}
			return true
		})
		return true
	})
	rhs := du.ReachingRHS(use)
	if len(rhs) != 2 {
		t.Fatalf("loop body use sees %d defs, want 2 (init + carried)", len(rhs))
	}
}

// TestSolveBackwardMust exercises the backward/intersection mode with
// a tiny liveness-style problem: a fact holds at a block iff it holds
// on every path to the exit.
func TestSolveBackwardMust(t *testing.T) {
	_, prog := parseFixture(t, `package fixture
func b(c bool) int {
	x := 0
	if c {
		x = 1
		return x
	}
	x = 2
	return x
}`)
	fn := funcByName(t, prog, "b")

	// Universe: one fact per block, "this block lies on the path".
	// Transfer: out ∪ {self}; backward+union reachability-to-exit.
	bits := len(fn.Blocks)
	in, _ := Solve(fn, Problem{
		Dir:       Backward,
		MeetUnion: true,
		Bits:      bits,
		Transfer: func(blk *Block, facts *BitSet) *BitSet {
			facts.Set(blk.Index)
			return facts
		},
	})
	// Every reachable block with statements must be able to reach exit.
	for _, blk := range fn.Blocks {
		if blk.Unreachable() || blk == fn.Exit {
			continue
		}
		if !in[blk.Index].Has(blk.Index) {
			t.Fatalf("block %d missing its own backward fact", blk.Index)
		}
	}

	// Must-mode: a fact injected only on ONE return path does not
	// survive the intersection at the branch point.
	r1 := blockContaining(t, fn, "return x")
	inMust, _ := Solve(fn, Problem{
		Dir:       Backward,
		MeetUnion: false,
		Bits:      1,
		Transfer: func(blk *Block, facts *BitSet) *BitSet {
			if blk == r1 {
				facts.Set(0)
			}
			return facts
		},
	})
	condBlock := blockContaining(t, fn, "if c")
	if inMust[condBlock.Index].Has(0) {
		t.Fatalf("must-fact present on only one path survived the meet")
	}
}

func TestSummaryCacheCycles(t *testing.T) {
	_, prog := parseFixture(t, `package fixture
func even(n int) bool {
	if n == 0 {
		return true
	}
	return odd(n - 1)
}
func odd(n int) bool {
	if n == 0 {
		return false
	}
	return even(n - 1)
}`)
	even := funcByName(t, prog, "even")
	odd := funcByName(t, prog, "odd")

	cache := Memo[*Func, bool]{MaxDepth: 16}
	computes := 0
	var query func(f *Func) bool
	query = func(f *Func) bool {
		return cache.Get(f, false, func() bool {
			computes++
			// Recurse into every resolved callee: cycles must hit the
			// visiting guard, not recurse forever.
			for _, cs := range f.Calls {
				if cs.Callee != nil {
					query(cs.Callee)
				}
			}
			return true
		})
	}
	if !query(even) {
		t.Fatalf("summary query returned cycle default at top level")
	}
	if computes != 2 {
		t.Fatalf("computed %d summaries, want 2 (even, odd once each)", computes)
	}
	// Second query hits the cache.
	before := computes
	query(odd)
	if computes != before {
		t.Fatalf("cache miss on repeat query")
	}
}

func TestFuncNaming(t *testing.T) {
	_, prog := parseFixture(t, `package fixture
type T struct{}
func (T) V()       {}
func (t *T) P()    {}
func Plain()       {}
var f = func() {}
`)
	for _, want := range []string{"fixture.(T).V", "fixture.(*T).P", "fixture.Plain"} {
		funcByName(t, prog, want)
	}
	lits := 0
	for _, fn := range prog.Funcs {
		if fn.Lit != nil && strings.Contains(fn.Name, "func@") {
			lits++
		}
	}
	if lits != 1 {
		t.Fatalf("package-level literal not built, got %d", lits)
	}
}
