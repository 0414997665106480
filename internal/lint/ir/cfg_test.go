package ir

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// fixtureText holds the last parsed fixture source so tests can map
// AST nodes back to their source text by offset.
var fixtureText string

// parseFixture type-checks one source string into a Package and
// returns the built Program. Fixtures must be import-free (the test
// deliberately avoids go/importer, which needs compiled export data).
func parseFixture(t *testing.T, src string) (*Package, *Program) {
	t.Helper()
	fixtureText = src
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{}
	tpkg, err := conf.Check("fixture", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("typecheck fixture: %v", err)
	}
	sp := &Package{
		Path:  "fixture",
		Fset:  fset,
		Files: []*ast.File{file},
		Info:  info,
		Types: tpkg,
	}
	return sp, BuildProgram([]*Package{sp})
}

func funcByName(t *testing.T, p *Program, name string) *Func {
	t.Helper()
	for _, f := range p.Funcs {
		if f.Name == name || strings.HasSuffix(f.Name, "."+name) {
			return f
		}
	}
	t.Fatalf("function %q not found in program", name)
	return nil
}

func stmtText(fset *token.FileSet, n ast.Node) string {
	return fixtureText[fset.Position(n.Pos()).Offset:fset.Position(n.End()).Offset]
}

// blockContaining finds the block holding the statement whose source
// text starts with the given fragment.
func blockContaining(t *testing.T, f *Func, fragment string) *Block {
	t.Helper()
	for _, b := range f.Blocks {
		for _, s := range b.Nodes {
			if strings.HasPrefix(stmtText(f.Pkg.Fset, s), fragment) {
				return b
			}
		}
	}
	t.Fatalf("no block-resident statement starts with %q", fragment)
	return nil
}

// reaches reports whether CFG block b can reach target.
func reaches(b, target *Block) bool {
	seen := make(map[*Block]bool)
	var walk func(*Block) bool
	walk = func(cur *Block) bool {
		if cur == target {
			return true
		}
		if seen[cur] {
			return false
		}
		seen[cur] = true
		for _, s := range cur.Succs {
			if walk(s) {
				return true
			}
		}
		return false
	}
	return walk(b)
}

func TestCFGBranches(t *testing.T) {
	_, prog := parseFixture(t, `package fixture
func branches(x int) int {
	y := 0
	if x > 0 {
		y = 1
	} else {
		y = 2
	}
	return y
}`)
	f := funcByName(t, prog, "branches")

	if !reaches(f.Entry, f.Exit) {
		t.Fatalf("entry does not reach exit")
	}
	condBlock := blockContaining(t, f, "if x > 0")
	if len(condBlock.Succs) != 2 {
		t.Fatalf("if block has %d successors, want 2", len(condBlock.Succs))
	}
	thenB := blockContaining(t, f, "y = 1")
	elseB := blockContaining(t, f, "y = 2")
	if thenB == elseB {
		t.Fatalf("then and else share a block")
	}
	retB := blockContaining(t, f, "return y")
	if !reaches(thenB, retB) || !reaches(elseB, retB) {
		t.Fatalf("arms do not rejoin at the return")
	}
	if reaches(thenB, elseB) || reaches(elseB, thenB) {
		t.Fatalf("branch arms must not reach each other")
	}

	// Dominance: the condition block dominates both arms and the
	// return; neither arm dominates the return.
	dom := Dominators(f)
	if !Dominates(dom, condBlock, thenB) || !Dominates(dom, condBlock, retB) {
		t.Fatalf("condition block should dominate arms and join")
	}
	if Dominates(dom, thenB, retB) || Dominates(dom, elseB, retB) {
		t.Fatalf("a single arm must not dominate the join")
	}
}

func TestCFGLoops(t *testing.T) {
	_, prog := parseFixture(t, `package fixture
func loops(xs []int) int {
	total := 0
	for i := 0; i < len(xs); i++ {
		total += xs[i]
	}
	for {
		if total > 100 {
			break
		}
		total++
	}
	return total
}`)
	f := funcByName(t, prog, "loops")

	var headers []*Block
	for _, b := range f.Blocks {
		if b.LoopStmt != nil {
			headers = append(headers, b)
		}
	}
	if len(headers) != 2 {
		t.Fatalf("got %d loop headers, want 2", len(headers))
	}
	// The bounded loop's body has a back edge to its header.
	body := blockContaining(t, f, "total += xs[i]")
	if !reaches(body, headers[0]) {
		t.Fatalf("counting-loop body has no back edge to its header")
	}
	// break exits the infinite loop: entry still reaches the return.
	retB := blockContaining(t, f, "return total")
	if !reaches(f.Entry, retB) {
		t.Fatalf("break does not exit the infinite loop")
	}
	// A condition-less for has no fall-through edge out of its
	// header: its only successor is the body.
	inf := headers[1]
	if len(inf.Succs) != 1 {
		t.Fatalf("condition-less for header has %d successors, want 1 (the body)", len(inf.Succs))
	}
}

func TestCFGDefersAndReturns(t *testing.T) {
	_, prog := parseFixture(t, `package fixture
func deferred(c bool) (out int) {
	defer func() { out++ }()
	if c {
		return 1
	}
	return 2
}`)
	f := funcByName(t, prog, "deferred")

	r1 := blockContaining(t, f, "return 1")
	r2 := blockContaining(t, f, "return 2")
	for _, r := range []*Block{r1, r2} {
		found := false
		for _, s := range r.Succs {
			if s == f.Exit {
				found = true
			}
		}
		if !found {
			t.Fatalf("return block %d does not edge to exit", r.Index)
		}
	}
	// The defer statement stays in the entry block; the deferred
	// literal's body is its own Func, not part of this CFG.
	d := blockContaining(t, f, "defer func")
	if d != f.Entry {
		t.Fatalf("defer not placed in entry block")
	}
	lits := 0
	for _, fn := range prog.Funcs {
		if fn.Lit != nil {
			lits++
		}
	}
	if lits != 1 {
		t.Fatalf("got %d literal Funcs, want 1", lits)
	}
}

func TestCFGMethodValuesAndCallGraph(t *testing.T) {
	_, prog := parseFixture(t, `package fixture
type counter struct{ n int }

func (c *counter) bump() { c.n++ }

func direct(c *counter) { c.bump() }

func viaValue(c *counter) {
	f := c.bump
	f()
}`)
	bump := funcByName(t, prog, "(*counter).bump")
	direct := funcByName(t, prog, "direct")
	viaValue := funcByName(t, prog, "viaValue")

	// The direct method call resolves to bump's Func.
	if len(direct.Calls) != 1 || direct.Calls[0].Callee != bump {
		t.Fatalf("direct method call did not resolve to bump")
	}
	// Callers map is the reverse edge.
	found := false
	for _, cs := range prog.Callers[bump] {
		if cs.Caller == direct {
			found = true
		}
	}
	if !found {
		t.Fatalf("Callers[bump] missing the direct call site")
	}
	// The method-value invocation f() is dynamic: CalleeObj nil. But
	// reaching defs recover the bound method from the definition.
	var dyn *CallSite
	for _, cs := range viaValue.Calls {
		if id, ok := cs.Call.Fun.(*ast.Ident); ok && id.Name == "f" {
			dyn = cs
		}
	}
	if dyn == nil {
		t.Fatalf("method-value call site not recorded")
	}
	if dyn.CalleeObj != nil || dyn.Callee != nil {
		t.Fatalf("method-value call should be unresolved statically")
	}
	du := BuildDefUse(viaValue)
	id := dyn.Call.Fun.(*ast.Ident)
	rhs := du.ReachingRHS(id)
	if len(rhs) != 1 {
		t.Fatalf("got %d reaching defs for f, want 1", len(rhs))
	}
	sel, ok := rhs[0].(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "bump" {
		t.Fatalf("reaching def of f is not the c.bump method value")
	}
}

func TestCFGSwitchSelectUnreachable(t *testing.T) {
	_, prog := parseFixture(t, `package fixture
func sw(x int, ch chan int) int {
	switch x {
	case 1:
		return 1
	case 2:
		x++
	default:
		x--
	}
	select {
	case v := <-ch:
		return v
	case ch <- x:
	}
	return x
}

func dead() int {
	for {
		break
	}
	return 1
}`)
	f := funcByName(t, prog, "sw")
	tag := blockContaining(t, f, "switch x")
	if len(tag.Succs) != 3 { // three clauses; default present → no fall edge
		t.Fatalf("switch tag block has %d successors, want 3", len(tag.Succs))
	}
	sel := blockContaining(t, f, "select {")
	if len(sel.Succs) != 2 {
		t.Fatalf("select block has %d successors, want 2", len(sel.Succs))
	}
	retB := blockContaining(t, f, "return x")
	if !reaches(f.Entry, retB) {
		t.Fatalf("fall-through switch cases do not rejoin")
	}

	// Reachability marking: everything in dead() is reachable (break
	// exits the loop), and no reachable function block is marked.
	g := funcByName(t, prog, "dead")
	for _, b := range g.Blocks {
		if len(b.Nodes) > 0 && b.Unreachable() {
			t.Fatalf("block %d wrongly marked unreachable", b.Index)
		}
	}
}

func TestCFGGotoAndLabels(t *testing.T) {
	_, prog := parseFixture(t, `package fixture
func labeled(xs [][]int) int {
	total := 0
outer:
	for _, row := range xs {
		for _, v := range row {
			if v < 0 {
				continue outer
			}
			if v == 99 {
				break outer
			}
			total += v
		}
	}
	if total == 0 {
		goto done
	}
	total *= 2
done:
	return total
}`)
	f := funcByName(t, prog, "labeled")
	retB := blockContaining(t, f, "return total")
	// break outer jumps past both loops to the tail.
	brk := blockContaining(t, f, "break outer")
	if !reaches(brk, retB) {
		t.Fatalf("break outer does not reach the function tail")
	}
	// continue outer re-enters the outer range header.
	cont := blockContaining(t, f, "continue outer")
	var outerHead *Block
	for _, b := range f.Blocks {
		if rs, ok := b.LoopStmt.(*ast.RangeStmt); ok && strings.HasPrefix(stmtText(f.Pkg.Fset, rs), "for _, row") {
			outerHead = b
		}
	}
	if outerHead == nil {
		t.Fatalf("outer range header not found")
	}
	direct := false
	for _, s := range cont.Succs {
		if s == outerHead {
			direct = true
		}
	}
	if !direct {
		t.Fatalf("continue outer does not edge to the outer loop header")
	}
	// goto done lands on the labeled return.
	gt := blockContaining(t, f, "goto done")
	if !reaches(gt, retB) {
		t.Fatalf("goto done does not reach the labeled return")
	}
	// The skipped statement must not sit on the goto path.
	dbl := blockContaining(t, f, "total *= 2")
	for _, s := range gt.Succs {
		if s == dbl {
			t.Fatalf("goto done must not fall into the skipped statement")
		}
	}
}
