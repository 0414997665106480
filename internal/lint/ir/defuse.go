package ir

import (
	"go/ast"
	"go/token"
	"go/types"
)

// definition is one static assignment of a value to a variable.
type definition struct {
	v     *types.Var
	rhs   ast.Expr // nil for parameter / range / type-switch defs
	block *Block
	pos   token.Pos
}

// DefUse holds reaching-definition facts for one function: which
// assignments to a variable may reach a given program point. It is a
// may-analysis (union meet), so "the defs reaching this use" is the
// complete set of RHS expressions the variable can hold there.
type DefUse struct {
	f    *Func
	defs []definition
	// byVar indexes the universe by variable.
	byVar map[*types.Var][]int
	in    []*BitSet // reaching defs at block entry
}

// BuildDefUse computes reaching definitions for f.
func BuildDefUse(f *Func) *DefUse {
	d := &DefUse{f: f, byVar: make(map[*types.Var][]int)}
	d.collectDefs()

	problem := Problem{
		Dir:       Forward,
		MeetUnion: true,
		Bits:      len(d.defs),
		Boundary:  d.entryFacts(),
		Transfer: func(b *Block, in *BitSet) *BitSet {
			return d.transferBlock(b, in, nil)
		},
	}
	d.in, _ = Solve(f, problem)
	return d
}

// entryFacts marks parameter (and named-result/receiver) defs live at
// function entry.
func (d *DefUse) entryFacts() *BitSet {
	s := NewBitSet(len(d.defs))
	for i, def := range d.defs {
		if def.block == nil { // parameter-style def
			s.Set(i)
		}
	}
	return s
}

// collectDefs enumerates every definition in the function body and
// its parameters.
func (d *DefUse) collectDefs() {
	info := d.f.Pkg.Info
	addDef := func(v *types.Var, rhs ast.Expr, blk *Block, pos token.Pos) {
		idx := len(d.defs)
		d.defs = append(d.defs, definition{v: v, rhs: rhs, block: blk, pos: pos})
		d.byVar[v] = append(d.byVar[v], idx)
	}

	// Receiver, parameters, named results: defined at entry.
	entry := append(ParamVars(d.f), ResultVars(d.f)...)
	if rv := RecvVar(d.f); rv != nil {
		entry = append([]*types.Var{rv}, entry...)
	}
	for _, v := range entry {
		if v != nil {
			addDef(v, nil, nil, v.Pos())
		}
	}

	lhsVar := func(e ast.Expr) *types.Var {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return nil
		}
		if v, ok := info.Defs[id].(*types.Var); ok {
			return v
		}
		if v, ok := info.Uses[id].(*types.Var); ok {
			return v
		}
		return nil
	}

	for _, blk := range d.f.Blocks {
		for _, s := range blk.Nodes {
			switch s := s.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) == len(s.Rhs) {
					for i, l := range s.Lhs {
						if v := lhsVar(l); v != nil {
							addDef(v, s.Rhs[i], blk, l.Pos())
						}
					}
				} else if len(s.Rhs) == 1 {
					// x, err := f(): every LHS is defined by the call.
					for _, l := range s.Lhs {
						if v := lhsVar(l); v != nil {
							addDef(v, s.Rhs[0], blk, l.Pos())
						}
					}
				}
			case *ast.DeclStmt:
				gd, ok := s.Decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						v, ok := info.Defs[name].(*types.Var)
						if !ok {
							continue
						}
						var rhs ast.Expr
						if i < len(vs.Values) {
							rhs = vs.Values[i]
						} else if len(vs.Values) == 1 {
							rhs = vs.Values[0]
						}
						addDef(v, rhs, blk, name.Pos())
					}
				}
			case *ast.RangeStmt:
				for _, e := range []ast.Expr{s.Key, s.Value} {
					if e == nil {
						continue
					}
					if v := lhsVar(e); v != nil {
						addDef(v, nil, blk, e.Pos())
					}
				}
			case *ast.TypeSwitchStmt:
				// `switch y := x.(type)`: implicit per-clause vars are
				// recorded under Info.Implicits; model the assign
				// itself as defining from x.
				if as, ok := s.Assign.(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
					if v := lhsVar(as.Lhs[0]); v != nil {
						addDef(v, as.Rhs[0], blk, as.Lhs[0].Pos())
					}
				}
			case *ast.IncDecStmt:
				if v := lhsVar(s.X); v != nil {
					addDef(v, s.X, blk, s.X.Pos())
				}
			}
		}
	}
}

// transferBlock applies gen/kill for blk. When stop is non-nil the
// walk halts before that statement, yielding the facts holding at its
// entry (used for intra-block precision).
func (d *DefUse) transferBlock(blk *Block, facts *BitSet, stop ast.Stmt) *BitSet {
	for _, s := range blk.Nodes {
		if s == stop {
			break
		}
		for i, def := range d.defs {
			if def.block == blk && def.pos >= s.Pos() && def.pos < s.End() {
				// Kill every other def of the same variable, gen this.
				for _, j := range d.byVar[def.v] {
					facts.Clear(j)
				}
				facts.Set(i)
			}
		}
	}
	return facts
}

// ReachingRHS returns the RHS expressions of every definition of use's
// variable that may reach the statement containing use. A nil entry
// means a parameter/range definition with no syntactic RHS. Returns
// nil when use does not resolve to a function-local variable.
func (d *DefUse) ReachingRHS(use *ast.Ident) []ast.Expr {
	v, ok := d.f.Pkg.Info.Uses[use].(*types.Var)
	if !ok {
		return nil
	}
	stmt, blk := d.f.EnclosingStmt(use.Pos())
	if blk == nil {
		// Not block-resident (nested literal): fall back to every def.
		return d.AllRHS(v)
	}
	facts := d.transferBlock(blk, d.in[blk.Index].Copy(), stmt)
	var out []ast.Expr
	facts.ForEach(func(i int) {
		if d.defs[i].v == v {
			out = append(out, d.defs[i].rhs)
		}
	})
	if out == nil {
		// The variable is defined outside this function (captured or
		// package-level); report every local def as a may-set.
		return d.AllRHS(v)
	}
	return out
}

// AllRHS returns every RHS ever assigned to v in this function,
// flow-insensitively.
func (d *DefUse) AllRHS(v *types.Var) []ast.Expr {
	var out []ast.Expr
	for _, i := range d.byVar[v] {
		out = append(out, d.defs[i].rhs)
	}
	return out
}
