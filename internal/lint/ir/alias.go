package ir

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Alias is the flow-insensitive alias relation the wire-taint engine
// reads when a reference-typed variable has no taint of its own (a
// reslice of a wire buffer is the same wire buffer). It is a
// union-find over *types.Var whose classes merge only through flows
// that preserve the value's own backing storage: whole-value copies,
// conversions, address-of, field reads, reslicing, type assertions and
// append to the same slice. Element extraction (range values, x[i])
// and element insertion (append arguments, composite literals) do not
// merge: a slice that merely contains the same pointers is not the
// same container.
type Alias struct {
	f      *Func
	parent varSets
}

// BuildAlias computes the alias relation over f's body. Nested
// function literals are skipped; each literal is its own Func.
func BuildAlias(f *Func) *Alias {
	a := &Alias{f: f, parent: make(varSets)}
	if f.Body == nil {
		return a
	}
	ast.Inspect(f.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			// Compound assignments (+=, etc.) operate on scalars and
			// strings, and a multi-value right side is a call or a
			// comma-ok form whose results are fresh as far as this frame
			// can prove: only plain pairwise assignments move references.
			if (n.Tok == token.ASSIGN || n.Tok == token.DEFINE) && len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					a.flow(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Values) == len(n.Names) {
				for i, name := range n.Names {
					a.flow(name, n.Values[i])
				}
			}
		}
		return true
	})
	return a
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

// union merges the classes of a and b.
func (s varSets) union(a, b *types.Var) {
	keep, gone := s.rep(a), s.rep(b)
	if keep != gone {
		if gone.Pos() < keep.Pos() {
			keep, gone = gone, keep
		}
		s[gone] = keep
	}
}

// flow records one lhs = rhs pair: a plain variable on the left joins
// the class of the storage the right side is.
func (a *Alias) flow(lhs, rhs ast.Expr) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	if lv := ObjVar(a.f.Pkg, id); lv != nil {
		if r := a.root(rhs); r != nil {
			a.parent.union(lv, r)
		}
	}
}

// root resolves the variable whose backing storage the value of expr
// IS (not merely contains), or nil for element extraction and fresh
// allocations.
func (a *Alias) root(expr ast.Expr) *types.Var {
	pkg := a.f.Pkg
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
				return a.root(x.Args[0])
			}
		}
		if tv, ok := pkg.Info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return a.root(x.Args[0])
		}
	}
	return nil
}

// MayAliasTight reports whether a and b may be the same container,
// aliased through backing-preserving flows only.
func (a *Alias) MayAliasTight(x, y *types.Var) bool {
	if x == nil || y == nil {
		return false
	}
	if x == y {
		return true
	}
	return a.parent.rep(x) == a.parent.rep(y)
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
