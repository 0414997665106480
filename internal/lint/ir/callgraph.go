package ir

import (
	"go/ast"
	"go/types"
)

// Program is the whole-module IR: every function and literal's CFG
// plus the static call graph connecting them.
type Program struct {
	Pkgs  []*Package
	Funcs []*Func
	// FuncOf maps a declared function/method object to its Func.
	FuncOf map[types.Object]*Func
	// LitOf maps a function literal to its Func.
	LitOf map[*ast.FuncLit]*Func
	// Callers lists the resolved call sites targeting each Func.
	Callers map[*Func][]*CallSite
}

// BuildProgram constructs CFGs for every function declaration and
// literal in pkgs and links the static call graph. Packages must all
// share one token.FileSet.
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{
		Pkgs:    pkgs,
		FuncOf:  make(map[types.Object]*Func),
		LitOf:   make(map[*ast.FuncLit]*Func),
		Callers: make(map[*Func][]*CallSite),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if ok && fd.Body != nil {
					obj := pkg.Info.Defs[fd.Name]
					f := BuildFunc(pkg, obj, fd, nil)
					p.Funcs = append(p.Funcs, f)
					if obj != nil {
						p.FuncOf[obj] = f
					}
				}
				// Literals can appear anywhere — including in var
				// initializers outside any FuncDecl — so walk the
				// whole declaration.
				ast.Inspect(decl, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						f := BuildFunc(pkg, nil, nil, lit)
						p.Funcs = append(p.Funcs, f)
						p.LitOf[lit] = f
					}
					return true
				})
			}
		}
	}
	// Resolve call sites now that every Func exists.
	for _, f := range p.Funcs {
		for _, cs := range f.Calls {
			cs.CalleeObj = CalleeOf(f.Pkg, cs.Call)
			if cs.CalleeObj != nil {
				cs.Callee = p.FuncOf[cs.CalleeObj]
			} else if lit, ok := ast.Unparen(cs.Call.Fun).(*ast.FuncLit); ok {
				cs.Callee = p.LitOf[lit]
			}
			if cs.Callee != nil {
				p.Callers[cs.Callee] = append(p.Callers[cs.Callee], cs)
			}
		}
	}
	return p
}

// CalleeOf statically resolves a call expression's target object:
// plain function calls, method calls, qualified package calls, and
// method expressions. Dynamic calls through function values return
// nil.
func CalleeOf(pkg *Package, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return obj
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			return sel.Obj() // method value/call
		}
		if obj, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return obj // qualified pkg.Fn or method expression
		}
	}
	return nil
}
