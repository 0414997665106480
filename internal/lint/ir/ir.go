// Package ir is the lint driver's intermediate representation: the one
// Package type every analyzer works against, a static call graph over
// every function and literal, the tight alias relation, and the
// interprocedural taint engine that boundedalloc (pessimistic mode)
// and wiretaint (wire mode) run, with the Memo that breaks call-graph
// recursion in its summaries. It is built only on go/ast and go/types;
// golang.org/x/tools is not a dependency.
//
// The taint engine walks syntax with resolved types and reads only
// Func.Calls and Program.Callers. The statement-granularity CFG each
// Func carries (cfg.go), dominators (dom.go), reaching definitions
// (defuse.go) and the forward/backward dataflow solver (dataflow.go)
// have no analyzer client; DESIGN.md "Static invariants" records why
// they remain.
package ir

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Package bundles everything an analyzer needs about one type-checked
// module package: syntax with comments, the type-checked object graph,
// and resolved use/def information. The loader builds it; the driver
// and every analyzer share it (lint.Package is this type).
type Package struct {
	// Path is the package's import path (module path + relative dir).
	Path string
	// Fset is the loader's shared file set.
	Fset *token.FileSet
	// Files are the parsed non-test source files, with comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds identifier resolution and expression types.
	Info *types.Info
}

// Func is one analyzed function: a declaration or a function literal.
// Literals are independent Funcs — a closure's body is never part of
// its enclosing function's CFG.
type Func struct {
	Pkg  *Package
	Name string // diagnostic name, e.g. "pkg.(*T).Method" or "pkg.func@12"
	// Obj is the declared function object (nil for literals).
	Obj types.Object
	// Decl / Lit: exactly one is non-nil.
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	Body *ast.BlockStmt

	Blocks []*Block
	Entry  *Block
	Exit   *Block // synthetic: every return/fall-off edge targets it

	// Calls are the static call sites appearing in this function's
	// body (excluding nested literals' bodies).
	Calls []*CallSite

	// stmtBlock maps each block-resident statement to its block.
	stmtBlock map[ast.Stmt]*Block

	// alias is the alias relation, built on first use (see Alias).
	alias *Alias
}

// Alias returns f's alias relation, building it on first use.
func (f *Func) Alias() *Alias {
	if f.alias == nil {
		f.alias = BuildAlias(f)
	}
	return f.alias
}

// Block is one basic-ish block: a maximal run of statements with no
// internal control transfer. Nodes hold statements in source order;
// conditions of branches live in the block that evaluates them.
type Block struct {
	Index int
	Nodes []ast.Stmt
	Succs []*Block
	Preds []*Block

	// LoopStmt is the for/range statement whose header this block is,
	// when the block is a loop header (nil otherwise). Analyzers use
	// it to recognize bounded counting loops.
	LoopStmt ast.Stmt

	unreachable bool
}

// Unreachable reports whether no path from the entry reaches b.
func (b *Block) Unreachable() bool { return b.unreachable }

// CallSite is one static call expression inside a Func.
type CallSite struct {
	Caller *Func
	Block  *Block
	Call   *ast.CallExpr
	// CalleeObj is the resolved callee object when the call target is
	// an identifier, selector, or method expression the type checker
	// resolved; nil for dynamic calls through function values.
	CalleeObj types.Object
	// Callee is the module-local Func for CalleeObj, or the literal's
	// Func for immediately-invoked literals; nil for external or
	// dynamic targets.
	Callee *Func
}

// EnclosingStmt returns the outermost block-resident statement of f
// that contains pos, together with its block. It is how analyzers map
// an arbitrary expression node back onto the CFG.
func (f *Func) EnclosingStmt(pos token.Pos) (ast.Stmt, *Block) {
	for _, b := range f.Blocks {
		for _, s := range b.Nodes {
			if s.Pos() <= pos && pos < s.End() {
				return s, b
			}
		}
	}
	return nil, nil
}

// funcName builds the diagnostic name for a declaration.
func funcName(pkg *Package, decl *ast.FuncDecl) string {
	if decl.Recv == nil || len(decl.Recv.List) == 0 {
		return pkg.Path + "." + decl.Name.Name
	}
	recv := "?"
	switch t := decl.Recv.List[0].Type.(type) {
	case *ast.Ident:
		recv = t.Name
	case *ast.StarExpr:
		if id, ok := t.X.(*ast.Ident); ok {
			recv = "*" + id.Name
		}
	}
	return fmt.Sprintf("%s.(%s).%s", pkg.Path, recv, decl.Name.Name)
}

func litName(pkg *Package, lit *ast.FuncLit) string {
	pos := pkg.Fset.Position(lit.Pos())
	return fmt.Sprintf("%s.func@%d", pkg.Path, pos.Line)
}
