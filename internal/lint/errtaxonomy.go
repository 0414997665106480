package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// ErrTaxonomy enforces the failure-taxonomy contract: the census
// (Tables 1–6) buckets every connection outcome through a single
// classifier, so (a) every sentinel error a transport package can
// surface must be reachable from that classifier's switch — otherwise
// a new failure mode silently lands in the catch-all bucket — and (b)
// enum-style switches over the taxonomy's types must be exhaustive,
// so adding a connection type or outcome class cannot leave a
// consumer silently dropping records.
type ErrTaxonomy struct {
	// Transports are the import paths whose exported Err* sentinels
	// must be classifiable.
	Transports []string
	// ClassifierPkg/ClassifierFunc name the classifier, e.g.
	// repro/internal/nodefinder's OutcomeClass.
	ClassifierPkg  string
	ClassifierFunc string
	// EnumTypes are fully qualified string/integer enum types
	// ("pkgpath.TypeName") whose switches must cover every declared
	// constant or carry a default.
	EnumTypes []string
}

// Name implements Analyzer.
func (e *ErrTaxonomy) Name() string { return "errtaxonomy" }

// Doc implements Analyzer.
func (e *ErrTaxonomy) Doc() string {
	return "transport sentinels must be classifiable and taxonomy switches exhaustive"
}

// Run implements Analyzer.
func (e *ErrTaxonomy) Run(l *Loader, pkgs []*Package) []Finding {
	var findings []Finding
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}

	classifier := byPath[e.ClassifierPkg]
	var classifierObj types.Object
	var classifierBody *ast.BlockStmt
	if classifier != nil {
		classifierObj = classifier.Types.Scope().Lookup(e.ClassifierFunc)
		classifierBody = findFuncBody(classifier, e.ClassifierFunc)
	}
	if classifierObj == nil || classifierBody == nil {
		if len(e.Transports) > 0 {
			findings = append(findings, Finding{
				Pos:      token.Position{Filename: e.ClassifierPkg},
				Analyzer: e.Name(),
				Message:  fmt.Sprintf("classifier %s.%s not found", e.ClassifierPkg, e.ClassifierFunc),
			})
		}
		return findings
	}

	// Objects the classifier body references, and the string literals
	// it can return.
	used := make(map[types.Object]bool)
	ast.Inspect(classifierBody, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := classifier.Info.Uses[id]; obj != nil {
				used[obj] = true
			}
		}
		return true
	})
	returnedClasses := stringLiteralReturns(classifierBody)

	// (a) Sentinel reachability.
	for _, tp := range e.Transports {
		pkg := byPath[tp]
		if pkg == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			v, ok := obj.(*types.Var)
			if !ok || !v.Exported() || !strings.HasPrefix(name, "Err") || !isErrorType(v.Type()) {
				continue
			}
			if !used[obj] {
				findings = append(findings, Finding{
					Pos:      pkg.Fset.Position(v.Pos()),
					Analyzer: e.Name(),
					Message: fmt.Sprintf("sentinel %s.%s is not handled by %s.%s: every transport failure must map into the outcome taxonomy",
						pkg.Types.Name(), name, classifier.Types.Name(), e.ClassifierFunc),
				})
			}
		}
	}

	// Resolve enum types to their constant sets.
	type enum struct {
		typ    types.Type
		consts []types.Object
	}
	var enums []enum
	for _, qualified := range e.EnumTypes {
		i := strings.LastIndex(qualified, ".")
		if i < 0 {
			continue
		}
		pkg := byPath[qualified[:i]]
		if pkg == nil {
			continue
		}
		obj := pkg.Types.Scope().Lookup(qualified[i+1:])
		if obj == nil {
			continue
		}
		en := enum{typ: obj.Type()}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if c, ok := scope.Lookup(name).(*types.Const); ok && types.Identical(c.Type(), en.typ) {
				en.consts = append(en.consts, c)
			}
		}
		if len(en.consts) > 0 {
			enums = append(enums, en)
		}
	}

	// (b) Switch exhaustiveness, module-wide.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok || sw.Tag == nil {
					return true
				}
				tagTV, ok := pkg.Info.Types[sw.Tag]
				if !ok {
					return true
				}
				for _, en := range enums {
					if !types.Identical(tagTV.Type, en.typ) {
						continue
					}
					covered, hasDefault := coveredCases(pkg, sw)
					if hasDefault {
						return true
					}
					var missing []string
					for _, c := range en.consts {
						if !covered[c.Name()] {
							missing = append(missing, c.Name())
						}
					}
					if len(missing) > 0 {
						sort.Strings(missing)
						findings = append(findings, Finding{
							Pos:      pkg.Fset.Position(sw.Pos()),
							Analyzer: e.Name(),
							Message: fmt.Sprintf("switch over %s is not exhaustive: missing %s (add the cases or a default)",
								typeShort(en.typ), strings.Join(missing, ", ")),
						})
					}
					return true
				}
				// Switches over the classifier's result must cover every
				// class string it can return (or carry a default).
				if call, ok := sw.Tag.(*ast.CallExpr); ok && len(returnedClasses) > 0 {
					if calleeOf(pkg, call) == classifierObj {
						covered, hasDefault := coveredStringCases(pkg, sw)
						if hasDefault {
							return true
						}
						var missing []string
						for class := range returnedClasses {
							if !covered[class] {
								missing = append(missing, class)
							}
						}
						if len(missing) > 0 {
							sort.Strings(missing)
							findings = append(findings, Finding{
								Pos:      pkg.Fset.Position(sw.Pos()),
								Analyzer: e.Name(),
								Message: fmt.Sprintf("switch over %s(...) result misses classes %s (add them or a default)",
									e.ClassifierFunc, strings.Join(missing, ", ")),
							})
						}
					}
				}
				return true
			})
		}
	}
	return findings
}

// findFuncBody locates a top-level function's body by name.
func findFuncBody(pkg *Package, name string) *ast.BlockStmt {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name == name {
				return fn.Body
			}
		}
	}
	return nil
}

// stringLiteralReturns collects every string literal returned
// anywhere in body (the classifier returns its classes as literals).
// Returns inside nested function literals are ignored.
func stringLiteralReturns(body *ast.BlockStmt) map[string]bool {
	out := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if lit, ok := res.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					out[s] = true
				}
			}
		}
		return true
	})
	return out
}

// coveredCases returns the named constants referenced by the switch's
// case expressions and whether a default clause exists.
func coveredCases(pkg *Package, sw *ast.SwitchStmt) (map[string]bool, bool) {
	covered := make(map[string]bool)
	hasDefault := false
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
			continue
		}
		for _, expr := range cc.List {
			expr = ast.Unparen(expr)
			var id *ast.Ident
			switch v := expr.(type) {
			case *ast.Ident:
				id = v
			case *ast.SelectorExpr:
				id = v.Sel
			}
			if id != nil {
				if obj := pkg.Info.Uses[id]; obj != nil {
					covered[obj.Name()] = true
				}
			}
		}
	}
	return covered, hasDefault
}

// coveredStringCases returns the string-literal case values and
// whether a default clause exists.
func coveredStringCases(pkg *Package, sw *ast.SwitchStmt) (map[string]bool, bool) {
	covered := make(map[string]bool)
	hasDefault := false
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
			continue
		}
		for _, expr := range cc.List {
			if tv, ok := pkg.Info.Types[expr]; ok && tv.Value != nil {
				covered[strings.Trim(tv.Value.String(), `"`)] = true
			}
		}
	}
	return covered, hasDefault
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	iface, ok := t.Underlying().(*types.Interface)
	return ok && iface.NumMethods() == 1 && iface.Method(0).Name() == "Error"
}

// typeShort renders a type without its full package path.
func typeShort(t types.Type) string {
	s := t.String()
	if i := strings.LastIndex(s, "/"); i >= 0 {
		return s[i+1:]
	}
	return s
}

// calleeOf resolves the function a call names, plain (F) or qualified
// (pkg.F, x.M); a call through a function value resolves to that
// value's variable, never to a function.
func calleeOf(pkg *Package, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		return pkg.Info.Uses[fun.Sel]
	}
	return nil
}
