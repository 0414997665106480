package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/ir"
)

// WireSym verifies encode/decode symmetry for the RLP wire messages:
// a message type the module can put on the wire must also be readable
// back, with a matching shape and with its input bounded. Asymmetry
// here is a silent census-corruption bug — the peer answers, we
// mis-parse, the record looks like a protocol error and the node
// disappears from the measurement.
//
// Four rules, over the configured message-defining packages:
//
//  1. Custom codec pairing: a type declaring EncodeRLP must declare
//     DecodeRLP and vice versa (a one-sided custom codec means the
//     generic reflection path silently handles the other direction
//     with a different wire shape).
//  2. Round-trip existence: every named struct type from a configured
//     package that flows into rlp.EncodeToBytes/rlp.Encode somewhere
//     in the module must also flow into rlp.DecodeBytes /
//     rlp.DecodeFirst somewhere. `any`-typed encode helpers (discv4's
//     EncodePacket) are resolved through reaching definitions and
//     call-site argument types.
//  3. Shape symmetry per message code: when one function references a
//     message-code constant (…Msg / …Packet) and encodes type T, and
//     another references the same constant and decodes, some decoded
//     type must match T's field shape (count, order, kinds). Extra
//     decode fallbacks (DecodeDisconnect's bare-uint form) are
//     allowed.
//  4. Bounded decode input: a decode site in a configured package
//     must be size-guarded — a len() check on the payload earlier in
//     the function. (The codec has no entry point that reads an
//     io.Reader, so a byte slice is the only input there is.)
type WireSym struct {
	// Packages are the message-defining packages whose types and
	// consts are checked. Encode/decode site collection spans the
	// whole module.
	Packages []string
	// RLPPkg is the import path of the rlp codec package.
	RLPPkg string
}

// Name implements Analyzer.
func (w *WireSym) Name() string { return "wiresym" }

// Doc implements Analyzer.
func (w *WireSym) Doc() string {
	return "every RLP-encoded message type needs a bounded, shape-matching decode counterpart"
}

// wsSite is one resolved encode or decode of a concrete type. fn is
// the function where the concrete type was known (a caller, when an
// `any`-typed helper parameter was chased) — that is what message-code
// pairing keys on; host is the function physically containing the
// codec call — that is what the bounds check scans.
type wsSite struct {
	fn   *ir.Func
	host *ir.Func
	typ  types.Type
	pos  token.Pos
	call *ast.CallExpr
}

type wsChecker struct {
	prog     *ir.Program
	rlpPkg   string
	packages []string
	encodes  []wsSite
	decodes  []wsSite
}

// Run implements Analyzer.
func (w *WireSym) Run(l *Loader, pkgs []*Package) []Finding {
	wc := &wsChecker{
		prog:     l.Program(pkgs),
		rlpPkg:   w.RLPPkg,
		packages: w.Packages,
	}
	var findings []Finding
	findings = append(findings, w.checkCodecPairing(pkgs)...)
	wc.collectSites()
	findings = append(findings, wc.checkRoundTrip(w.Name())...)
	findings = append(findings, wc.checkShapes(w.Name(), pkgs)...)
	findings = append(findings, wc.checkBounds(w.Name())...)
	return findings
}

// checkCodecPairing enforces rule 1 on every named type declared in
// the configured packages.
func (w *WireSym) checkCodecPairing(pkgs []*Package) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		if !matchesAny(pkg.Path, w.Packages) {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			hasEnc := lookupMethod(types.NewPointer(named), "EncodeRLP")
			hasDec := lookupMethod(types.NewPointer(named), "DecodeRLP")
			if hasEnc == hasDec {
				continue
			}
			missing, present := "DecodeRLP", "EncodeRLP"
			if hasDec {
				missing, present = "EncodeRLP", "DecodeRLP"
			}
			findings = append(findings, Finding{
				Pos:      pkg.Fset.Position(tn.Pos()),
				Analyzer: w.Name(),
				Message: fmt.Sprintf("type %s declares %s but not %s: a one-sided custom codec desynchronizes the wire shape from the reflection path",
					name, present, missing),
			})
		}
	}
	return findings
}

// collectSites finds every rlp encode/decode call in the module and
// resolves the concrete type(s) of the value argument.
func (wc *wsChecker) collectSites() {
	for _, f := range wc.prog.Funcs {
		for _, cs := range f.Calls {
			call := cs.Call
			enc, dec, argIdx := wc.classifyRLPCall(f, call)
			if !enc && !dec {
				continue
			}
			if argIdx >= len(call.Args) {
				continue
			}
			sites := wc.resolveConcrete(f, call.Args[argIdx], call, 0)
			for i := range sites {
				sites[i].host = f
			}
			if enc {
				wc.encodes = append(wc.encodes, sites...)
			} else {
				wc.decodes = append(wc.decodes, sites...)
			}
		}
	}
}

// classifyRLPCall recognizes the codec entry points and returns which
// argument carries the value.
func (wc *wsChecker) classifyRLPCall(f *ir.Func, call *ast.CallExpr) (enc, dec bool, argIdx int) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false, false, 0
	}
	obj := ir.CalleeOf(f.Pkg, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != wc.rlpPkg {
		return false, false, 0
	}
	switch sel.Sel.Name {
	case "EncodeToBytes":
		return true, false, 0
	case "EncodeAppend":
		// rlp.EncodeAppend(dst, v): the value rides in the second
		// argument, after the destination buffer.
		return true, false, 1
	case "Encode":
		// rlp.Encode(w, v); Stream has no Encode method so package
		// function is the only shape.
		return true, false, 1
	case "DecodeBytes", "DecodeFirst":
		return false, true, 1
	}
	return false, false, 0
}

// resolveConcrete maps a value expression to concrete type sites. For
// interface-typed expressions it chases reaching definitions and, for
// parameters, caller argument types — so discv4's
// EncodePacket(priv, pkt any) attributes Ping/Pong/… to the callers
// that pass them.
func (wc *wsChecker) resolveConcrete(f *ir.Func, e ast.Expr, call *ast.CallExpr, depth int) []wsSite {
	if depth > 6 {
		return nil
	}
	e = ast.Unparen(e)
	t := f.Pkg.Info.TypeOf(e)
	if t != nil {
		if _, isIface := t.Underlying().(*types.Interface); !isIface {
			return []wsSite{{fn: f, typ: deref(t), pos: e.Pos(), call: call}}
		}
	}
	switch e := e.(type) {
	case *ast.Ident:
		obj := f.Pkg.Info.Uses[e]
		if obj == nil {
			return nil
		}
		if idx, isRecv, ok := paramIndex(f, obj); ok && !isRecv {
			// Chase every module caller's argument at this position.
			var sites []wsSite
			for _, cs := range wc.prog.Callers[f] {
				if idx < len(cs.Call.Args) {
					sites = append(sites, wc.resolveConcrete(cs.Caller, cs.Call.Args[idx], cs.Call, depth+1)...)
				}
			}
			return sites
		}
		// Local: every definition's RHS.
		v, ok := obj.(*types.Var)
		if !ok {
			return nil
		}
		var sites []wsSite
		for _, rhs := range f.DefUse().AllRHS(v) {
			if rhs == nil || rhs == e {
				continue
			}
			sites = append(sites, wc.resolveConcrete(f, rhs, call, depth+1)...)
		}
		return sites
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return wc.resolveConcrete(f, e.X, call, depth+1)
		}
	case *ast.CallExpr:
		// new(T) is the decode idiom; resolve to T.
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "new" && len(e.Args) == 1 {
			if t := f.Pkg.Info.TypeOf(e.Args[0]); t != nil {
				return []wsSite{{fn: f, typ: deref(t), pos: e.Pos(), call: call}}
			}
		}
	}
	return nil
}

func deref(t types.Type) types.Type {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			return t
		}
		t = p.Elem()
	}
}

// namedStructIn returns the named struct type when t is one defined
// in a configured package.
func (wc *wsChecker) namedStructIn(t types.Type) *types.Named {
	named, ok := deref(t).(*types.Named)
	if !ok {
		return nil
	}
	if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
		return nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !matchesAny(obj.Pkg().Path(), wc.packages) {
		return nil
	}
	return named
}

// checkRoundTrip enforces rule 2: encoded message types must be
// decodable somewhere in the module.
func (wc *wsChecker) checkRoundTrip(analyzer string) []Finding {
	decoded := make(map[*types.TypeName]bool)
	for _, site := range wc.decodes {
		if named := wc.namedStructIn(site.typ); named != nil {
			decoded[named.Obj()] = true
		}
	}
	reported := make(map[*types.TypeName]bool)
	var findings []Finding
	for _, site := range wc.encodes {
		named := wc.namedStructIn(site.typ)
		if named == nil || decoded[named.Obj()] || reported[named.Obj()] {
			continue
		}
		reported[named.Obj()] = true
		findings = append(findings, Finding{
			Pos:      site.fn.Position(site.pos),
			Analyzer: analyzer,
			Message: fmt.Sprintf("message type %s is RLP-encoded here but nothing in the module decodes it: the wire format has no reader, so round-trip symmetry is unverifiable",
				named.Obj().Name()),
		})
	}
	return findings
}

// checkShapes enforces rule 3 via message-code constants.
func (wc *wsChecker) checkShapes(analyzer string, pkgs []*Package) []Finding {
	consts := wc.messageConsts(pkgs)
	if len(consts) == 0 {
		return nil
	}
	// Which functions reference which message consts.
	refs := make(map[*ir.Func]map[types.Object]bool)
	for _, f := range wc.prog.Funcs {
		for _, file := range []*ast.BlockStmt{f.Body} {
			ast.Inspect(file, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := f.Pkg.Info.Uses[id]
				if obj == nil || !consts[obj] {
					return true
				}
				if refs[f] == nil {
					refs[f] = make(map[types.Object]bool)
				}
				refs[f][obj] = true
				return true
			})
		}
	}
	encBy := make(map[types.Object][]wsSite)
	decBy := make(map[types.Object][]wsSite)
	for _, site := range wc.encodes {
		for c := range refs[site.fn] {
			encBy[c] = append(encBy[c], site)
		}
	}
	for _, site := range wc.decodes {
		for c := range refs[site.fn] {
			decBy[c] = append(decBy[c], site)
		}
	}

	var findings []Finding
	var constObjs []types.Object
	for c := range encBy {
		constObjs = append(constObjs, c)
	}
	sort.Slice(constObjs, func(i, j int) bool { return constObjs[i].Name() < constObjs[j].Name() })
	for _, c := range constObjs {
		encs, decs := encBy[c], decBy[c]
		if len(decs) == 0 {
			continue // existence is rule 2's job; a const may be send-only here
		}
		for _, enc := range encs {
			named := wc.namedStructIn(enc.typ)
			if named == nil {
				continue
			}
			matched := false
			for _, dec := range decs {
				if shapeCompatible(named, deref(dec.typ)) {
					matched = true
					break
				}
			}
			if !matched {
				findings = append(findings, Finding{
					Pos:      enc.fn.Position(enc.pos),
					Analyzer: analyzer,
					Message: fmt.Sprintf("message code %s: encoder writes %s but no decoder under the same code matches its field shape (count/order/kinds)",
						c.Name(), named.Obj().Name()),
				})
			}
		}
	}
	return findings
}

// messageConsts gathers integer constants named …Msg or …Packet from
// the configured packages.
func (wc *wsChecker) messageConsts(pkgs []*Package) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, pkg := range pkgs {
		if !matchesAny(pkg.Path, wc.packages) {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			cn, ok := scope.Lookup(name).(*types.Const)
			if !ok {
				continue
			}
			if !strings.HasSuffix(name, "Msg") && !strings.HasSuffix(name, "Packet") {
				continue
			}
			if cn.Val().Kind() != constant.Int {
				continue
			}
			out[cn] = true
		}
	}
	return out
}

// shapeCompatible compares an encoded struct against a decoded type:
// identical named types match; otherwise the exported field sequences
// must agree in count, order, and kind.
func shapeCompatible(enc *types.Named, dec types.Type) bool {
	if decNamed, ok := dec.(*types.Named); ok && decNamed.Obj() == enc.Obj() {
		return true
	}
	decStruct, ok := dec.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	encStruct := enc.Underlying().(*types.Struct)
	encFields := wireFields(encStruct)
	decFields := wireFields(decStruct)
	if len(encFields) != len(decFields) {
		return false
	}
	for i := range encFields {
		if wireKind(encFields[i].Type()) != wireKind(decFields[i].Type()) {
			return false
		}
	}
	return true
}

// wireFields lists the exported fields, which is what the rlp codec
// serializes, in declaration order.
func wireFields(s *types.Struct) []*types.Var {
	var out []*types.Var
	for i := 0; i < s.NumFields(); i++ {
		if f := s.Field(i); f.Exported() {
			out = append(out, f)
		}
	}
	return out
}

// wireKind buckets a field type by its RLP wire form.
func wireKind(t types.Type) string {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		info := u.Info()
		switch {
		case info&types.IsBoolean != 0:
			return "uint" // bools encode as 0/1
		case info&types.IsInteger != 0:
			return "uint"
		case info&types.IsString != 0:
			return "bytes"
		}
		return "other"
	case *types.Slice:
		if b, ok := u.Elem().Underlying().(*types.Basic); ok && b.Kind() == types.Byte {
			return "bytes"
		}
		return "list"
	case *types.Array:
		if b, ok := u.Elem().Underlying().(*types.Basic); ok && b.Kind() == types.Byte {
			return "bytes"
		}
		return "list"
	case *types.Struct:
		return "list"
	case *types.Pointer:
		return wireKind(u.Elem())
	}
	return "other"
}

// checkBounds enforces rule 4 on decode sites in configured packages.
func (wc *wsChecker) checkBounds(analyzer string) []Finding {
	var findings []Finding
	seen := make(map[*ast.CallExpr]bool)
	for _, site := range wc.decodes {
		if !matchesAny(site.host.Pkg.Path, wc.packages) || seen[site.call] {
			continue
		}
		seen[site.call] = true
		f := site.host
		buf := ast.Unparen(site.call.Args[0])
		if !lenGuardBefore(f, buf, site.call.Pos()) {
			findings = append(findings, Finding{
				Pos:      f.Position(site.call.Pos()),
				Analyzer: analyzer,
				Message:  fmt.Sprintf("rlp.%s on a payload with no earlier len() bound: a hostile peer sizes this allocation — check the payload length against the message's cap first", calleeName(site.call)),
			})
		}
	}
	return findings
}

// lenGuardBefore reports whether f contains, before pos, a len(x)
// call on the same object as buf inside a comparison (the size-guard
// idiom `if len(payload) > MaxSize { return ... }`).
func lenGuardBefore(f *ir.Func, buf ast.Expr, pos token.Pos) bool {
	bufObj := exprObject(f, buf)
	guarded := false
	ast.Inspect(f.Body, func(n ast.Node) bool {
		if guarded || n == nil || n.Pos() >= pos {
			return !guarded
		}
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.GTR, token.GEQ, token.LSS, token.LEQ, token.EQL, token.NEQ:
		default:
			return true
		}
		for _, side := range []ast.Expr{be.X, be.Y} {
			call, ok := ast.Unparen(side).(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				continue
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "len" {
				continue
			}
			if bufObj != nil && exprObject(f, call.Args[0]) == bufObj {
				guarded = true
			}
		}
		return !guarded
	})
	return guarded
}

// exprObject resolves an expression to the object it names, when it
// is a plain identifier (possibly sliced: buf[a:b] guards len(buf)).
func exprObject(f *ir.Func, e ast.Expr) types.Object {
	e = ast.Unparen(e)
	if sl, ok := e.(*ast.SliceExpr); ok {
		e = ast.Unparen(sl.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	return f.Pkg.Info.ObjectOf(id)
}
