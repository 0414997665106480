package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/ir"
)

// WireTaint reports every path where a value a remote peer controls
// reaches a resource sink without a dominating cap: the
// interprocedural generalization of boundedalloc from one sink kind
// (make sizes) to the whole class of peer-sized resources.
//
// Sources — bytes crossing the trust boundary:
//
//   - any Read(p []byte) (int, error) method call (net.Conn and every
//     reader layered over it), plus io.ReadFull/io.ReadAtLeast: the
//     filled buffer's content is wire
//   - cross-package calls into the wire codecs' exported
//     Decode*/Read*/Parse*/Unmarshal* APIs: results and pointer
//     out-args are wire (rlp.DecodeBytes, devp2p.ReadHello,
//     snappy.DecodeCapped, ...)
//   - inside a source package itself, the []byte parameters of those
//     exported decode entry points are wire at function entry
//
// Sanitizers are the engine's boundedness proofs — clamps, oversize
// guards, ≤16-bit prefix widths, len/cap, min — lifted into memoized
// per-function summaries so a clamp inside a callee sanitizes every
// call site.
//
// Sinks are kinded: allocation sizes, loop trip counts, insertion
// keys of long-lived maps (nodedb, Finder suppression tables), timer
// and deadline durations, goroutine spawns inside wire-bounded loops,
// and channel capacities. Each finding names the source and, when the
// taint crossed function boundaries, the call-site witness chain.
type WireTaint struct {
	// SourcePackages are the wire codecs: their exported decode APIs
	// inject taint at cross-package call sites, and their own decode
	// entry-point parameters are tainted at entry.
	SourcePackages []string
	// ReportPackages restricts where findings are reported — the wire
	// packages plus the long-lived stores peer-derived values land in.
	ReportPackages []string
	// EntropyPackages are package-path prefixes whose Read-shaped
	// calls produce entropy or digest output rather than peer bytes
	// (crypto, math/rand, hash, the module's own crypto primitives).
	// Read methods defined in them are not sources, and nothing called
	// from inside them is: a key generator reading its entropy stream
	// must not taint every key-carrying config downstream.
	EntropyPackages []string
}

// Name implements Analyzer.
func (wt *WireTaint) Name() string { return "wiretaint" }

// Doc implements Analyzer.
func (wt *WireTaint) Doc() string {
	return "peer-controlled values must be capped before sizing allocations, loops, maps, timers, spawns, or queues"
}

// Run implements Analyzer.
func (wt *WireTaint) Run(l *Loader, pkgs []*Package) []Finding {
	eng := &ir.TaintAnalysis{
		Prog:       l.Program(pkgs),
		Mode:       ir.ModeWire,
		SourceCall: wt.sourceCall,
		EntryParam: wt.entryParam,
	}
	var findings []Finding
	for _, sink := range eng.Run() {
		if !matchesAny(sink.Fn.Pkg.Path, wt.ReportPackages) {
			continue
		}
		fset := sink.Fn.Pkg.Fset
		findings = append(findings, Finding{
			Pos:      fset.Position(sink.Pos),
			Analyzer: wt.Name(),
			Message: fmt.Sprintf("wire-tainted %s: %s derives from %s%s",
				kindPhrase(sink.Kind), sink.Expr, sink.Val.DescribeSource(fset), ir.ChainString(sink.Chain)),
		})
	}
	return findings
}

func kindPhrase(k ir.SinkKind) string {
	switch k {
	case ir.SinkAlloc:
		return "allocation size"
	case ir.SinkLoop:
		return "loop bound"
	case ir.SinkMapKey:
		return "long-lived map key"
	case ir.SinkSleep:
		return "timer/deadline duration"
	case ir.SinkSpawn:
		return "goroutine spawn count"
	case ir.SinkChanCap:
		return "channel capacity"
	}
	return k.String()
}

// decodeEntryName reports whether name is a decode-shaped exported
// API: the prefixes under which the wire codecs hand peer bytes to
// their callers.
func decodeEntryName(name string) bool {
	if !ast.IsExported(name) {
		return false
	}
	for _, prefix := range []string{"Decode", "Read", "Parse", "Unmarshal"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// sourceCall classifies trust-boundary calls for the engine.
func (wt *WireTaint) sourceCall(pkg *ir.Package, call *ast.CallExpr, callee types.Object) (string, bool, []int, bool) {
	fn, ok := callee.(*types.Func)
	if !ok {
		return "", false, nil, false
	}
	// Inside an entropy package nothing reads peer bytes.
	if matchesAny(pkg.Path, wt.EntropyPackages) {
		return "", false, nil, false
	}
	sig, _ := fn.Type().(*types.Signature)

	// reader.Read(buf): the canonical conn-read shape. Every reader in
	// a wire package sits over peer bytes — except the entropy and
	// digest readers, whose output the peer never chose.
	if sig != nil && sig.Recv() != nil && fn.Name() == "Read" &&
		sig.Params().Len() == 1 && isByteSlice(sig.Params().At(0).Type()) {
		if fn.Pkg() != nil && matchesAny(fn.Pkg().Path(), wt.EntropyPackages) {
			return "", false, nil, false
		}
		return "conn read", false, []int{0}, true
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "io" && sig != nil && sig.Recv() == nil {
		switch fn.Name() {
		case "ReadFull", "ReadAtLeast":
			if len(call.Args) > 0 && wt.entropyExpr(pkg, call.Args[0]) {
				return "", false, nil, false
			}
			return "io." + fn.Name(), false, []int{1}, true
		}
	}

	// Cross-package call into a wire codec's exported decode API: the
	// results and pointer/interface out-args carry decoded peer fields.
	// Intra-package calls resolve through summaries instead, so the
	// witness chain inside a codec stays precise.
	if fn.Pkg() != nil && fn.Pkg().Path() != pkg.Path &&
		matchesAny(fn.Pkg().Path(), wt.SourcePackages) && decodeEntryName(fn.Name()) {
		// Decode targets are pointers (&v) or empty interfaces (any).
		// A non-empty interface param is an input — the reader being
		// decoded FROM — and tainting it would smear the whole conn.
		var outs []int
		if sig != nil {
			n := sig.Params().Len()
			if n > len(call.Args) {
				n = len(call.Args)
			}
			for i := 0; i < n; i++ {
				switch u := sig.Params().At(i).Type().Underlying().(type) {
				case *types.Pointer:
					outs = append(outs, i)
				case *types.Interface:
					if u.NumMethods() == 0 {
						outs = append(outs, i)
					}
				}
			}
		}
		return fn.Pkg().Name() + "." + fn.Name(), true, outs, true
	}
	return "", false, nil, false
}

// entropyExpr reports whether e is an entropy stream: a value whose
// named type, or whose package-level variable (crypto/rand.Reader),
// lives in an entropy package.
func (wt *WireTaint) entropyExpr(pkg *ir.Package, e ast.Expr) bool {
	if t := pkg.Info.TypeOf(e); t != nil {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil &&
			matchesAny(n.Obj().Pkg().Path(), wt.EntropyPackages) {
			return true
		}
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if v, ok := pkg.Info.Uses[sel.Sel].(*types.Var); ok && v.Pkg() != nil &&
			matchesAny(v.Pkg().Path(), wt.EntropyPackages) {
			return true
		}
	}
	return false
}

// entryParam taints the []byte inputs of a source package's exported
// decode entry points: inside rlp, the `data` of DecodeBytes IS the
// wire.
func (wt *WireTaint) entryParam(f *ir.Func, i int, v *types.Var) (string, bool) {
	if f.Obj == nil || f.Decl == nil {
		return "", false
	}
	if !matchesAny(f.Pkg.Path, wt.SourcePackages) {
		return "", false
	}
	if !decodeEntryName(f.Obj.Name()) {
		return "", false
	}
	if !isByteSlice(v.Type()) {
		return "", false
	}
	return fmt.Sprintf("wire input %s of %s", v.Name(), f.Name), true
}
