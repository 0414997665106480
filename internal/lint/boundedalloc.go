package lint

import (
	"fmt"

	"repro/internal/lint/ir"
)

// BoundedAlloc flags allocations whose size flows from a wire-decoded
// value without a dominating cap check — the class of bug where a
// peer's forged length field ("this frame is 4 GiB") becomes a real
// allocation before a single payload byte arrives. It is the static
// twin of the 16 MiB-frame and rlp size-overflow regression tests.
//
// The analysis is ir.TaintAnalysis in pessimistic mode — the shared
// wire-taint engine with sources disabled, so every value the engine
// cannot prove bounded counts as attacker-sized. Its sinks are
// allocation sizes and ReadAll calls:
//
//   - Constants, len/cap results, and values of small fixed-width
//     integer types (≤ 16 bits — a 2-byte prefix cannot exceed 65535)
//     are bounded.
//   - Arithmetic over bounded values stays bounded; v % c and v & c
//     are bounded by c alone; v >> c and v / c by v alone.
//   - A variable becomes bounded after a guard that either aborts on
//     the oversize branch (if v > cap { return err }) or clamps it
//     (if v > cap { v = cap }).
//   - A module-local call resolves through the callee's memoized
//     summary, so a clamp inside a helper bounds every call site.
//   - Everything else — external results, struct fields, parameters —
//     is unbounded, because the analyzer cannot see where it came
//     from, and in a wire-parsing package "unknown" means "the peer
//     picked it".
//
// make([]T, n[, c]) with any unbounded size argument is a finding, as
// is any io.ReadAll call (it trusts the reader for a bound the wire
// does not provide).
type BoundedAlloc struct {
	// Packages are import-path prefixes of wire-parsing packages.
	Packages []string
}

// Name implements Analyzer.
func (b *BoundedAlloc) Name() string { return "boundedalloc" }

// Doc implements Analyzer.
func (b *BoundedAlloc) Doc() string {
	return "wire-derived lengths must be capped before sizing an allocation"
}

// Run implements Analyzer.
func (b *BoundedAlloc) Run(l *Loader, pkgs []*Package) []Finding {
	var findings []Finding
	eng := &ir.TaintAnalysis{Prog: l.Program(pkgs), Mode: ir.ModePessimistic}
	for _, sink := range eng.Run() {
		if !matchesAny(sink.Fn.Pkg.Path, b.Packages) {
			continue
		}
		switch sink.Kind {
		case ir.SinkAlloc:
			findings = append(findings, Finding{
				Pos:      sink.Fn.Pkg.Fset.Position(sink.Pos),
				Analyzer: b.Name(),
				Message: fmt.Sprintf("make sized by %s, which is not provably capped: bound it before allocating",
					sink.Expr),
			})
		case ir.SinkReadAll:
			findings = append(findings, Finding{
				Pos:      sink.Fn.Pkg.Fset.Position(sink.Pos),
				Analyzer: b.Name(),
				Message:  "io.ReadAll reads until EOF with no size bound: use io.LimitReader or a length-checked buffer",
			})
		}
	}
	return findings
}
