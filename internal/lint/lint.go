// Package lint is a from-scratch static-analysis driver for this
// repository, built only on the standard library's go/parser, go/ast,
// and go/types (no golang.org/x/tools — the build environment is
// offline). It enforces the repo-wide contracts no runtime test
// checks as well, one analyzer each (RepoAnalyzers in config.go is the
// configured list; DESIGN.md "Static invariants" keeps each one's
// cost-and-catch ledger, and mutations/ holds a plant each one must
// report):
//
//   - wallclock: clocked packages observe time only through
//     simclock.Clock, keeping simulated 82-day crawls deterministic.
//   - errtaxonomy: every transport sentinel error is classifiable by
//     nodefinder's OutcomeClass, and enum-style switches are
//     exhaustive, so no failure disappears from the census taxonomy.
//
// Bounded allocation, wire taint, concurrency, conn-lifecycle and
// wire-symmetry contracts are held by runtime tests instead (the race
// detector, leakcheck, the hostile taxonomy, size-cap and round-trip
// tests); DESIGN.md records which test catches what.
//
// Findings can be suppressed with a justified inline directive:
//
//	//lint:ignore <analyzer> <reason>
//
// placed on, or on the line above, the offending line. The reason is
// mandatory; a bare suppression is itself reported.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Finding is one analyzer report.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders a finding as file:line:col: analyzer: message, with
// the file path left exactly as the loader resolved it.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one invariant checker. Run receives every loaded module
// package at once because some contracts (errtaxonomy) are inherently
// cross-package.
type Analyzer interface {
	// Name is the identifier used in output and suppression comments.
	Name() string
	// Doc is a one-line description of the contract enforced.
	Doc() string
	// Run reports all violations found in pkgs.
	Run(l *Loader, pkgs []*Package) []Finding
}

// ignorePrefix introduces a suppression comment.
const ignorePrefix = "lint:ignore"

// suppression is one parsed //lint:ignore directive. used records
// whether it matched at least one raw finding this run (stale
// detection).
type suppression struct {
	analyzer string
	reason   string
	file     string
	line     int
	col      int
	used     bool
}

// Tally is one analyzer's line in a run's accounting: how many
// distinct findings it raised and how many of those a //lint:ignore
// directive silenced. It is what `repolint -v` prints, and the only
// source the documents' suppression figures are taken from.
type Tally struct {
	Analyzer   string
	Raw        int
	Suppressed int
}

// Reported is the number of findings that survived suppression.
func (t Tally) Reported() int { return t.Raw - t.Suppressed }

// Run executes the analyzers over pkgs, filters findings through
// //lint:ignore directives, appends findings for malformed or stale
// suppressions, and returns everything sorted and deduplicated, plus
// one Tally per analyzer name in the order given.
func Run(l *Loader, pkgs []*Package, analyzers []Analyzer) ([]Finding, []Tally) {
	// slot maps each analyzer name that ran to its place in tallies.
	slot := make(map[string]int, len(analyzers))
	var tallies []Tally
	var all []Finding
	for _, a := range analyzers {
		if _, seen := slot[a.Name()]; !seen {
			slot[a.Name()] = len(tallies)
			tallies = append(tallies, Tally{Analyzer: a.Name()})
		}
		all = append(all, a.Run(l, pkgs)...)
	}
	// Deduplicate before counting, so a site reported twice is one raw
	// finding.
	all = SortFindings(all)

	sups, bad := collectSuppressions(pkgs, slot)
	kept := all[:0]
	for _, f := range all {
		t := &tallies[slot[f.Analyzer]]
		t.Raw++
		if markSuppressed(sups, f) {
			t.Suppressed++
		} else {
			kept = append(kept, f)
		}
	}
	kept = append(kept, bad...)
	// A justified suppression that no longer silences anything is
	// itself a finding: suppressions rot as analyzers and code evolve,
	// and a stale one hides the next real bug on that line.
	for i := range sups {
		if !sups[i].used {
			kept = append(kept, Finding{
				Pos:      token.Position{Filename: sups[i].file, Line: sups[i].line, Column: sups[i].col},
				Analyzer: "lint",
				Message: fmt.Sprintf("suppression of %q no longer suppresses any finding; delete the stale //lint:ignore",
					sups[i].analyzer),
			})
		}
	}
	return SortFindings(kept), tallies
}

// SortFindings orders findings by file, line, column, analyzer, and
// message, then drops exact duplicates, so a report names each
// finding once.
func SortFindings(fs []Finding) []Finding {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	out := fs[:0]
	for i, f := range fs {
		if i > 0 {
			p := fs[i-1]
			if p.Pos.Filename == f.Pos.Filename && p.Pos.Line == f.Pos.Line &&
				p.Pos.Column == f.Pos.Column && p.Analyzer == f.Analyzer && p.Message == f.Message {
				continue
			}
		}
		out = append(out, f)
	}
	return out
}

// collectSuppressions parses every //lint:ignore directive in pkgs.
// Directives missing a reason, or naming an unknown analyzer, are
// returned as findings instead of suppressions: the policy is that a
// silence must always carry a written justification.
func collectSuppressions(pkgs []*Package, known map[string]int) ([]suppression, []Finding) {
	var sups []suppression
	var bad []Finding
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, ignorePrefix) {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					fields := strings.Fields(strings.TrimPrefix(text, ignorePrefix))
					if len(fields) == 0 {
						bad = append(bad, Finding{Pos: pos, Analyzer: "lint",
							Message: "suppression names no analyzer: //lint:ignore <analyzer> <reason>"})
						continue
					}
					name := fields[0]
					if _, ok := known[name]; !ok {
						bad = append(bad, Finding{Pos: pos, Analyzer: "lint",
							Message: fmt.Sprintf("suppression references unknown analyzer %q", name)})
						continue
					}
					reason := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(text, ignorePrefix+" "+name), name))
					if reason == "" {
						bad = append(bad, Finding{Pos: pos, Analyzer: "lint",
							Message: fmt.Sprintf("suppression of %q carries no reason; a justification is required", name)})
						continue
					}
					sups = append(sups, suppression{analyzer: name, reason: reason, file: pos.Filename, line: pos.Line, col: pos.Column})
				}
			}
		}
	}
	return sups, bad
}

// markSuppressed reports whether f is covered by a directive on the
// same line or the line directly above it, marking every matching
// directive as used.
func markSuppressed(sups []suppression, f Finding) bool {
	hit := false
	for i := range sups {
		s := &sups[i]
		if s.analyzer != f.Analyzer || s.file != f.Pos.Filename {
			continue
		}
		if s.line == f.Pos.Line || s.line == f.Pos.Line-1 {
			s.used = true
			hit = true
		}
	}
	return hit
}

// hasPrefixPath reports whether path equals prefix or sits below it.
func hasPrefixPath(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}

// matchesAny reports whether path matches any import-path prefix.
func matchesAny(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if hasPrefixPath(path, p) {
			return true
		}
	}
	return false
}
