// Command repolint runs the repository's custom invariant analyzers
// (internal/lint) over every package in the module and exits non-zero
// if any unsuppressed finding remains.
//
// Usage:
//
//	go run ./cmd/repolint [flags] ./...
//
// The package pattern argument is accepted for familiarity; the tool
// always lints the whole module containing the working directory.
//
// Flags:
//
//	-v            print to stderr each analyzer's doc and, after the
//	              run, its raw / suppressed / reported finding counts
//	              (the source of every suppression figure in the docs)
//	-annotations  render findings as GitHub Actions ::error commands,
//	              so CI surfaces them inline on the PR diff
//	-list         print every analyzer name with its one-line doc and
//	              exit without linting
//	-only NAME    run a single analyzer by name. Suppression-hygiene
//	              findings (stale or malformed //lint:ignore) are
//	              withheld — directives for the other analyzers would
//	              look stale.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/lint"
)

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// runMain is the whole tool behind a testable seam: flags in, exit
// code out, every byte of output through the supplied writers.
func runMain(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("repolint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	verbose := flags.Bool("v", false, "print analyzer docs and per-analyzer raw/suppressed/reported finding counts")
	annotations := flags.Bool("annotations", false, "render findings as GitHub Actions error annotations")
	list := flags.Bool("list", false, "list analyzer names and docs, then exit")
	only := flags.String("only", "", "run a single analyzer by name")
	if err := flags.Parse(args); err != nil {
		return 2
	}

	root, modulePath, err := lint.ModuleRoot(".")
	if err != nil {
		fmt.Fprintln(stderr, "repolint:", err)
		return 2
	}
	loader := lint.NewLoader(root, modulePath)
	analyzers := lint.RepoAnalyzers(modulePath)

	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-13s %s\n", a.Name(), a.Doc())
		}
		return 0
	}
	if *only != "" {
		var picked []lint.Analyzer
		for _, a := range analyzers {
			if a.Name() == *only {
				picked = append(picked, a)
			}
		}
		if len(picked) == 0 {
			fmt.Fprintf(stderr, "repolint: no analyzer named %q; run with -list to see them\n", *only)
			return 2
		}
		analyzers = picked
	}
	if *verbose {
		fmt.Fprintf(stderr, "repolint: %d analyzers\n", len(analyzers))
		for _, a := range analyzers {
			fmt.Fprintf(stderr, "  %-13s %s\n", a.Name(), a.Doc())
		}
	}

	pkgs, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintln(stderr, "repolint:", err)
		return 2
	}
	if *verbose {
		fmt.Fprintf(stderr, "repolint: %d packages loaded\n", len(pkgs))
	}
	findings, tallies := lint.Run(loader, pkgs, analyzers)
	if *verbose {
		fmt.Fprintf(stderr, "repolint: %-13s %5s %10s %8s\n", "analyzer", "raw", "suppressed", "reported")
		for _, t := range tallies {
			fmt.Fprintf(stderr, "  %-13s %5d %10d %8d\n", t.Analyzer, t.Raw, t.Suppressed, t.Reported())
		}
	}
	if *only != "" {
		// Directives naming the analyzers we did not run would all
		// read as unknown or stale; hygiene checks need a full run.
		kept := findings[:0]
		for _, f := range findings {
			if f.Analyzer != "lint" {
				kept = append(kept, f)
			}
		}
		findings = kept
	}
	for i := range findings {
		findings[i].Pos.Filename = loader.RelPath(findings[i].Pos.Filename)
	}

	if *annotations {
		if err := lint.WriteAnnotations(stdout, findings); err != nil {
			fmt.Fprintln(stderr, "repolint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f.String())
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "repolint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
