package main

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestOnlyWithholdsHygiene pins -only end to end over this module. The
// tree's //lint:ignore directives all name wallclock; a run that knows
// only errtaxonomy sees each of them as naming an unknown analyzer, so
// lint.Run reports them (the control below) and repolint must withhold
// those reports for the partial run to be usable at all. A
// wallclock-only run, which knows the directives, prints the tally they
// account for.
func TestOnlyWithholdsHygiene(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and analyzes the whole module")
	}
	var stdout, stderr strings.Builder
	code := runMain([]string{"-only", "errtaxonomy"}, &stdout, &stderr)
	if code != 0 || stdout.Len() != 0 {
		t.Fatalf("-only errtaxonomy over the clean repo: exit %d, want 0 and no findings\nstdout: %s\nstderr: %s",
			code, stdout.String(), stderr.String())
	}

	// -v prints the one analyzer's tally: every raw finding suppressed.
	stderr.Reset()
	if code := runMain([]string{"-only", "wallclock", "-v"}, &stdout, &stderr); code != 0 || stdout.Len() != 0 {
		t.Fatalf("-only wallclock over the clean repo: exit %d, want 0 and no findings\nstdout: %s\nstderr: %s",
			code, stdout.String(), stderr.String())
	}
	tally := regexp.MustCompile(`(?m)^  wallclock +(\d+) +(\d+) +0$`).FindStringSubmatch(stderr.String())
	if tally == nil || tally[1] == "0" || tally[1] != tally[2] {
		t.Errorf("-v did not print wallclock's raw/suppressed/reported tally (raw = suppressed > 0, reported 0)\nstderr: %s", stderr.String())
	}
	if strings.Contains(stderr.String(), "errtaxonomy") {
		t.Errorf("-only wallclock ran or listed another analyzer\nstderr: %s", stderr.String())
	}

	// Control: an errtaxonomy-only lint.Run does raise hygiene findings.
	root, modulePath, err := lint.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader := lint.NewLoader(root, modulePath)
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	var only []lint.Analyzer
	for _, a := range lint.RepoAnalyzers(modulePath) {
		if a.Name() == "errtaxonomy" {
			only = append(only, a)
		}
	}
	findings, _ := lint.Run(loader, pkgs, only)
	hygiene := 0
	for _, f := range findings {
		if f.Analyzer == "lint" {
			hygiene++
		}
	}
	if hygiene == 0 {
		t.Error("an errtaxonomy-only lint.Run raised no hygiene finding; the withholding above proved nothing")
	}
}

// TestFlagSurface pins the command line: four flags, two analyzers,
// and a usage error for an analyzer that does not exist.
func TestFlagSurface(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := runMain([]string{"-h"}, &stdout, &stderr); code != 2 {
		t.Errorf("-h: exit %d, want 2", code)
	}
	got := regexp.MustCompile(`(?m)^  -(\w+)`).FindAllStringSubmatch(stderr.String(), -1)
	var names []string
	for _, m := range got {
		names = append(names, m[1])
	}
	if strings.Join(names, " ") != "annotations list only v" {
		t.Errorf("flags = %v, want exactly annotations, list, only, v\n%s", names, stderr.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := runMain([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list: exit %d\nstderr: %s", code, stderr.String())
	}
	if n := strings.Count(stdout.String(), "\n"); n != 2 {
		t.Errorf("-list printed %d analyzers, want 2:\n%s", n, stdout.String())
	}

	stderr.Reset()
	if code := runMain([]string{"-only", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Errorf("-only nosuch: exit %d, want 2\nstderr: %s", code, stderr.String())
	}
}
