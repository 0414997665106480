package lint

import "testing"

// TestRepoInvariants runs the full analyzer suite over this module —
// the same check CI's lint job performs with cmd/repolint — so a
// contract regression fails `go test` even where the lint job is not
// wired up.
func TestRepoInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short runs")
	}
	root, module, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(root, module)
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	findings, _ := Run(l, pkgs, RepoAnalyzers(module))
	for _, f := range findings {
		t.Errorf("%s:%d:%d: %s: %s", l.RelPath(f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
	}
}
