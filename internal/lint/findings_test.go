package lint

import (
	"go/token"
	"strings"
	"testing"
)

func mkFinding(file string, line, col int, analyzer, msg string) Finding {
	return Finding{
		Pos:      token.Position{Filename: file, Line: line, Column: col},
		Analyzer: analyzer,
		Message:  msg,
	}
}

// TestSortFindingsDeterminism is the regression test for report
// stability: any input permutation sorts to the same sequence, and
// identical findings collapse to one.
func TestSortFindingsDeterminism(t *testing.T) {
	base := []Finding{
		mkFinding("b.go", 4, 1, "wallclock", "m1"),
		mkFinding("a.go", 10, 2, "wallclock", "m2"),
		mkFinding("a.go", 10, 2, "wallclock", "m2"), // duplicate
		mkFinding("a.go", 10, 2, "errtaxonomy", "m3"),
		mkFinding("a.go", 2, 9, "errtaxonomy", "m4"),
		mkFinding("a.go", 10, 1, "errtaxonomy", "m5"),
		mkFinding("b.go", 4, 1, "wallclock", "m0"),
	}
	want := []string{
		"a.go:2:9: errtaxonomy: m4",
		"a.go:10:1: errtaxonomy: m5",
		"a.go:10:2: errtaxonomy: m3",
		"a.go:10:2: wallclock: m2",
		"b.go:4:1: wallclock: m0",
		"b.go:4:1: wallclock: m1",
	}
	// Exercise several permutations, including reversed.
	perms := [][]int{
		{0, 1, 2, 3, 4, 5, 6},
		{6, 5, 4, 3, 2, 1, 0},
		{3, 6, 0, 2, 5, 1, 4},
	}
	for _, perm := range perms {
		in := make([]Finding, len(perm))
		for i, j := range perm {
			in[i] = base[j]
		}
		got := SortFindings(in)
		if len(got) != len(want) {
			t.Fatalf("perm %v: got %d findings, want %d (dedupe failed?)", perm, len(got), len(want))
		}
		for i, f := range got {
			if f.String() != want[i] {
				t.Errorf("perm %v: position %d = %q, want %q", perm, i, f.String(), want[i])
			}
		}
	}
}

func TestWriteAnnotations(t *testing.T) {
	var sb strings.Builder
	fs := []Finding{
		mkFinding("p/q.go", 12, 5, "wallclock", "line one\nline two, 100% sure"),
	}
	if err := WriteAnnotations(&sb, fs); err != nil {
		t.Fatal(err)
	}
	got := strings.TrimRight(sb.String(), "\n")
	want := "::error file=p/q.go,line=12,col=5,title=repolint/wallclock::line one%0Aline two, 100%25 sure"
	if got != want {
		t.Errorf("annotation:\n got %q\nwant %q", got, want)
	}
	if strings.Count(sb.String(), "\n") != 1 {
		t.Errorf("annotation must be a single line, got %q", sb.String())
	}
}
