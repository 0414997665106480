package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// testAnalyzers configures every analyzer against the lintest golden
// universe under testdata/src.
func testAnalyzers() []Analyzer {
	return []Analyzer{
		&Wallclock{
			Packages: []string{"lintest/wallclock", "lintest/suppress"},
			AllowFiles: map[string]string{
				"wallclock/allowed/allowed.go": "exercises the allowlist escape hatch",
			},
		},
		&ErrTaxonomy{
			Transports:     []string{"lintest/errtaxonomy/transport"},
			ClassifierPkg:  "lintest/errtaxonomy/classify",
			ClassifierFunc: "Classify",
			EnumTypes:      []string{"lintest/errtaxonomy/classify.Kind"},
		},
		&ErrTaxonomy{
			Transports:     []string{"lintest/errtaxclean/transport"},
			ClassifierPkg:  "lintest/errtaxclean/classify",
			ClassifierFunc: "Classify",
			EnumTypes:      []string{"lintest/errtaxclean/classify.Kind"},
		},
	}
}

// wantSpec is one expectation parsed from a // want or // wantnext
// comment: a finding on the given line whose "analyzer: message"
// rendering matches the regexp.
type wantSpec struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantToken = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// collectWants parses // want "re" ... (same line) and // wantnext
// "re" ... (following line) annotations out of the loaded packages.
func collectWants(t *testing.T, pkgs []*Package) []*wantSpec {
	t.Helper()
	var wants []*wantSpec
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					offset := 0
					switch {
					case strings.HasPrefix(text, "wantnext "):
						offset = 1
						text = strings.TrimPrefix(text, "wantnext ")
					case strings.HasPrefix(text, "want "):
						text = strings.TrimPrefix(text, "want ")
					default:
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					quoted := wantToken.FindAllString(text, -1)
					if len(quoted) == 0 {
						t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
					}
					for _, q := range quoted {
						raw, err := strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, q, err)
						}
						re, err := regexp.Compile(raw)
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, raw, err)
						}
						wants = append(wants, &wantSpec{file: pos.Filename, line: pos.Line + offset, re: re, raw: raw})
					}
				}
			}
		}
	}
	return wants
}

// loadGolden loads the lintest universe under testdata/src.
func loadGolden(t *testing.T) (root string, l *Loader, pkgs []*Package) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	l = NewLoader(root, "lintest")
	pkgs, err = l.LoadAll()
	if err != nil {
		t.Fatalf("loading lintest universe: %v", err)
	}
	if len(pkgs) < 8 {
		t.Fatalf("expected the full lintest universe, loaded only %d packages", len(pkgs))
	}
	return root, l, pkgs
}

// renderGolden is the golden file's format: one finding per line,
// every path (in the position and inside messages) relative to root.
func renderGolden(root string, findings []Finding) string {
	var sb strings.Builder
	for _, f := range findings {
		sb.WriteString(filepath.ToSlash(strings.ReplaceAll(f.String(), root+string(filepath.Separator), "")))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestGolden runs every analyzer over the lintest universe and checks
// the findings twice over. Against the // want annotations: every
// finding must be expected, every expectation must fire, and the clean
// twin packages must stay silent (any stray finding there is
// unexpected by construction). And against testdata/golden.findings,
// byte for byte — the want regexps do not pin columns or whole
// messages, and a refactor of the driver or an analyzer must move none
// of them. A change that means to move a finding edits the file by the
// +/- lines the failure prints, and that diff is reviewed like code.
func TestGolden(t *testing.T) {
	root, l, pkgs := loadGolden(t)
	findings, _ := Run(l, pkgs, testAnalyzers())
	wants := collectWants(t, pkgs)

	goldenPath := filepath.Join("testdata", "golden.findings")
	got := renderGolden(root, findings)
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("findings differ from %s:\n%s", goldenPath, lineDiff(string(want), got))
	}

	perAnalyzer := make(map[string]int)
	for _, f := range findings {
		perAnalyzer[f.Analyzer]++
		rendered := fmt.Sprintf("%s: %s", f.Analyzer, f.Message)
		matched := false
		for _, w := range wants {
			if w.matched || w.file != f.Pos.Filename || w.line != f.Pos.Line {
				continue
			}
			if w.re.MatchString(rendered) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected finding matching %q never reported", w.file, w.line, w.raw)
		}
	}

	// Each analyzer must demonstrate at least two findings in its bad
	// package; the suppression machinery ("lint") must demonstrate its
	// three malformed-directive shapes.
	for name, minimum := range map[string]int{
		"wallclock":   2,
		"errtaxonomy": 2,
		"lint":        5,
	} {
		if perAnalyzer[name] < minimum {
			t.Errorf("analyzer %s reported %d findings in the golden universe, want at least %d",
				name, perAnalyzer[name], minimum)
		}
	}

	// No finding may escape a clean twin.
	for _, f := range findings {
		if strings.Contains(f.Pos.Filename, string(filepath.Separator)+"clean"+string(filepath.Separator)) ||
			strings.Contains(f.Pos.Filename, "errtaxclean") {
			t.Errorf("clean twin is not silent: %s", f)
		}
	}
}

// lineDiff lists the lines only one of want and got holds.
func lineDiff(want, got string) string {
	count := make(map[string]int)
	for _, line := range strings.Split(want, "\n") {
		count[line]++
	}
	var sb strings.Builder
	for _, line := range strings.Split(got, "\n") {
		if count[line] == 0 {
			fmt.Fprintf(&sb, "+ %s\n", line)
		}
		count[line]--
	}
	for _, line := range strings.Split(want, "\n") {
		if count[line] > 0 {
			fmt.Fprintf(&sb, "- %s\n", line)
			count[line]--
		}
	}
	return sb.String()
}

// TestRunIsDeterministic runs the suite several times in one process
// over the same packages and requires identical reports: Go randomizes
// map iteration per range statement, so a message or an order that
// leaks map order differs between runs with high probability.
func TestRunIsDeterministic(t *testing.T) {
	root, l, pkgs := loadGolden(t)
	var first string
	for i := 0; i < 4; i++ {
		findings, tallies := Run(l, pkgs, testAnalyzers())
		got := renderGolden(root, findings) + fmt.Sprint(tallies)
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("run %d differs from run 0:\n%s", i, lineDiff(first, got))
		}
	}
}
