package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestRunPrintsComposition prints a small world's composition twice:
// the seed determines every line, each section is there, and the
// hostile share shows in the identity line.
func TestRunPrintsComposition(t *testing.T) {
	args := []string{"-nodes", "120", "-seed", "4", "-advance", "3h", "-hostile-fraction", "0.3"}
	var a, b bytes.Buffer
	if err := run(args, &a, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &b, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("same seed, different composition")
	}
	out := a.String()
	if !strings.HasPrefix(out, "World seed=4 at 2018-04-18T03:00:00Z (+3h0m0s virtual)\n") {
		t.Errorf("header: %.80q", out)
	}
	if m := regexp.MustCompile(`(\d+) hostile`).FindStringSubmatch(out); m == nil || m[1] == "0" {
		t.Errorf("no hostile identities at -hostile-fraction 0.3:\n%s", out)
	}
	for _, s := range []string{"Mainnet head: block ", "Services:\n  eth ", "eth clients:\n", "eth networks:\n  Mainnet ", "Abusive generator IPs: "} {
		if !strings.Contains(out, s) {
			t.Errorf("output lacks %q", s)
		}
	}
}
