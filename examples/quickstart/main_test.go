package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/testutil/leakcheck"
)

// TestRun runs the whole quickstart: a crawl of loopback-served world
// nodes must verify at least one Mainnet node over real TCP, print
// every census section, and leave no socket or goroutine behind.
func TestRun(t *testing.T) {
	leakcheck.Check(t)
	var stdout, stderr bytes.Buffer
	if err := run(nil, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	out := stdout.String()
	for _, s := range []string{"simulated Mainnet genesis d4e567", "on loopback TCP", "successful handshakes", "census: ", "clients seen:\n  Geth", "services seen:\n  eth"} {
		if !strings.Contains(out, s) {
			t.Errorf("stdout lacks %q", s)
		}
	}
	m := regexp.MustCompile(`verified Mainnet \(pro-DAO\) nodes: (\d+)\n`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no verified-Mainnet line:\n%s", out)
	}
	if n, _ := strconv.Atoi(m[1]); n < 1 {
		t.Errorf("no Mainnet node verified over loopback TCP:\n%s", out)
	}
}

func TestRunRejectsFlags(t *testing.T) {
	if err := run([]string{"-bogus"}, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}
