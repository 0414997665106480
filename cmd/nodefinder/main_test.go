package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/crypto/secp256k1"
	"repro/internal/enode"
	"repro/internal/nodefinder/mlog"
	"repro/internal/testutil/leakcheck"

	cryptorand "crypto/rand"
)

// TestRunSim crawls a small simulated world for one virtual day in
// each snapshot format. run fails unless the finder.conns counters
// reconcile with the log; the test also counts the log's lines
// itself and checks the periodic snapshots are in the format asked
// for.
func TestRunSim(t *testing.T) {
	leakcheck.Check(t)
	for _, format := range []string{"text", "json"} {
		t.Run(format, func(t *testing.T) {
			logPath := filepath.Join(t.TempDir(), "crawl.jsonl")
			var stdout, stderr bytes.Buffer
			err := run([]string{"-sim", "-nodes", "150", "-days", "1", "-seed", "3",
				"-log", logPath, "-metrics-interval", "8h", "-metrics-format", format}, &stdout, &stderr)
			if err != nil {
				t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
			}
			entries, err := mlog.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("reconciled: finder.conns total %d == %d mlog connection records", len(entries), len(entries))
			if len(entries) == 0 || !strings.Contains(stdout.String(), want) {
				t.Fatalf("stdout lacks %q:\n%s", want, stdout.String())
			}
			for _, s := range []string{"crawl complete:", "final metrics:", "identities:", "DEVp2p services:", "Clients (verified Mainnet subset):"} {
				if !strings.Contains(stdout.String(), s) {
					t.Errorf("stdout lacks %q", s)
				}
			}

			// 24 virtual hours at an 8 h cadence: three periodic dumps.
			dumps := 0
			sc := bufio.NewScanner(&stderr)
			sc.Buffer(nil, 1<<20)
			for sc.Scan() {
				line := sc.Text()
				switch {
				case format == "text" && strings.HasPrefix(line, "--- metrics @ "):
					dumps++
				case format == "json" && strings.HasPrefix(line, "{"):
					var d map[string]json.RawMessage
					if err := json.Unmarshal([]byte(line), &d); err != nil || d["time"] == nil || d["snapshot"] == nil {
						t.Fatalf("snapshot line %.80q: %v", line, err)
					}
					dumps++
				}
			}
			if dumps != 3 {
				t.Errorf("%d %s snapshots on stderr, want 3", dumps, format)
			}
		})
	}
}

// TestRunReal crawls for 300 ms of wall time from a loopback bootnode
// that never answers: discovery and the dial path are wired, the ping
// times out with a warning, and every socket is closed on return.
func TestRunReal(t *testing.T) {
	leakcheck.Check(t)
	silent, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	key, err := secp256k1.GenerateKey(cryptorand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	port := silent.LocalAddr().(*net.UDPAddr).Port
	boot := enode.New(enode.PubkeyID(&key.Pub), net.IPv4(127, 0, 0, 1), uint16(port), uint16(port))

	var stdout, stderr bytes.Buffer
	err = run([]string{"-real", "-bootnodes", boot.String(), "-duration", "300ms", "-metrics-interval", "100ms"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "warning: bootstrap ping") {
		t.Errorf("no ping warning for a silent bootnode:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "--- metrics @ ") {
		t.Errorf("no periodic snapshot on stderr")
	}
	if !strings.Contains(stdout.String(), "crawl complete:") || strings.Contains(stdout.String(), "reconciled:") {
		t.Errorf("stdout:\n%s", stdout.String())
	}
}

func TestRunErrors(t *testing.T) {
	missingDir := filepath.Join(t.TempDir(), "missing", "crawl.jsonl")
	for _, tc := range []struct {
		args   []string
		status int
	}{
		{[]string{"-bogus"}, 2},
		{[]string{"-real"}, 1},
		{[]string{"-real", "-bootnodes", "enode://nonsense"}, 1},
		{[]string{"-log", missingDir}, 1},
	} {
		err := run(tc.args, &bytes.Buffer{}, &bytes.Buffer{})
		if got := cli.Status(err, &bytes.Buffer{}); err == nil || got != tc.status {
			t.Errorf("%v: err %v, status %d; want status %d", tc.args, err, got, tc.status)
		}
	}
	if err := run([]string{"-h"}, &bytes.Buffer{}, &bytes.Buffer{}); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: %v, want flag.ErrHelp", err)
	}
}
