package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/nodefinder"
	"repro/internal/nodefinder/mlog"
	"repro/internal/simnet"
)

// crawlLog writes the log of a 12-virtual-hour crawl of a 150-node
// world; the seeds fix every byte of it.
func crawlLog(t *testing.T) string {
	t.Helper()
	cfg := simnet.DefaultConfig(5)
	cfg.BaseNodes = 150
	w := simnet.NewWorld(cfg)
	path := filepath.Join(t.TempDir(), "crawl.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lw := mlog.NewWriter(f)
	fdr, err := nodefinder.New(nodefinder.Config{
		Clock:     w.Clock,
		Discovery: w.NewDiscovery(6),
		Dialer:    w.NewDialer(7),
		Log:       lw,
		Seed:      8,
	})
	if err != nil {
		t.Fatal(err)
	}
	fdr.Start()
	w.Clock.Advance(12 * time.Hour)
	fdr.Stop()
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunGolden analyzes a seeded crawl's log. The golden file pins
// every line run prints, abusive IPs in sorted order included.
func TestRunGolden(t *testing.T) {
	path := crawlLog(t)
	var stdout, stderr bytes.Buffer
	if err := run([]string{path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/analyze.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := stdout.String(); got != string(want) {
		t.Errorf("stdout differs from testdata/analyze.golden; got:\n%s", got)
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr: %s", stderr.String())
	}
}

// TestRunPartialLog cuts the log inside its final record, as a
// crashed crawl leaves it: run warns and analyzes the records before
// the cut.
func TestRunPartialLog(t *testing.T) {
	path := crawlLog(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	records := bytes.Count(data, []byte("\n"))
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stderr.String(), "warning: log damaged, analyzing partial records:") {
		t.Errorf("stderr: %q", stderr.String())
	}
	if want := fmt.Sprintf("%d log entries\n", records-1); !strings.HasPrefix(stdout.String(), want) {
		t.Errorf("stdout starts %.40q, want %q", stdout.String(), want)
	}
}

func TestRunArgs(t *testing.T) {
	path := crawlLog(t)
	var raw bytes.Buffer
	if err := run([]string{"-raw", path}, &raw, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(raw.String(), "sanitization") {
		t.Error("-raw still sanitizes")
	}

	var stderr bytes.Buffer
	if got := cli.Status(run(nil, &bytes.Buffer{}, &stderr), &stderr); got != 2 || !strings.HasPrefix(stderr.String(), "usage: analyze") {
		t.Errorf("no log argument: status %d, stderr %q; want 2 and the usage", got, stderr.String())
	}
	missing := filepath.Join(t.TempDir(), "missing.jsonl")
	if got := cli.Status(run([]string{missing}, &bytes.Buffer{}, &bytes.Buffer{}), &bytes.Buffer{}); got != 1 {
		t.Errorf("missing log: status %d, want 1", got)
	}
}
