package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/nodefinder/mlog"
	"repro/internal/testutil/leakcheck"
)

// lineWriter hands each write to the test as one string; run writes
// each stderr line in one call.
type lineWriter chan string

func (w lineWriter) Write(p []byte) (int, error) {
	w <- string(p)
	return len(p), nil
}

// TestRunServesAndShutsDown runs the daemon on a loopback port it
// picks itself, reads a published snapshot and the /metrics body,
// and cancels the context: run must shut the server down, return nil
// and leave the -mlog file complete.
func TestRunServesAndShutsDown(t *testing.T) {
	leakcheck.Check(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logPath := filepath.Join(t.TempDir(), "census.jsonl")
	stderr := make(lineWriter, 8)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-nodes", "300", "-seed", "5",
			"-interval", "30m", "-chunk", "30m", "-pace", "5ms", "-mlog", logPath}, io.Discard, stderr)
	}()

	var addr string
	select {
	case line := <-stderr:
		m := regexp.MustCompile(` on (127\.0\.0\.1:\d+) `).FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("no bound address in %q", line)
		}
		addr = m[1]
	case err := <-done:
		t.Fatalf("run returned before serving: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("no serving line on stderr")
	}

	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	// Epoch 0 is published at start, before any crawling; wait for
	// one cut from the crawl.
	var summary struct {
		Epoch  uint64 `json:"epoch"`
		Totals struct {
			Identities int `json:"identities"`
		} `json:"totals"`
	}
	for deadline := time.Now().Add(10 * time.Second); summary.Epoch == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no epoch past 0 within 10 s")
		}
		status, body := get("/v1/summary")
		if status != http.StatusOK {
			t.Fatalf("/v1/summary: %d %s", status, body)
		}
		if err := json.Unmarshal(body, &summary); err != nil {
			t.Fatalf("summary: %v", err)
		}
	}
	if summary.Totals.Identities == 0 {
		t.Errorf("epoch %d counts no identities", summary.Epoch)
	}

	// The handler accounts its own requests in the registry /metrics
	// serves, next to the crawler's and the daemon's instruments.
	status, body := get("/metrics")
	var snap metrics.Snapshot
	if err := json.Unmarshal(body, &snap); status != http.StatusOK || err != nil {
		t.Fatalf("/metrics: %d, %v", status, err)
	}
	for _, name := range []string{"census.http_requests{summary}", "census.http_requests{metrics}"} {
		if snap.Counter(name) == 0 {
			t.Errorf("/metrics: %s is 0", name)
		}
	}
	if snap.CounterSum("finder.conns") == 0 || snap.Counter("census.snapshots_published") == 0 {
		t.Errorf("/metrics lacks the crawl or the daemon: finder.conns %d, census.snapshots_published %d",
			snap.CounterSum("finder.conns"), snap.Counter("census.snapshots_published"))
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after cancel: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancel")
	}
	if line := <-stderr; line != "censusd: shutting down\n" {
		t.Errorf("last stderr line %q", line)
	}
	entries, err := mlog.ReadFile(logPath)
	if err != nil || len(entries) == 0 {
		t.Errorf("-mlog file: %d entries, %v", len(entries), err)
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus"},
		{"-addr", "127.0.0.1:-1"},
		{"-mlog", filepath.Join(t.TempDir(), "missing", "census.jsonl")},
	} {
		if err := run(context.Background(), args, io.Discard, io.Discard); err == nil {
			t.Errorf("%v: run returned nil", args)
		}
	}
}
