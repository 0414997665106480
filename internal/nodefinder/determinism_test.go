package nodefinder_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"runtime"
	"testing"
	"time"

	"repro/internal/nodefinder"
	"repro/internal/nodefinder/mlog"
	"repro/internal/simnet"
)

// The two tests in this file are the gate that a change to the
// scheduler, the node table, the clock or the log changed what a
// crawl costs and nothing else: the first pins the log a seed
// produces byte for byte, the second pins what a connection may
// allocate. Both count rather than time, so they hold on any machine.

// crawlLog is what a golden crawl produced: it is the far end of the
// JSON log while the crawl runs.
type crawlLog struct {
	sum          hash.Hash
	bytes, lines int64
	// mallocs is what the crawl allocated between Start and the last
	// flushed byte; building the world is not counted.
	mallocs uint64
}

func (h *crawlLog) Write(p []byte) (int, error) {
	h.sum.Write(p)
	h.bytes += int64(len(p))
	h.lines += int64(bytes.Count(p, []byte{'\n'}))
	return len(p), nil
}

// goldenCrawl runs the reference crawl — seed 42, 2,000 base nodes
// plus the default abusive identities and incoming connections, 6
// virtual hours — through Batcher → Writer, the path the ledger's
// crawl-sim workload logs through. Static nodes go
// stale after 2 hours instead of 24, so that expiry, the dynamic
// re-dials it releases and the backoff reset all shape the stream
// inside the horizon.
func goldenCrawl(t testing.TB, maxDials, workers int) *crawlLog {
	t.Helper()
	const seed = 42
	cfg := simnet.DefaultConfig(seed)
	cfg.BaseNodes = 2000
	w := simnet.NewWorld(cfg)

	out := &crawlLog{sum: sha256.New()}
	writer := mlog.NewWriter(out)
	batch := mlog.NewBatcher(writer)
	f, err := nodefinder.New(nodefinder.Config{
		Clock:           w.Clock,
		Discovery:       w.NewDiscovery(seed + 1),
		Dialer:          w.NewDialer(seed + 2),
		Log:             batch,
		Seed:            seed + 3,
		LookupWorkers:   workers,
		MaxDynamicDials: maxDials,
		StaleAfter:      2 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gen := w.StartIncoming(f, 30*time.Second, seed+4)
	f.Start()
	w.Clock.Advance(6 * time.Hour)
	f.Stop()
	gen.Stop()
	batch.Close()
	if err := writer.Flush(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	out.mallocs = after.Mallocs - before.Mallocs
	return out
}

// TestCrawlLogGolden: the same seed yields the same JSONL stream —
// every RNG draw, tie-break and sweep instant — whatever GOMAXPROCS
// is, under both a tight and a loose dial budget, with one lookup
// chain and with four racing for the same queue. The constants were
// recorded on the commit before the node-state record replaced the
// scheduler's per-ID maps.
func TestCrawlLogGolden(t *testing.T) {
	golden := []struct {
		maxDials, workers int
		lines, bytes      int64
		sha               string
	}{
		{16, 1, 13707, 4419048, "666b4739cd28c7ce8138939e555fa34a84cf22b6b8055de6a84901dd22ce3a9e"},
		{256, 1, 13700, 4417045, "9109d707b8b89ae430f78c93198118612514e4c42d5a67e8d05fdd5ddf1884ae"},
		{16, 4, 15937, 5127984, "48ab615f009e9666fc7573314c1a1e5bbf9ed3b460139518bb47f9d83d19efc8"},
		{256, 4, 16060, 5161149, "c8f0f7230e0cebe09df3eb37a037520dcf319ce90822ecef0f4c2e1cfdb5fea0"},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, g := range golden {
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			out := goldenCrawl(t, g.maxDials, g.workers)
			sha := hex.EncodeToString(out.sum.Sum(nil))
			if out.lines != g.lines || out.bytes != g.bytes || sha != g.sha {
				t.Errorf("MaxDynamicDials %d, LookupWorkers %d, GOMAXPROCS %d: %d records, %d bytes, sha256 %s; want %d, %d, %s",
					g.maxDials, g.workers, procs, out.lines, out.bytes, sha, g.lines, g.bytes, g.sha)
			}
		}
	}
}

// TestCrawlAllocsPerConn: the whole crawl — discovery, scheduler,
// node table, clock, simulated dialer, log record and JSON encode —
// may allocate at most 2.75 objects per connection (2.55 measured).
// Dials and lookups are recycled, so what remains is the log record
// and each identity's first sight: its record, state, rendered ID and
// IP, callbacks and static timer.
func TestCrawlAllocsPerConn(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const budget = 2.75
	out := goldenCrawl(t, 256, 1)
	perConn := float64(out.mallocs) / float64(out.lines)
	t.Logf("%d allocations / %d records = %.2f per connection", out.mallocs, out.lines, perConn)
	if perConn > budget {
		t.Errorf("%.2f allocations per connection, budget %.2f", perConn, budget)
	}
}
