// Command benchcrawl measures crawl throughput at scale: it builds a
// deterministic-seed analytic world (default 100,000 nodes), crawls
// it with the multi-worker NodeFinder pipeline to census convergence, and
// emits a BENCH_crawl.json with nodes/sec, peak RSS, and convergence
// wall-clock. The world is event-driven — idle nodes are pure state
// machines — so the bench exercises exactly the promotion-free path a
// large simulated measurement runs on.
//
// Usage:
//
//	benchcrawl [-nodes N] [-seed S] [-out BENCH_crawl.json]
//	           [-baseline BENCH_crawl.json] [-tolerance 0.20]
//	           [-max-wall 60s] [-max-rss 2147483648]
//	           [-cpuprofile cpu.prof] [-memprofile mem.prof]
//	           [-rlp-reflect]
//
// With -baseline, the run compares its nodes/sec against the
// committed figure and exits non-zero on a regression beyond the
// tolerance. The wall-clock and RSS gates always apply (zero
// disables either).
//
// -cpuprofile and -memprofile write pprof profiles of the crawl
// (allocation profiles cover the whole run; the CPU profile stops
// before the gates run). -rlp-reflect disables the compiled RLP codec
// plans for the run, so the two backends can be profiled against each
// other.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"runtime/pprof"

	"repro/internal/metrics"
	"repro/internal/nodefinder"
	"repro/internal/nodefinder/mlog"
	"repro/internal/rlp"
	"repro/internal/simnet"
)

// Result is the benchmark artifact schema.
type Result struct {
	Nodes          int     `json:"nodes"`
	Seed           int64   `json:"seed"`
	DistinctDialed int     `json:"distinct_dialed"`
	TotalConns     uint64  `json:"total_conns"`
	VirtualHours   float64 `json:"virtual_hours"`
	WallSeconds    float64 `json:"wall_seconds"`
	NodesPerSec    float64 `json:"nodes_per_sec"`
	PeakRSSBytes   int64   `json:"peak_rss_bytes"`
	GoVersion      string  `json:"go_version"`
}

// census counts distinct dialed identities. It sits behind an
// mlog.Batcher, so the dial path only ever appends to the batcher's
// buffer; the map update happens on the flusher goroutine.
type census struct {
	mu       sync.Mutex
	distinct map[string]struct{}
	total    uint64
}

func (c *census) Record(e *mlog.Entry) {
	c.mu.Lock()
	c.distinct[e.NodeID] = struct{}{}
	c.total++
	c.mu.Unlock()
}

func (c *census) counts() (int, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.distinct), c.total
}

func main() {
	var (
		nodes      = flag.Int("nodes", 100_000, "world population size")
		seed       = flag.Int64("seed", 42, "world seed (deterministic population)")
		out        = flag.String("out", "BENCH_crawl.json", "write the result JSON here ('-' for stdout only)")
		baseline   = flag.String("baseline", "", "compare nodes/sec against this committed result")
		tolerance  = flag.Float64("tolerance", 0.20, "allowed relative nodes/sec regression vs baseline")
		converge   = flag.Float64("converge", 0.99, "census fraction that counts as converged")
		maxWall    = flag.Duration("max-wall", 60*time.Second, "fail if convergence takes longer than this (0 disables)")
		maxRSS     = flag.Int64("max-rss", 2<<30, "fail if peak RSS exceeds this many bytes (0 disables)")
		verbose    = flag.Bool("v", false, "log progress per virtual chunk")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the crawl here")
		memprofile = flag.String("memprofile", "", "write an allocation profile here at exit")
		rlpReflect = flag.Bool("rlp-reflect", false, "decode/encode RLP via the reflection walker instead of compiled plans")
	)
	flag.Parse()

	rlp.SetPlanCodec(!*rlpReflect)
	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcrawl:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			fmt.Fprintln(os.Stderr, "benchcrawl:", err)
			os.Exit(1)
		}
	}

	res, err := run(*nodes, *seed, *converge, *maxWall, *verbose)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		pf, perr := os.Create(*memprofile)
		if perr != nil {
			fmt.Fprintln(os.Stderr, "benchcrawl:", perr)
			os.Exit(1)
		}
		runtime.GC() // materialize the final heap for the alloc profile
		if perr := pprof.WriteHeapProfile(pf); perr != nil {
			fmt.Fprintln(os.Stderr, "benchcrawl:", perr)
			os.Exit(1)
		}
		pf.Close() //nolint:errcheck
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcrawl:", err)
		os.Exit(1)
	}

	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcrawl:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	os.Stdout.Write(buf) //nolint:errcheck
	if *out != "-" {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchcrawl:", err)
			os.Exit(1)
		}
	}

	failed := false
	if *maxWall > 0 && res.WallSeconds > maxWall.Seconds() {
		fmt.Fprintf(os.Stderr, "FAIL: convergence took %.1fs, budget %s\n", res.WallSeconds, maxWall)
		failed = true
	}
	if *maxRSS > 0 && res.PeakRSSBytes > *maxRSS {
		fmt.Fprintf(os.Stderr, "FAIL: peak RSS %d bytes, budget %d\n", res.PeakRSSBytes, *maxRSS)
		failed = true
	}
	if *baseline != "" {
		if err := compareBaseline(res, *baseline, *tolerance); err != nil {
			fmt.Fprintln(os.Stderr, "FAIL:", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func run(nodes int, seed int64, converge float64, maxWall time.Duration, verbose bool) (*Result, error) {
	cfg := simnet.DefaultConfig(seed)
	cfg.BaseNodes = nodes
	cfg.AbusiveIPs = 0 // a fixed census target: no identities minted mid-crawl
	w := simnet.NewWorld(cfg)

	reg := metrics.New()
	cen := &census{distinct: make(map[string]struct{}, nodes)}
	batch := mlog.NewBatcher(cen)
	defer batch.Close()

	dialer := w.NewDialer(seed + 2)
	dialer.Metrics = nodefinder.NewDialerMetrics(reg)
	f, err := nodefinder.New(nodefinder.Config{
		Clock:     w.Clock,
		Discovery: w.NewDiscovery(seed + 1),
		Dialer:    dialer,
		Log:       batch,
		Metrics:   reg,
		Seed:      seed + 3,
		// The pipeline at scale: parallel lookup chains feeding one
		// bounded queue. Unreachable nodes hold dial slots for the full
		// 15 s virtual timeout, so the dial budget must cover
		// lookupRate × mean dial duration with slack.
		LookupWorkers:   16,
		MaxDynamicDials: 256,
	})
	if err != nil {
		return nil, err
	}

	target := int(converge * float64(len(w.Nodes)))
	start := time.Now()
	f.Start()
	const chunk = 30 * time.Minute
	virtual := time.Duration(0)
	distinct, total := 0, uint64(0)
	for {
		w.Clock.Advance(chunk)
		virtual += chunk
		distinct, total = cen.counts()
		if verbose {
			fmt.Fprintf(os.Stderr, "virtual %s: %d/%d distinct, %d conns, %.1fs wall\n",
				virtual, distinct, target, total, time.Since(start).Seconds())
		}
		if distinct >= target {
			break
		}
		if maxWall > 0 && time.Since(start) > 2*maxWall {
			// Hard stop at twice the budget: emit the partial result and
			// let the gate below fail it with real numbers attached.
			break
		}
	}
	f.Stop()
	batch.Close()
	distinct, total = cen.counts()
	wall := time.Since(start)

	return &Result{
		Nodes:          len(w.Nodes),
		Seed:           seed,
		DistinctDialed: distinct,
		TotalConns:     total,
		VirtualHours:   virtual.Hours(),
		WallSeconds:    wall.Seconds(),
		NodesPerSec:    float64(distinct) / wall.Seconds(),
		PeakRSSBytes:   peakRSS(),
		GoVersion:      runtime.Version(),
	}, nil
}

// compareBaseline enforces the throughput contract against the
// committed result: a regression beyond tol fails; an improvement
// beyond tol passes with a nudge to refresh the baseline.
func compareBaseline(res *Result, path string, tol float64) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base Result
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	if base.NodesPerSec <= 0 {
		return fmt.Errorf("baseline %s has no nodes_per_sec", path)
	}
	ratio := res.NodesPerSec / base.NodesPerSec
	switch {
	case ratio < 1-tol:
		return fmt.Errorf("nodes/sec %.0f is %.0f%% below baseline %.0f (tolerance %.0f%%)",
			res.NodesPerSec, (1-ratio)*100, base.NodesPerSec, tol*100)
	case ratio > 1+tol:
		fmt.Fprintf(os.Stderr, "note: nodes/sec %.0f beats baseline %.0f by %.0f%% — refresh BENCH_crawl.json\n",
			res.NodesPerSec, base.NodesPerSec, (ratio-1)*100)
	}
	return nil
}

// peakRSS reads VmHWM (the process's high-water resident set) from
// /proc/self/status; 0 on platforms without procfs.
func peakRSS() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}
