package bench

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// Sizes are the workload dimensions. FullSizes is what the benchmark
// runs; tests shrink them so the package stays fast.
type Sizes struct {
	SimNodes int // crawl-sim world
	SimHours int // crawl-sim virtual horizon

	WireNodes int // crawl-wire world

	PublishNodes  int // census-publish set-up world
	PublishHours  int // census-publish set-up crawl = number of 30-min epochs / 2
	AnalyzePasses int // offline Aggregate+EpochSeries passes

	ServePopulation int           // census-serve identities
	Republish       time.Duration // census-serve publisher period
}

// FullSizes are the issue's requester-sized workloads.
var FullSizes = Sizes{
	SimNodes: 100_000, SimHours: 24,
	WireNodes:    10_000,
	PublishNodes: 5_000, PublishHours: 48, AnalyzePasses: 15,
	ServePopulation: 5_000, Republish: 500 * time.Millisecond,
}

// Options select and parameterise one run of one workload.
type Options struct {
	Workload string
	// Seed is the only workload input: the program under test receives
	// just the world or log generated from it.
	Seed int64
	// Seconds is the measuring budget. Fixed-work workloads repeat whole
	// rounds for the number of rounds whose total is nearest to it (at
	// least one); census-serve measures for exactly this long.
	Seconds float64
	// Trace selects the traced run, which reports the per-layer metrics
	// instead of the end-to-end ones.
	Trace bool
	Sizes Sizes
	// OutDir receives trace-<workload>.json; empty disables the file.
	OutDir string
}

// Outcome is what one run measured.
type Outcome struct {
	Attempted int64
	Failed    int64
	// Failures holds one line per violated correctness rule; the run is
	// correct when it is empty.
	Failures []string
	// Notes are human-readable context: exact counts, sample sizes.
	Notes   []string
	Metrics map[string]float64
}

func newOutcome() *Outcome { return &Outcome{Metrics: map[string]float64{}} }

// Correct reports whether every correctness rule held.
func (o *Outcome) Correct() bool { return len(o.Failures) == 0 && o.Failed == 0 }

func (o *Outcome) fail(lines ...string) { o.Failures = append(o.Failures, lines...) }

func (o *Outcome) note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// e2e fills the six end-to-end metrics every workload reports. rss is
// the process's peak resident set in bytes, read when the measured
// phase ended: what the bench allocates afterwards to merge and sort
// its samples is not the program's memory.
func (o *Outcome) e2e(setups []float64, opsPerS, opP50US, resultS, allocsPerOp float64, rss int64) {
	o.Metrics["setup_s"] = Median(setups)
	o.Metrics["ops_per_s"] = opsPerS
	o.Metrics["op_p50_us"] = opP50US
	o.Metrics["result_s"] = resultS
	o.Metrics["allocs_per_op"] = allocsPerOp
	o.Metrics["peak_rss_mib"] = float64(rss) / (1 << 20)
}

// Run executes one workload in this process. Run each workload in a
// fresh process: peak_rss_mib is the process's high-water mark.
func Run(o Options) (*Outcome, error) {
	if o.Sizes == (Sizes{}) {
		o.Sizes = FullSizes
	}
	if o.Seconds <= 0 {
		o.Seconds = 10
	}
	var run func(Options) (*Outcome, error)
	switch o.Workload {
	case "crawl-sim":
		run = runCrawlSim
	case "crawl-wire":
		run = runCrawlWire
	case "census-publish":
		run = runCensusPublish
	case "census-serve":
		run = runCensusServe
	default:
		return nil, fmt.Errorf("bench: unknown workload %q (have %s)", o.Workload, strings.Join(WorkloadNames(), ", "))
	}
	out, err := run(o)
	if err != nil {
		return nil, err
	}
	if o.Trace {
		runProbes(o.Seed, out.Metrics, 1)
		// A layer a workload bypasses did no work: its counts and
		// shares are zero, not missing.
		for _, m := range PerLayer {
			if _, ok := out.Metrics[m.Name]; !ok {
				out.Metrics[m.Name] = 0
			}
		}
	}
	return out, nil
}

// minSetups is how many times a run sets up, so setup_s is a median.
const minSetups = 3

// warmSetups performs the set-ups a run needs beyond the one each round
// does, so that setup_s is the median of at least minSetups. Their
// products are dropped and collected before the measured rounds start.
func warmSetups(setup func() error, times *[]float64) {
	for i := 0; i < minSetups-1; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return // the measured round reports it
		}
		*times = append(*times, time.Since(t0).Seconds())
		settle()
	}
}

// settle returns set-up garbage to the OS so it neither inflates the
// measured round's peak RSS nor makes its first GC cycle longer.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// repeatRounds runs fixed-work rounds until their total is as near to
// seconds as a whole number of rounds gets, and at least once. round
// returns the measured wall of the round it ran.
func repeatRounds(seconds float64, round func() (float64, error)) error {
	total := 0.0
	for {
		settle()
		d, err := round()
		if err != nil {
			return err
		}
		total += d
		if total+d/2 > seconds {
			return nil
		}
	}
}

// mallocs is the process's cumulative heap-object allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
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
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseInt(fields[1], 10, 64) // malformed procfs reads as 0, like no procfs
			return kb << 10
		}
	}
	return 0
}

func (o Options) writeTrace(tr *Tracer, workload string, wallS float64) error {
	if o.OutDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return err
	}
	return tr.WriteFile(filepath.Join(o.OutDir, "trace-"+workload+".json"), workload, o.Seed, wallS)
}
