// Package repro's root benchmark harness: one testing.B benchmark per
// table and figure in the paper's evaluation, each running a
// scaled-down version of the corresponding experiment and reporting
// its headline quantity as a custom metric. Run with:
//
//	go test -bench=. -benchmem
//
// The full-scale regeneration (82 virtual days, larger world) is
// cmd/experiments; these benches exist so `go test -bench` exercises
// every experiment path and tracks its cost.
package repro

import (
	"errors"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/enode"
	"repro/internal/experiments"
	"repro/internal/nodefinder"
	"repro/internal/nodefinder/mlog"
	"repro/internal/simnet"
)

// benchCrawl caches one quick crawl across benchmarks in a single
// bench invocation.
var benchCrawl *experiments.LongRun

func getCrawl(b *testing.B) *experiments.LongRun {
	b.Helper()
	if benchCrawl == nil {
		cfg := experiments.QuickCrawl()
		cfg.Days = 6
		run, err := experiments.RunCrawl(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchCrawl = run
	}
	return benchCrawl
}

func requirePass(b *testing.B, r *experiments.Result) {
	b.Helper()
	if !r.Pass && r.ID != "fig10" { // fig10 needs long windows
		b.Fatalf("%s failed shape check: %s", r.ID, r.Measured)
	}
}

func BenchmarkTable1DisconnectReasons(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Full 7-day observers: the rare disconnect classes (Geth's
		// Subprotocol-error sends) need the whole window to appear.
		r := experiments.Table1(experiments.RunCaseStudy(int64(i)))
		requirePass(b, r)
	}
}

func BenchmarkFig2MessageMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2And3(experiments.RunCaseStudy(int64(i)))
		requirePass(b, r)
	}
}

func BenchmarkFig4PeerConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Full 7-day observers: sub-cap occupancy comes from blips
		// that may not occur in a short window.
		r := experiments.Fig4(experiments.RunCaseStudy(int64(i)))
		requirePass(b, r)
	}
}

func BenchmarkFig5DiscoveryRate(b *testing.B) {
	run := getCrawl(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.Fig5(run))
	}
}

func BenchmarkFig6Fig7DialResponse(b *testing.B) {
	run := getCrawl(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.Fig6And7(run))
	}
}

func BenchmarkFig8StaticDialRate(b *testing.B) {
	run := getCrawl(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.Fig8(run))
	}
}

func BenchmarkTable2EthernodesIntersection(b *testing.B) {
	run := getCrawl(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.Table2(run))
	}
}

func BenchmarkTable3Services(b *testing.B) {
	run := getCrawl(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.Table3(run))
	}
}

func BenchmarkFig9NetworksGenesis(b *testing.B) {
	run := getCrawl(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.Fig9(run))
	}
}

func BenchmarkTable4Clients(b *testing.B) {
	run := getCrawl(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.Table4(run))
	}
}

func BenchmarkTable5Versions(b *testing.B) {
	run := getCrawl(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.Table5(run))
	}
}

func BenchmarkFig10VersionAdoption(b *testing.B) {
	run := getCrawl(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig10(run) // shape needs long windows; cost tracked here
	}
}

func BenchmarkFig11DistanceMetrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.Fig11(20_000, int64(i)))
	}
}

func BenchmarkTable6NetworkSize(b *testing.B) {
	run := getCrawl(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.Table6(run))
	}
}

func BenchmarkFig12Geography(b *testing.B) {
	run := getCrawl(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.Fig12(run))
	}
}

func BenchmarkFig13LatencyCDF(b *testing.B) {
	run := getCrawl(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.Fig13(run))
	}
}

func BenchmarkFig14Freshness(b *testing.B) {
	run := getCrawl(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.Fig14(run))
	}
}

func BenchmarkExtChurn(b *testing.B) {
	run := getCrawl(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.ExtChurn(run))
	}
}

func BenchmarkExtMultiInstance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.ExtMultiInstance(int64(i)+1000, 3, 120, 12))
	}
}

// BenchmarkFullCrawl tracks the cost of the crawl that feeds most
// experiments: one virtual day over a quick world per iteration.
func BenchmarkFullCrawl(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := experiments.QuickCrawl()
		cfg.Days = 1
		cfg.Seed = int64(i)
		if _, err := experiments.RunCrawl(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches for the DESIGN.md design choices ---

// BenchmarkAblationStaticInterval sweeps the static re-dial interval
// and reports coverage (identities seen) per dial cost.
func BenchmarkAblationStaticInterval(b *testing.B) {
	for _, interval := range []time.Duration{5 * time.Minute, 30 * time.Minute, 2 * time.Hour} {
		b.Run(interval.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := runAblationCrawl(b, interval, 0)
				b.ReportMetric(float64(st.KnownNodes), "identities")
				b.ReportMetric(float64(st.StaticDials), "static-dials")
			}
		})
	}
}

// BenchmarkAblationPeerLimit compares census coverage of NodeFinder
// (unlimited) against a limit-respecting client that stops dialing
// once it has enough peers.
func BenchmarkAblationPeerLimit(b *testing.B) {
	for _, name := range []string{"unlimited", "respect-25"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				limit := 0
				if name == "respect-25" {
					limit = 25
				}
				st := runAblationCrawl(b, 30*time.Minute, limit)
				b.ReportMetric(float64(st.SuccessfulConns), "handshakes")
				b.ReportMetric(float64(st.KnownNodes), "identities")
			}
		})
	}
}

func runAblationCrawl(b *testing.B, staticInterval time.Duration, successCap int) nodefinder.Stats {
	b.Helper()
	cfg := simnet.DefaultConfig(99)
	cfg.BaseNodes = 200
	w := simnet.NewWorld(cfg)

	var dialer nodefinder.Dialer = w.NewDialer(7)
	var capped *cappedDialer
	if successCap > 0 {
		// A limit-respecting client stops establishing new sessions
		// once it holds enough peers: model by cutting the dialer
		// off after the cap.
		capped = &cappedDialer{w: w, inner: dialer, cap: successCap}
		dialer = capped
	}
	f, err := nodefinder.New(nodefinder.Config{
		Clock:          w.Clock,
		Discovery:      w.NewDiscovery(8),
		Dialer:         dialer,
		Log:            mlog.NewCollector(),
		StaticInterval: staticInterval,
		Seed:           9,
	})
	if err != nil {
		b.Fatal(err)
	}
	if capped != nil {
		capped.f = f
	}
	f.Start()
	w.Clock.Advance(24 * time.Hour)
	f.Stop()
	return f.Stats()
}

// cappedDialer refuses new dials once the finder holds cap successes.
type cappedDialer struct {
	w     *simnet.World
	inner nodefinder.Dialer
	f     *nodefinder.Finder
	cap   int
}

func (c *cappedDialer) Dial(n *enode.Node, kind mlog.ConnType, done func(*nodefinder.DialResult)) {
	if c.f != nil && int(c.f.Stats().SuccessfulConns) >= c.cap {
		// Behave like a client with no free peer slots: no outbound
		// session attempt is made. Deliver the refusal on the clock
		// to preserve the async Dialer contract.
		start := c.w.Clock.Now()
		c.w.Clock.AfterFunc(time.Millisecond, func() {
			done(&nodefinder.DialResult{Node: n, Kind: kind, Start: start, Err: errPeerCapReached})
		})
		return
	}
	c.inner.Dial(n, kind, done)
}

var errPeerCapReached = errors.New("local peer limit reached")

// BenchmarkSanitization tracks the §5.4 filter's cost on a realistic
// log.
func BenchmarkSanitization(b *testing.B) {
	run := getCrawl(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := analysis.Sanitize(run.Nodes)
		if len(res.AbusiveIPs) == 0 {
			b.Fatal("no abusive IPs found")
		}
	}
}

// BenchmarkLogAggregation tracks entry aggregation cost.
func BenchmarkLogAggregation(b *testing.B) {
	run := getCrawl(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(analysis.Aggregate(run.Entries)) == 0 {
			b.Fatal("no nodes")
		}
	}
}

// BenchmarkDistanceMetricCost compares the raw cost of the two
// metrics from §6.3.
func BenchmarkDistanceMetricCost(b *testing.B) {
	var a, c [32]byte
	for i := range a {
		a[i], c[i] = byte(i*7), byte(i*13+1)
	}
	b.Run("geth", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			enode.LogDist(a, c)
		}
	})
	b.Run("parity", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			enode.ParityLogDist(a, c)
		}
	})
}
