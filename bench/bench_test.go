package bench

import (
	"encoding/json"
	"math"
	"net"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/nodefinder"
	"repro/internal/nodefinder/mlog"
)

// testSizes keep the whole package under ten seconds.
var testSizes = Sizes{
	SimNodes: 2000, SimHours: 6,
	WireNodes:    300,
	PublishNodes: 400, PublishHours: 4, AnalyzePasses: 2,
	ServePopulation: 400, Republish: 100 * time.Millisecond,
}

type dialFunc = func(network, address string, timeout time.Duration) (net.Conn, error)

// manualClock makes span arithmetic exact.
type manualClock struct{ now int64 }

func (c *manualClock) tracer() *Tracer {
	t := NewTracer()
	t.clock = func() int64 { return c.now }
	return t
}

func TestThreadSelfTime(t *testing.T) {
	clk := &manualClock{}
	tr := clk.tracer()
	parent, childA, childB, grand := tr.Kind("parent"), tr.Kind("a"), tr.Kind("b"), tr.Kind("grand")
	th := tr.NewThread()

	// parent [0,100): a [10,30) with grand [15,20), then sibling b [40,70).
	th.BeginDial(parent, sampleEvery) // a sampled dial: raw spans are kept
	clk.now = 10
	th.Begin(childA)
	clk.now = 15
	th.Begin(grand)
	clk.now = 20
	th.Pop()
	clk.now = 30
	th.Pop()
	clk.now = 40
	th.Begin(childB)
	clk.now = 70
	th.Pop()
	clk.now = 100
	th.Pop()
	th.Close()

	st := tr.Stats()
	for name, want := range map[string][2]float64{ // total, self in ns
		"parent": {100, 50}, "a": {20, 15}, "b": {30, 30}, "grand": {5, 5},
	} {
		got := st[name]
		if math.Round(got.TotalS*1e9) != want[0] || math.Round(got.SelfS*1e9) != want[1] {
			t.Errorf("%s: total %.0f self %.0f ns, want %v", name, got.TotalS*1e9, got.SelfS*1e9, want)
		}
	}
	// The self times of one goroutine's spans partition its root span.
	sum := 0.0
	for _, s := range st {
		sum += s.SelfS
	}
	if math.Round(sum*1e9) != 100 {
		t.Errorf("self times sum to %.0f ns, want the root's 100", sum*1e9)
	}

	// The incremental figures agree with the interval-union recomputation
	// from the raw spans.
	if len(tr.raw) != 4 {
		t.Fatalf("kept %d raw spans of the sampled dial, want 4", len(tr.raw))
	}
	self := SelfTimes(tr.raw)
	for _, s := range tr.raw {
		if got, want := float64(self[s.ID]), math.Round(st[s.Name].SelfS*1e9); got != want {
			t.Errorf("SelfTimes(%s) = %.0f, thread computed %.0f", s.Name, got, want)
		}
		if s.Dial != sampleEvery {
			t.Errorf("%s: dial id %d, want the parent's %d", s.Name, s.Dial, sampleEvery)
		}
	}
}

func TestUnsampledDialKeepsNoRawSpans(t *testing.T) {
	clk := &manualClock{}
	tr := clk.tracer()
	th := tr.NewThread()
	th.BeginDial(tr.Kind("dial"), sampleEvery+1)
	th.Pop()
	th.Close()
	if len(tr.raw) != 0 || tr.Spans() != 1 {
		t.Errorf("raw spans %d, spans %d; want 0 raw and 1 aggregated", len(tr.raw), tr.Spans())
	}
}

func TestSelfTimesCrossGoroutineChildren(t *testing.T) {
	// Children recorded on other goroutines may overlap each other and
	// stick out of the parent: the covered part is their union, clipped.
	spans := []RawSpan{
		{Name: "parent", ID: 1, Thread: 1, StartNS: 0, EndNS: 100},
		{Name: "x", ID: 2, Parent: 1, Thread: 2, StartNS: 10, EndNS: 60},
		{Name: "y", ID: 3, Parent: 1, Thread: 3, StartNS: 40, EndNS: 80},     // overlaps x on [40,60)
		{Name: "z", ID: 4, Parent: 1, Thread: 4, StartNS: 90, EndNS: 130},    // ends after the parent
		{Name: "w", ID: 5, Parent: 1, Thread: 5, StartNS: 50, EndNS: 55},     // inside x
		{Name: "orphan", ID: 6, Parent: 99, Thread: 6, StartNS: 0, EndNS: 7}, // parent not sampled
	}
	self := SelfTimes(spans)
	// Union of [10,80) and [90,100) covers 80 of the parent's 100.
	if self[1] != 20 {
		t.Errorf("parent self = %d, want 20", self[1])
	}
	if self[2] != 50 || self[4] != 40 || self[6] != 7 {
		t.Errorf("leaf self times %d, %d, %d; want their durations 50, 40, 7", self[2], self[4], self[6])
	}
}

func TestFlatScopeRecordsConcurrently(t *testing.T) {
	tr := NewTracer()
	k := tr.Kind("cb")
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			for j := 0; j < 100; j++ {
				s := tr.Flat().Begin(k)
				tr.Flat().End(k, s)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if got := tr.Stats()["cb"].Count; got != 400 {
		t.Errorf("flat scope kept %d of 400 observations", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := Quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || Median(xs) != 5.5 {
		t.Errorf("quartiles %v, %v median %v; want 2.75, 8.25, 5.5", q1, q3, Median(xs))
	}
	if got := Spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := Quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("three-point quartiles %v, %v; want 1, 4", q1, q3)
	}
	if !math.IsNaN(Spread([]float64{3})) {
		t.Error("one run has no spread")
	}
}

func TestBoundFor(t *testing.T) {
	for _, c := range []struct {
		spreads []float64
		want    float64
	}{
		{[]float64{0.01, 0.02}, 0.05}, // never tighter than 5 %
		{[]float64{0.04, 0.03}, 0.08}, // twice the widest
		{[]float64{math.NaN(), 0.06}, 0.12},
	} {
		if got := BoundFor(c.spreads...); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("BoundFor(%v) = %v, want %v", c.spreads, got, c.want)
		}
	}
}

func TestSamples(t *testing.T) {
	a, b := NewSamples(600), NewSamples(600)
	for i := 1; i <= 1000; i++ { // 1..1000 split over two recorders, out of order
		if i%2 == 0 {
			a.Add(int64(1001 - i))
		} else {
			b.Add(int64(1001 - i))
		}
	}
	s := MergeSamples(a, b)
	if s.Len() != 1000 {
		t.Fatalf("merged %d samples, want 1000", s.Len())
	}
	if got := s.Quantile(0.5); got != 500.5 {
		t.Errorf("p50 = %v, want 500.5", got)
	}
	if got := s.Quantile(0.99); math.Abs(got-990.01) > 1e-9 {
		t.Errorf("p99 = %v, want 990.01", got)
	}
	if got := s.MidMean(); got != 500.5 {
		t.Errorf("mid-mean = %v, want 500.5", got)
	}
	// 1000 samples leave ten beyond p99 and one beyond p99.9.
	if q, ok := s.TopQuantile(); !ok || q != 0.99 {
		t.Errorf("top percentile %v %v, want p99", q, ok)
	}
	few := NewSamples(50)
	for i := 0; i < 50; i++ {
		few.Add(int64(i))
	}
	if _, ok := few.TopQuantile(); ok {
		t.Error("50 samples support no tail percentile")
	}
	full := NewSamples(1)
	full.Add(math.MaxInt64) // saturates
	full.Add(1)             // beyond capacity
	if full.Dropped != 1 || full.Quantile(1) != math.MaxUint32 {
		t.Errorf("dropped %d, max %v; want 1 and saturation at MaxUint32", full.Dropped, full.Quantile(1))
	}
}

// TestTracingPreservesCrawl is the seam wrappers' contract: wrapping
// Clock, Discovery, Dialer and Sink changes nothing the crawl does.
func TestTracingPreservesCrawl(t *testing.T) {
	run := func(tr *Tracer) simRound {
		c, err := setupCrawlSim(testSizes, 7, tr)
		if err != nil {
			t.Fatal(err)
		}
		r := c.run(testSizes, tr)
		for _, bad := range r.check(testSizes) {
			t.Error(bad)
		}
		return r
	}
	plain := run(nil)
	tr := NewTracer()
	traced := run(tr)
	if plain.conns != traced.conns || plain.logBytes != traced.logBytes || plain.events != traced.events {
		t.Errorf("traced crawl: %d conns, %d bytes, %d events; untraced: %d, %d, %d",
			traced.conns, traced.logBytes, traced.events, plain.conns, plain.logBytes, plain.events)
	}
	if plain.conns == 0 {
		t.Fatal("the crawl logged nothing")
	}

	// One goroutine runs everything under Advance, so the self times of
	// its spans partition the crawl wall.
	st := tr.Stats()
	sum := 0.0
	for name, s := range st {
		if name != spanFlush { // the flusher's goroutine runs beside the crawl
			sum += s.SelfS
		}
	}
	if sum < 0.98*traced.wallS || sum > traced.wallS {
		t.Errorf("self times sum to %.4f s of a %.4f s crawl", sum, traced.wallS)
	}
	if got := st[spanRecord].Count; got != traced.conns {
		t.Errorf("%d mlog.record spans for %d conns", got, traced.conns)
	}
	if st[spanDial].Count < st[spanDialDone].Count || st[spanDialDone].Count != traced.conns {
		t.Errorf("%d dials, %d completions, %d conns", st[spanDial].Count, st[spanDialDone].Count, traced.conns)
	}
}

// TestStagedDialerMatchesRealDialer pins the traced stand-in to the
// dialer it stands in for: same world, same node, same result.
func TestStagedDialerMatchesRealDialer(t *testing.T) {
	const seed = 11
	key, hello, status, err := wireIdentity(seed)
	if err != nil {
		t.Fatal(err)
	}
	dialAll := func(mk func(dial dialFunc) nodefinder.Dialer) []*nodefinder.DialResult {
		w := newWireWorld(testSizes.WireNodes, seed)
		defer w.CloseWire()
		d := mk(w.DialWire)
		out := make([]*nodefinder.DialResult, len(w.Nodes))
		for i, n := range w.Nodes {
			ch := make(chan *nodefinder.DialResult, 1)
			d.Dial(n.Node, mlog.ConnDynamicDial, func(res *nodefinder.DialResult) { ch <- res })
			out[i] = <-ch
		}
		return out
	}
	real := dialAll(func(dial dialFunc) nodefinder.Dialer {
		return &nodefinder.RealDialer{Key: key, Hello: hello, Status: status, CheckDAO: true, DialFunc: dial}
	})
	tr := NewTracer()
	staged := dialAll(func(dial dialFunc) nodefinder.Dialer {
		return newStagedDialer(tr, key, hello, status, dial)
	})

	classes := map[string]int{}
	for i := range real {
		a, b := real[i], staged[i]
		ca, cb := nodefinder.OutcomeClass(a), nodefinder.OutcomeClass(b)
		classes[ca]++
		if ca != cb {
			t.Errorf("node %d: RealDialer %s (%v), staged %s (%v)", i, ca, a.Err, cb, b.Err)
			continue
		}
		if !reflect.DeepEqual(a.Hello, b.Hello) || !reflect.DeepEqual(a.Status, b.Status) {
			t.Errorf("node %d: HELLO or STATUS differ:\n real   %+v %+v\n staged %+v %+v", i, a.Hello, a.Status, b.Hello, b.Status)
		}
		if a.DAOChecked != b.DAOChecked || a.DAOFork != b.DAOFork {
			t.Errorf("node %d: DAO verdict real %v/%v, staged %v/%v", i, a.DAOChecked, a.DAOFork, b.DAOChecked, b.DAOFork)
		}
	}
	if classes["eth-handshake"] == 0 || classes["hello-no-eth"] == 0 || len(classes) != 2 {
		t.Errorf("outcome classes %v: want only eth-handshake and hello-no-eth, both present", classes)
	}
	st := tr.Stats()
	if got := st[spanWireDial].Count; got != int64(len(real)) {
		t.Errorf("%d dial spans for %d dials", got, len(real))
	}
	if st[spanHandshake].Count != int64(len(real)) || st[spanStatus].Count != int64(classes["eth-handshake"]) {
		t.Errorf("stage spans: %d handshakes, %d status exchanges for %v", st[spanHandshake].Count, st[spanStatus].Count, classes)
	}
}

// TestWorkloads runs every workload small, untraced and traced, and
// checks that each is correct and reports every metric of its mode.
func TestWorkloads(t *testing.T) {
	probes := map[string]float64{}
	runProbes(3, probes, 50)
	for name, v := range probes {
		if m, ok := metricByName(name); !ok || m.Bound != 0 {
			t.Errorf("probe metric %s is not a per-layer metric", name)
		}
		if v <= 0 && !strings.HasSuffix(name, "_allocs") {
			t.Errorf("probe %s measured %v", name, v)
		}
	}

	for _, w := range Workloads {
		for _, trace := range []bool{false, true} {
			o := Options{Workload: w.Name, Seed: 5, Seconds: 0.4, Trace: trace, Sizes: testSizes, OutDir: t.TempDir()}
			var out *Outcome
			var err error
			switch w.Name { // Run minus the full-size probes
			case "crawl-sim":
				out, err = runCrawlSim(o)
			case "crawl-wire":
				out, err = runCrawlWire(o)
			case "census-publish":
				out, err = runCensusPublish(o)
			case "census-serve":
				out, err = runCensusServe(o)
			}
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			for _, f := range out.Failures {
				t.Errorf("%s trace=%v: %s", w.Name, trace, f)
			}
			if out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed", w.Name, trace, out.Failed, out.Attempted)
			}
			if trace {
				for name := range out.Metrics {
					if m, ok := metricByName(name); !ok || m.Bound != 0 {
						t.Errorf("%s reports %s, which is not a per-layer metric", w.Name, name)
					}
					if _, dup := probes[name]; dup {
						t.Errorf("%s and the probes both report %s", w.Name, name)
					}
				}
				if _, err := os.Stat(o.OutDir + "/trace-" + w.Name + ".json"); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
				for k, v := range probes {
					out.Metrics[k] = v
				}
				for _, m := range PerLayer { // what Run does for bypassed layers
					if _, ok := out.Metrics[m.Name]; !ok {
						out.Metrics[m.Name] = 0
					}
				}
			}
			line, err := out.Line(trace)
			if err != nil {
				t.Errorf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !trace {
				for name, v := range line.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v; they are never 0", w.Name, name, v.Value)
					}
				}
			}
		}
	}

	// Every per-layer metric has a producer: a probe or some workload's
	// trace. (Checked by name here; TestWorkloads above checked values.)
	if _, err := Run(Options{Workload: "no-such"}); err == nil {
		t.Error("an unknown workload must be an error")
	}
}

func TestLineNeedsEveryMetric(t *testing.T) {
	o := newOutcome()
	o.e2e([]float64{1}, 2, 3, 4, 5, 6<<20)
	if _, err := o.Line(false); err != nil {
		t.Errorf("complete outcome: %v", err)
	}
	delete(o.Metrics, "result_s")
	if _, err := o.Line(false); err == nil {
		t.Error("a missing metric must fail the run, not vanish from its result")
	}
	o.Metrics["result_s"] = math.Inf(1)
	if _, err := o.Line(false); err == nil {
		t.Error("an infinite metric must fail the run")
	}
}

func report(seed int64, mutate func(map[string]Measured, map[string]Measured)) *Report {
	e2e := map[string]Measured{}
	for _, m := range EndToEnd {
		e2e[m.Name] = Measured{Value: 100, Unit: m.Unit, Runs: []float64{99, 100, 101, 100, 100}}
	}
	layer := map[string]Measured{"mlog.records": {Value: 1000, Unit: "count"}, "trace.spans": {Value: 7, Unit: "count"}}
	if mutate != nil {
		mutate(e2e, layer)
	}
	return &Report{Seed: seed, Workloads: []WorkloadReport{{Name: "crawl-sim", Correct: true, EndToEnd: e2e, PerLayer: layer}}}
}

func TestCompare(t *testing.T) {
	verdict := func(c *Comparison, metric string) string {
		for _, r := range c.Rows {
			if r.Metric == metric {
				return r.Verdict
			}
		}
		return "missing"
	}
	base := report(42, nil)

	same := Compare(base, report(42, nil))
	if !same.OK() || verdict(same, "ops_per_s") != Pass || len(same.Rows) != len(EndToEnd) {
		t.Errorf("identical reports: %+v", same)
	}

	// ops_per_s is better when higher: 60 is a 40 % regression.
	slower := Compare(base, report(42, func(e, _ map[string]Measured) {
		e["ops_per_s"] = Measured{Value: 60, Runs: []float64{60, 60, 61, 59, 60}}
		e["result_s"] = Measured{Value: 70, Runs: []float64{70, 70, 71, 69, 70}} // lower is better: a gain
	}))
	if slower.OK() || verdict(slower, "ops_per_s") != Regress || verdict(slower, "result_s") != Pass {
		t.Errorf("40 %% slower: ops_per_s %s, result_s %s", verdict(slower, "ops_per_s"), verdict(slower, "result_s"))
	}

	// A spread wider than the bound resolves nothing, whatever the medians.
	noisy := Compare(base, report(42, func(e, _ map[string]Measured) {
		e["ops_per_s"] = Measured{Value: 60, Runs: []float64{30, 60, 120, 40, 110}}
	}))
	if verdict(noisy, "ops_per_s") != Unresolved || !noisy.OK() {
		t.Errorf("noisy set: %s", verdict(noisy, "ops_per_s"))
	}

	// Exact counts must agree between two sets of one seed; trace.spans is
	// not exact, and another seed is another workload.
	counts := func(_, l map[string]Measured) {
		l["mlog.records"] = Measured{Value: 1001, Unit: "count"}
		l["trace.spans"] = Measured{Value: 9, Unit: "count"}
	}
	if c := Compare(base, report(42, counts)); c.OK() || len(c.CountMismatches) != 1 {
		t.Errorf("differing exact count: %v", c.CountMismatches)
	}
	if c := Compare(base, report(7, counts)); !c.OK() {
		t.Errorf("different seeds must not compare counts: %v", c.CountMismatches)
	}
}

// TestManifestMatchesBenchmarkJSON keeps BENCHMARK.json and the tables
// in spec.go identical, and inside the driver's limits.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, inCode any
	if err := json.Unmarshal(buf, &onDisk); err != nil {
		t.Fatal(err)
	}
	mine, _ := json.Marshal(TheManifest())
	json.Unmarshal(mine, &inCode) //nolint:errcheck // just marshaled
	if !reflect.DeepEqual(onDisk, inCode) {
		t.Errorf("BENCHMARK.json differs from bench.TheManifest(); regenerate it:\n%s", mine)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(EndToEnd) > 16 || len(PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(EndToEnd), len(PerLayer))
	}
	widest := 0.0
	for _, m := range EndToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		widest = math.Max(widest, m.Bound)
	}
	if s, ok := metricByName("setup_s"); !ok || s.Unit != "s" || s.Better != "lower" || s.Bound != widest {
		t.Errorf("setup_s must exist, in s, lower-is-better, with the largest bound: %+v", s)
	}
	for _, m := range append(append([]Metric{}, EndToEnd...), PerLayer...) {
		if !unit.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range PerLayer {
		check(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics have no bound", m.Name)
		}
	}
}
