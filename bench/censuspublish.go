package bench

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/census"
	"repro/internal/geo"
	"repro/internal/nodefinder"
	"repro/internal/nodefinder/mlog"
	"repro/internal/simclock"
	"repro/internal/simnet"
)

// census-publish: the write side of the census. A crawl log is
// replayed, epoch by epoch, into a fresh census.Daemon, which
// republishes after every epoch; then the same log goes through the
// offline analysis path (cmd/analyze's Aggregate + EpochSeries) a few
// times. Both use the analysis layer, differently: one pass here,
// one rebuild per epoch there — so a fold that speeds the daemon but
// slows offline analysis shows, and so does the reverse.

// crawlLog crawls an analytic world for the given virtual hours into
// memory: the census workloads' input generator.
func crawlLog(nodes, hours int, seed int64) (*simnet.World, []*mlog.Entry, error) {
	cfg := simnet.DefaultConfig(seed)
	cfg.BaseNodes = nodes
	cfg.AbusiveIPs = 0
	w := simnet.NewWorld(cfg)
	log := mlog.NewCollector()
	f, err := nodefinder.New(nodefinder.Config{
		Clock:           w.Clock,
		Discovery:       w.NewDiscovery(seed + 1),
		Dialer:          w.NewDialer(seed + 2),
		Log:             log,
		Seed:            seed + 3,
		LookupWorkers:   4,
		MaxDynamicDials: 64,
	})
	if err != nil {
		return nil, nil, err
	}
	f.Start()
	w.Clock.Advance(time.Duration(hours) * time.Hour)
	f.Stop()
	entries := log.Entries()
	// Entries are logged when a dial ends but carry its start time; the
	// replay feeds the daemon in time order.
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Time.Before(entries[j].Time) })
	return w, entries, nil
}

// publishInput is one set-up: the log, cut into epochs, and a started
// daemon that has published its (empty) epoch 0.
type publishInput struct {
	start   time.Time
	entries []*mlog.Entry
	cuts    []int // entries[cuts[i]:cuts[i+1]] belong to epoch i
	clock   *simclock.Simulated
	daemon  *census.Daemon
}

func setupCensusPublish(sz Sizes, seed int64) (*publishInput, error) {
	w, entries, err := crawlLog(sz.PublishNodes, sz.PublishHours, seed)
	if err != nil {
		return nil, err
	}
	in := &publishInput{start: w.Cfg.Start, entries: entries}
	epochs := sz.PublishHours * int(time.Hour/census.DefaultInterval)
	in.cuts = make([]int, epochs+1)
	for i := 1; i <= epochs; i++ {
		end := in.start.Add(time.Duration(i) * census.DefaultInterval)
		in.cuts[i] = sort.Search(len(entries), func(k int) bool { return !entries[k].Time.Before(end) })
	}
	in.clock = simclock.NewSimulated(in.start)
	in.daemon = census.NewDaemon(census.DaemonConfig{Clock: in.clock, Geo: geo.NewDB()})
	in.daemon.Start()
	return in, nil
}

// publishRound is what one replay plus the offline passes measured.
type publishRound struct {
	publishNS []float64 // wall of every Advance, in epoch order
	analyzeS  []float64
	replayS   float64
	mallocs   uint64
	entries   int
	checked   int
	failed    int
	bad       []string
}

func (in *publishInput) run(sz Sizes, tr *Tracer) publishRound {
	epochs := len(in.cuts) - 1
	r := publishRound{entries: in.cuts[epochs]}
	th := tr.NewThread()
	kRecord, kPublish := tr.Kind(spanCensusRecord), tr.Kind(spanCensusPublish)

	m0 := mallocs()
	t0 := time.Now()
	for i := 0; i < epochs; i++ {
		th.Begin(kRecord)
		for _, e := range in.entries[in.cuts[i]:in.cuts[i+1]] {
			in.daemon.Record(e)
		}
		th.Pop()
		began := time.Now()
		th.Begin(kPublish)
		in.clock.Advance(census.DefaultInterval)
		th.Pop()
		r.publishNS = append(r.publishNS, float64(time.Since(began)))
	}
	r.replayS = time.Since(t0).Seconds()
	r.mallocs = mallocs() - m0
	th.Close()
	in.daemon.Stop()

	log := in.entries[:in.cuts[epochs]]
	var nodes map[string]*analysis.NodeObservation
	var series []analysis.EpochPoint
	for i := 0; i < sz.AnalyzePasses; i++ {
		a := time.Now()
		nodes = analysis.Aggregate(log)
		series = analysis.EpochSeries(log, in.start, census.DefaultInterval, epochs-1)
		r.analyzeS = append(r.analyzeS, time.Since(a).Seconds())
	}
	r.check(in, nodes, series)
	return r
}

// check reconciles what the daemon serves with the offline analysis of
// the same log: the churn series point for point, and the identity
// total.
func (r *publishRound) check(in *publishInput, nodes map[string]*analysis.NodeObservation, series []analysis.EpochPoint) {
	snap := in.daemon.Current()
	epochs := len(in.cuts) - 1
	if snap == nil || int(snap.Epoch) != epochs {
		r.bad = append(r.bad, fmt.Sprintf("census-publish: daemon is not at epoch %d", epochs))
		r.checked, r.failed = 1, 1
		return
	}
	rec := httptest.NewRecorder()
	census.NewHandler(census.ServerConfig{Source: in.daemon}).ServeHTTP(rec,
		httptest.NewRequest(http.MethodGet, "/v1/series/churn", nil))
	var served struct {
		Points []analysis.EpochPoint `json:"points"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &served); err != nil || rec.Code != http.StatusOK {
		r.bad = append(r.bad, fmt.Sprintf("census-publish: GET /v1/series/churn: status %d, %v", rec.Code, err))
		r.checked, r.failed = 1, 1
		return
	}
	r.checked = len(series)
	if len(served.Points) != len(series) {
		r.bad = append(r.bad, fmt.Sprintf("census-publish: served %d series points, offline analysis has %d", len(served.Points), len(series)))
		r.failed = r.checked
		return
	}
	for i := range series {
		if !samePoint(served.Points[i], series[i]) {
			r.failed++
			if r.failed <= 3 {
				r.bad = append(r.bad, fmt.Sprintf("census-publish: epoch %d served %+v, offline %+v", i, served.Points[i], series[i]))
			}
		}
	}
	if snap.Totals.Identities != len(nodes) {
		r.bad = append(r.bad, fmt.Sprintf("census-publish: %d identities served, %d in the log", snap.Totals.Identities, len(nodes)))
	}
}

// samePoint compares two series points; the served one went through
// JSON, so times are compared as instants.
func samePoint(a, b analysis.EpochPoint) bool {
	return a.Epoch == b.Epoch && a.Start.Equal(b.Start) && a.End.Equal(b.End) &&
		a.Alive == b.Alive && a.Arrived == b.Arrived && a.Departed == b.Departed && a.Changed == b.Changed
}

func runCensusPublish(o Options) (*Outcome, error) {
	out := newOutcome()
	var setups []float64
	one := func(tr *Tracer) (publishRound, error) {
		t0 := time.Now()
		in, err := setupCensusPublish(o.Sizes, o.Seed)
		if err != nil {
			return publishRound{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		r := in.run(o.Sizes, tr)
		out.fail(r.bad...)
		out.Attempted += int64(r.checked)
		out.Failed += int64(r.failed)
		return r, nil
	}

	if o.Trace {
		base, err := one(nil)
		if err != nil {
			return nil, err
		}
		tr := NewTracer()
		r, err := one(tr)
		if err != nil {
			return nil, err
		}
		st := tr.Stats()
		n := len(r.publishNS)
		k := min(8, n)
		out.Metrics["census.record_share"] = st[spanCensusRecord].TotalS / r.replayS
		out.Metrics["census.publish_share"] = st[spanCensusPublish].TotalS / r.replayS
		out.Metrics["census.publish_growth"] = Median(r.publishNS[n-k:]) / Median(r.publishNS[:k])
		out.Metrics["census.entries"] = float64(r.entries)
		out.Metrics["census.publishes"] = float64(n)
		out.Metrics["trace.spans"] = float64(tr.Spans())
		out.Metrics["trace.overhead_share"] = (r.replayS - base.replayS) / base.replayS
		out.note("census-publish traced: replay %.3f s (untraced %.3f s); publish first-%d median %.1f ms, last-%d median %.1f ms",
			r.replayS, base.replayS, k, Median(r.publishNS[:k])/1e6, k, Median(r.publishNS[n-k:])/1e6)
		return out, o.writeTrace(tr, "census-publish", r.replayS)
	}

	warmSetups(func() error { _, err := setupCensusPublish(o.Sizes, o.Seed); return err }, &setups)
	var rounds []publishRound
	err := repeatRounds(o.Seconds, func() (float64, error) {
		r, err := one(nil)
		rounds = append(rounds, r)
		return r.replayS, err
	})
	if err != nil {
		return nil, err
	}
	rss := peakRSS()
	var rate, analyze, allocs, all []float64
	for _, r := range rounds {
		total := 0.0
		for _, ns := range r.publishNS {
			total += ns / 1e9
		}
		rate = append(rate, float64(len(r.publishNS))/total)
		analyze = append(analyze, Median(r.analyzeS))
		allocs = append(allocs, float64(r.mallocs)/float64(len(r.publishNS)))
		all = append(all, r.publishNS...)
	}
	out.e2e(setups, Median(rate), Median(all)/1e3, Median(analyze), Median(allocs), rss)
	r := rounds[0]
	n := len(r.publishNS)
	k := min(8, n)
	out.note("census-publish: %d rounds of %d publishes over %d entries; publish p50 over n=%d; last-%d median %.1f ms; analyze median of %d passes",
		len(rounds), n, r.entries, len(all), k, Median(r.publishNS[n-k:])/1e6, len(r.analyzeS))
	return out, nil
}
