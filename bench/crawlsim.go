package bench

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/nodefinder"
	"repro/internal/nodefinder/mlog"
	"repro/internal/simnet"
)

// crawl-sim: the scheduler/bookkeeping-bound workload. An analytic
// world is crawled with the synthetic dialer for a fixed virtual
// horizon, so simclock, nodefinder, nodedb, simnet's lifecycle and mlog
// do all the work and the wire stack does none. The horizon is fixed
// (not "stop at 99 %") so the work per round is constant and covers a
// full day of static re-dials and the 24 h stale sweep.

const simStep = 30 * time.Minute

// distinctSink counts records and distinct node ids behind the
// Batcher (so the map insert stays off the dial path) and stamps the
// wall time at which the distinct count reaches the census target.
type distinctSink struct {
	mu        sync.Mutex
	seen      map[string]struct{}
	total     int64
	target    int
	reachedAt time.Time
}

func (s *distinctSink) Record(e *mlog.Entry) {
	s.mu.Lock()
	s.total++
	if _, ok := s.seen[e.NodeID]; !ok {
		s.seen[e.NodeID] = struct{}{}
		if len(s.seen) == s.target {
			s.reachedAt = time.Now()
		}
	}
	s.mu.Unlock()
}

// countingWriter is the discard end of the JSON log: it keeps the
// byte and line totals that make two runs comparable exactly.
type countingWriter struct{ bytes, lines int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.bytes += int64(len(p))
	w.lines += int64(bytes.Count(p, []byte{'\n'}))
	return len(p), nil
}

// simCrawl is one set-up world ready to be crawled.
type simCrawl struct {
	world    *simnet.World
	finder   *nodefinder.Finder
	reg      *metrics.Registry
	distinct *distinctSink
	out      *countingWriter
	writer   *mlog.Writer
	batch    *mlog.Batcher

	// The advancing goroutine's and the flusher's span stacks; nil when
	// untraced.
	th, flushTh *Thread
}

func setupCrawlSim(sz Sizes, seed int64, tr *Tracer) (*simCrawl, error) {
	cfg := simnet.DefaultConfig(seed)
	cfg.BaseNodes = sz.SimNodes
	cfg.AbusiveIPs = 0 // a fixed census target: no identities minted mid-crawl
	c := &simCrawl{world: simnet.NewWorld(cfg), reg: metrics.New(), out: &countingWriter{}}
	c.distinct = &distinctSink{
		seen:   make(map[string]struct{}, sz.SimNodes),
		target: (sz.SimNodes*99 + 99) / 100,
	}
	c.writer = mlog.NewWriter(c.out)

	dialer := c.world.NewDialer(seed + 2)
	dialer.Metrics = nodefinder.NewDialerMetrics(c.reg)
	fc := nodefinder.Config{
		Clock:     c.world.Clock,
		Discovery: c.world.NewDiscovery(seed + 1),
		Dialer:    dialer,
		Metrics:   c.reg,
		Seed:      seed + 3,
		// DialShards/ShardQueueCap stay at their defaults on purpose:
		// the knob is a deletion candidate and the bench must not pin it.
		LookupWorkers:   16,
		MaxDynamicDials: 256,
	}
	c.th, c.flushTh = tr.NewThread(), tr.NewThread()
	var flush mlog.Sink = c.writer
	if tr != nil {
		flush = newTracedSink(flush, tr, c.flushTh, spanFlush)
	}
	c.batch = mlog.NewBatcher(mlog.Tee{c.distinct, flush})
	fc.Log = c.batch
	if tr != nil {
		fc.Clock = newTracedClock(fc.Clock, tr, c.th)
		fc.Discovery = newTracedDiscovery(fc.Discovery, tr, c.th)
		fc.Dialer = newTracedDialer(fc.Dialer, tr, c.th)
		fc.Log = newTracedSink(fc.Log, tr, c.th, spanRecord)
	}
	var err error
	c.finder, err = nodefinder.New(fc)
	return c, err
}

// simRound is what one crawl measured.
type simRound struct {
	wallS     float64
	census99S float64
	conns     int64
	logBytes  int64
	distinct  int
	events    int64
	mallocs   uint64
	steps     *Samples // wall of each 30-virtual-minute step

	stats      nodefinder.Stats
	lookups    uint64
	dropped    uint64
	counterSum uint64
	logLines   int64
}

// run crawls the world for the fixed virtual horizon.
func (c *simCrawl) run(sz Sizes, tr *Tracer) simRound {
	steps := sz.SimHours * int(time.Hour/simStep)
	r := simRound{steps: NewSamples(steps)}
	kAdvance, kHarness := tr.Kind(spanAdvance), tr.Kind(spanHarness)

	m0 := mallocs()
	start := time.Now()
	c.th.Begin(kHarness)
	c.finder.Start()
	c.th.Pop()
	for i := 0; i < steps; i++ {
		t0 := time.Now()
		c.th.Begin(kAdvance)
		r.events += int64(c.world.Clock.Advance(simStep))
		c.th.Pop()
		r.steps.Add(int64(time.Since(t0)))
	}
	c.th.Begin(kHarness)
	c.finder.Stop()
	c.batch.Close()
	c.writer.Flush() //nolint:errcheck // the sink is an in-memory counter
	c.th.Pop()
	r.wallS = time.Since(start).Seconds()
	r.mallocs = mallocs() - m0
	c.th.Close()
	c.flushTh.Close()

	r.conns = c.distinct.total
	r.distinct = len(c.distinct.seen)
	if !c.distinct.reachedAt.IsZero() {
		r.census99S = c.distinct.reachedAt.Sub(start).Seconds()
	}
	r.logBytes, r.logLines = c.out.bytes, c.out.lines
	snap := c.reg.Snapshot()
	r.counterSum = snap.CounterSum("finder.conns")
	r.lookups = snap.Counter("finder.lookups")
	r.dropped = snap.Counter("finder.queue_dropped")
	r.stats = c.finder.Stats()
	return r
}

// check applies the workload's correctness rules and returns one line
// per violation.
func (r *simRound) check(sz Sizes) []string {
	var bad []string
	if uint64(r.conns) != r.counterSum || r.conns != r.logLines {
		bad = append(bad, fmt.Sprintf("crawl-sim: finder.conns %d, mlog records %d and written lines %d disagree",
			r.counterSum, r.conns, r.logLines))
	}
	if r.distinct != sz.SimNodes {
		bad = append(bad, fmt.Sprintf("crawl-sim: %d of %d nodes dialed by the horizon", r.distinct, sz.SimNodes))
	}
	if r.census99S <= 0 {
		bad = append(bad, "crawl-sim: census never reached 99 %")
	}
	return bad
}

func runCrawlSim(o Options) (*Outcome, error) {
	out := newOutcome()
	var rounds []simRound
	var setups []float64
	one := func(tr *Tracer) (simRound, error) {
		t0 := time.Now()
		c, err := setupCrawlSim(o.Sizes, o.Seed, tr)
		if err != nil {
			return simRound{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		r := c.run(o.Sizes, tr)
		out.fail(r.check(o.Sizes)...)
		out.Attempted += int64(o.Sizes.SimNodes)
		out.Failed += int64(o.Sizes.SimNodes - r.distinct)
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
		if r.conns != base.conns || r.logBytes != base.logBytes {
			out.fail(fmt.Sprintf("crawl-sim: tracing changed the crawl: %d conns/%d bytes traced, %d/%d untraced",
				r.conns, r.logBytes, base.conns, base.logBytes))
		}
		st := tr.Stats()
		share := func(name string) float64 { return st[name].SelfS / r.wallS }
		sum := 0.0
		for name, metric := range map[string]string{
			spanAdvance:    "simclock.advance_self_share",
			spanTimer:      "nodefinder.timer_self_share",
			spanLookupDone: "nodefinder.lookup_done_self_share",
			spanDialDone:   "nodefinder.dial_done_self_share",
			spanLookup:     "simnet.lookup_share",
			spanDial:       "simnet.dial_share",
			spanRecord:     "mlog.record_share",
			spanHarness:    "trace.harness_share",
		} {
			out.Metrics[metric] = share(name)
			sum += share(name)
		}
		out.Metrics["trace.self_sum_share"] = sum
		out.Metrics["mlog.flush_share"] = share(spanFlush)
		out.Metrics["simclock.events"] = float64(r.events)
		out.Metrics["nodefinder.lookups"] = float64(r.lookups)
		out.Metrics["nodefinder.dials_dynamic"] = float64(r.stats.DynamicDials)
		out.Metrics["nodefinder.dials_static"] = float64(r.stats.StaticDials)
		out.Metrics["nodefinder.queue_dropped"] = float64(r.dropped)
		out.Metrics["simnet.lookup_calls"] = float64(st[spanLookup].Count)
		out.Metrics["simnet.dial_calls"] = float64(st[spanDial].Count)
		out.Metrics["mlog.records"] = float64(r.conns)
		out.Metrics["mlog.bytes"] = float64(r.logBytes)
		out.Metrics["trace.spans"] = float64(tr.Spans())
		out.Metrics["trace.overhead_share"] = (r.wallS - base.wallS) / base.wallS
		out.note("crawl-sim traced: wall %.3f s (untraced %.3f s), %d spans, layer self times sum to %.4f of wall",
			r.wallS, base.wallS, tr.Spans(), sum)
		return out, o.writeTrace(tr, "crawl-sim", r.wallS)
	}

	warmSetups(func() error { _, err := setupCrawlSim(o.Sizes, o.Seed, nil); return err }, &setups)
	err := repeatRounds(o.Seconds, func() (float64, error) {
		r, err := one(nil)
		rounds = append(rounds, r)
		return r.wallS, err
	})
	if err != nil {
		return nil, err
	}
	rss := peakRSS()
	stepSamples := make([]*Samples, len(rounds))
	var rate, c99, allocs []float64
	for i, r := range rounds {
		stepSamples[i] = r.steps
		rate = append(rate, float64(r.conns)/r.wallS)
		c99 = append(c99, r.census99S)
		allocs = append(allocs, float64(r.mallocs)/float64(r.conns))
		if r.conns != rounds[0].conns || r.logBytes != rounds[0].logBytes {
			out.fail("crawl-sim: rounds of one seed disagree on conns or log bytes")
		}
	}
	steps := MergeSamples(stepSamples...)
	out.e2e(setups, Median(rate), steps.Quantile(0.5)/1e3, Median(c99), Median(allocs), rss)
	r := rounds[0]
	out.note("crawl-sim: %d rounds; per round %d nodes, %d virtual hours, %d conns, %d log bytes, %d clock events; step p50 over n=%d",
		len(rounds), o.Sizes.SimNodes, o.Sizes.SimHours, r.conns, r.logBytes, r.events, steps.Len())
	return out, nil
}
