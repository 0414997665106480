package bench

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/census"
	"repro/internal/chain"
	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/nodefinder/mlog"
	"repro/internal/simclock"
)

// census-serve: the read side of the census, racing writes. Two
// closed-loop clients call the handler's ServeHTTP directly (no
// sockets) on cmd/benchserve's request mix while a publisher records
// an entry and advances one epoch every 500 ms of wall time. Ten
// thousand goroutines on two cores measured the Go scheduler; two
// clients measure the handler.
//
// The issue sized the publisher at 250 ms. A publish under read load
// takes ≈ 165 ms here, so at 250 ms one of the two cores spent two
// thirds of its time publishing; when the host slowed by a fifth the
// publisher saturated (every publish late, back to back) and request
// throughput fell by 45 %. At 500 ms the duty cycle is a third, and
// machine noise is no longer amplified by a cliff. (Sizes.Republish.)

const (
	serveClients    = 2
	generatorLateBy = 50 * time.Millisecond
	// samplesPerSecond sizes each client's preallocated latency recorder
	// (several times the measured rate; untouched pages cost no RSS).
	// Beyond it samples are dropped and the drop is reported.
	samplesPerSecond = 1_000_000
)

var serveT0 = time.Date(2018, 4, 18, 0, 0, 0, 0, time.UTC)

// servePopulation synthesizes cmd/benchserve's deterministic log:
// identities spread across three epochs with a realistic client and
// network mix, a churn tail that departs after the first window, and
// late arrivals.
func servePopulation(n int, seed int64, interval time.Duration) []*mlog.Entry {
	rng := rand.New(rand.NewSource(seed))
	mainnet := chain.MainnetGenesisHash.Hex()
	var weighted []string
	for _, c := range []struct {
		name   string
		weight int
	}{
		{"Geth/v1.8.10-stable/linux-amd64/go1.10", 40},
		{"Geth/v1.8.11-stable/linux-amd64/go1.10", 20},
		{"Geth/v1.8.2-unstable/linux-amd64/go1.10", 7},
		{"Parity-Ethereum/v1.10.6-stable", 22},
		{"Parity-Ethereum/v1.11.1-beta", 5},
		{"cpp-ethereum/v1.3.0", 3},
		{"EthereumJ/v1.8.1", 3},
	} {
		for i := 0; i < c.weight; i++ {
			weighted = append(weighted, c.name)
		}
	}

	var entries []*mlog.Entry
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%040x", i)
		ip := fmt.Sprintf("%d.%d.%d.%d", 1+rng.Intn(220), rng.Intn(256), rng.Intn(256), 1+rng.Intn(254))
		client := weighted[rng.Intn(len(weighted))]
		if rng.Intn(10) == 0 { // never answers: exists only as a failed dial
			entries = append(entries, &mlog.Entry{
				Time: serveT0.Add(time.Duration(rng.Int63n(int64(interval)))), NodeID: id, IP: ip,
				ConnType: mlog.ConnDynamicDial, Err: "connection refused",
			})
			continue
		}
		windows := []int{0}
		switch {
		case rng.Intn(4) == 0: // one-shots: first window only
		case rng.Intn(8) == 0: // late arrivals
			windows = []int{1, 2}
		default: // steady population
			windows = []int{0, 1, 2}
		}
		for _, wi := range windows {
			e := &mlog.Entry{
				Time:   serveT0.Add(time.Duration(wi)*interval + time.Duration(rng.Int63n(int64(interval)))),
				NodeID: id, IP: ip, ConnType: mlog.ConnDynamicDial,
				LatencyUS: 500 + rng.Int63n(400_000),
				Hello:     &mlog.HelloInfo{Version: 5, ClientName: client, Caps: []string{"eth/63"}},
			}
			switch { // 85 % Mainnet; the rest impostors and altnets
			case rng.Intn(100) < 85:
				e.Status = &mlog.StatusInfo{ProtocolVersion: 63, NetworkID: 1, GenesisHash: mainnet,
					BestBlock: 5_500_000 + uint64(rng.Intn(60_000))}
				e.DAOFork = "supported"
			case rng.Intn(2) == 0:
				e.Status = &mlog.StatusInfo{ProtocolVersion: 63, NetworkID: uint64(2 + rng.Intn(5000)), GenesisHash: mainnet}
				e.DAOFork = "unknown"
			default:
				e.Status = &mlog.StatusInfo{ProtocolVersion: 63, NetworkID: uint64(2 + rng.Intn(50)),
					GenesisHash: fmt.Sprintf("%064x", rng.Int63())}
			}
			entries = append(entries, e)
		}
	}
	return entries
}

// servedCensus is one set-up: a daemon serving three finalized windows.
type servedCensus struct {
	clock   *simclock.Simulated
	daemon  *census.Daemon
	handler http.Handler
	ids     []string
}

func setupCensusServe(population int, seed int64) *servedCensus {
	s := &servedCensus{clock: simclock.NewSimulated(serveT0)}
	reg := metrics.New()
	s.daemon = census.NewDaemon(census.DaemonConfig{Clock: s.clock, Geo: geo.NewDB(), Metrics: reg})
	for _, e := range servePopulation(population, seed, census.DefaultInterval) {
		s.daemon.Record(e)
	}
	s.daemon.Start()
	s.clock.Advance(4 * census.DefaultInterval)
	s.handler = census.NewHandler(census.ServerConfig{Source: s.daemon, Metrics: reg})
	s.ids = s.daemon.Current().NodeIDs()
	return s
}

// Request classes of the mix.
const (
	reqCached = iota // 60 %: a pre-marshaled body
	req304           // 20 %: If-None-Match revalidation of /v1/summary
	reqNode          // 15 %: /v1/nodes/{id}
	reqSeries        //  5 %: /v1/series/churn?last=3
	numReqClasses
)

var (
	reqClassNames = [numReqClasses]string{"cached", "304", "node", "series"}
	reqClassShare = [numReqClasses]float64{0.60, 0.20, 0.15, 0.05}
)

var cachedTargets = []string{
	"/", "/v1/summary", "/v1/clients", "/v1/geo", "/v1/networks", "/v1/series/churn", "/v1/series/arrivals",
}

// discardWriter is a reusable ResponseWriter that drops bodies but
// keeps status, headers and the byte count.
type discardWriter struct {
	h      http.Header
	status int
	bytes  int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(c int)           { w.status = c }
func (w *discardWriter) Write(p []byte) (int, error) { w.bytes += len(p); return len(p), nil }
func (w *discardWriter) reset() {
	clear(w.h)
	w.status, w.bytes = http.StatusOK, 0
}

// serveClient is one closed-loop client: its request generator, its
// reusable request and writer, and what it saw.
type serveClient struct {
	rng  *rand.Rand
	req  *http.Request
	w    *discardWriter
	etag string

	all      *Samples
	byClass  [numReqClasses]*Samples // traced runs only
	requests int64
	perClass [numReqClasses]int64
	failed   int64
	epochs   uint64 // last epoch seen; must never decrease
	backward int64
}

func newServeClient(seed int64, seconds float64, perClass bool) *serveClient {
	c := &serveClient{
		rng: rand.New(rand.NewSource(seed)),
		w:   &discardWriter{h: make(http.Header, 8)},
		req: &http.Request{
			Method: http.MethodGet, URL: &url.URL{Path: "/"},
			Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header: make(http.Header, 2), Host: "bench.local", Body: http.NoBody,
		},
		all: NewSamples(int(seconds * samplesPerSecond)),
	}
	if perClass {
		for i, share := range reqClassShare {
			c.byClass[i] = NewSamples(int(seconds * samplesPerSecond * share))
		}
	}
	return c
}

// prepare points the reusable request at one target of the class.
func (c *serveClient) prepare(s *servedCensus, class int) {
	c.req.Header.Del("If-None-Match")
	c.req.URL.RawQuery = ""
	switch class {
	case reqCached:
		c.req.URL.Path = cachedTargets[c.rng.Intn(len(cachedTargets))]
	case req304:
		c.req.URL.Path = "/v1/summary"
		if c.etag != "" {
			c.req.Header.Set("If-None-Match", c.etag)
		}
	case reqNode:
		c.req.URL.Path = "/v1/nodes/" + s.ids[c.rng.Intn(len(s.ids))]
	default:
		c.req.URL.Path = "/v1/series/churn"
		c.req.URL.RawQuery = "last=3"
	}
	c.w.reset()
}

// serve runs the prepared request and reports whether it failed: a
// status of 400 or more, or a 200 with no body.
func (c *serveClient) serve(s *servedCensus) (failed bool) {
	s.handler.ServeHTTP(c.w, c.req)
	if t := c.w.h.Get("ETag"); t != "" {
		c.etag = t
	}
	return c.w.status >= 400 || (c.w.status == http.StatusOK && c.w.bytes == 0)
}

// do issues one request of the mix and records its latency.
func (c *serveClient) do(s *servedCensus) {
	class := reqSeries
	switch p := c.rng.Intn(100); {
	case p < 60:
		class = reqCached
	case p < 80:
		class = req304
	case p < 95:
		class = reqNode
	}
	c.prepare(s, class)
	began := time.Now()
	failed := c.serve(s)
	ns := int64(time.Since(began))
	c.all.Add(ns)
	if c.byClass[class] != nil {
		c.byClass[class].Add(ns)
	}
	c.requests++
	c.perClass[class]++
	if failed {
		c.failed++
	}
	if e := s.daemon.Current().Epoch; e < c.epochs {
		c.backward++
	} else {
		c.epochs = e
	}
}

// serveRound is what one measuring window saw.
type serveRound struct {
	wallS       float64
	requests    int64
	perClass    [numReqClasses]int64
	failed      int64
	backward    int64
	mallocs     uint64
	all         *Samples
	byClass     [numReqClasses]*Samples
	lagNS       *Samples
	republishes int
	scheduled   int
	late        int
	peakRSS     int64 // when the window closed, before the samples are merged
}

func (s *servedCensus) run(seed int64, seconds float64, every time.Duration, tr *Tracer) serveRound {
	clients := make([]*serveClient, serveClients)
	for i := range clients {
		clients[i] = newServeClient(seed+int64(i), seconds, tr != nil)
	}
	r := serveRound{lagNS: NewSamples(int(seconds/every.Seconds()) + 8)}
	pubTh, kPublish := tr.NewThread(), tr.Kind(spanCensusPublish)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	m0 := mallocs()
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *serveClient) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.do(s)
			}
		}(c)
	}
	// The publisher is an open loop: publish k is due at start+k·every
	// whatever the load, and how late it starts is reported (not judged:
	// lateness measures the machine, and a slow machine is not an
	// incorrect program).
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed + 1_000_003))
		for k := 1; ; k++ {
			due := start.Add(time.Duration(k) * every)
			select {
			case <-stop:
				return
			case <-time.After(time.Until(due)):
			}
			r.scheduled++
			if time.Since(due) > generatorLateBy {
				r.late++
			}
			before := s.daemon.Current().Epoch
			s.daemon.Record(&mlog.Entry{
				Time: s.clock.Now(), NodeID: fmt.Sprintf("live%032x", k),
				IP:       fmt.Sprintf("9.9.%d.%d", rng.Intn(256), 1+rng.Intn(254)),
				ConnType: mlog.ConnDynamicDial,
				Hello:    &mlog.HelloInfo{Version: 5, ClientName: "Geth/v1.8.11-stable", Caps: []string{"eth/63"}},
			})
			t0 := time.Now()
			pubTh.Begin(kPublish)
			s.clock.Advance(census.DefaultInterval)
			pubTh.Pop()
			if s.daemon.Current().Epoch > before {
				r.lagNS.Add(int64(time.Since(t0)))
				r.republishes++
			}
		}
	}()
	time.Sleep(time.Duration(seconds * float64(time.Second)))
	close(stop)
	wg.Wait()
	r.wallS = time.Since(start).Seconds()
	r.mallocs = mallocs() - m0
	r.peakRSS = peakRSS()
	s.daemon.Stop()
	pubTh.Close()

	parts := make([]*Samples, len(clients))
	var classParts [numReqClasses][]*Samples
	for i, c := range clients {
		parts[i] = c.all
		r.requests += c.requests
		r.failed += c.failed
		r.backward += c.backward
		for k := range c.perClass {
			r.perClass[k] += c.perClass[k]
			if c.byClass[k] != nil {
				classParts[k] = append(classParts[k], c.byClass[k])
			}
		}
	}
	r.all = MergeSamples(parts...)
	for k := range classParts {
		r.byClass[k] = MergeSamples(classParts[k]...)
	}
	return r
}

func (r *serveRound) check() []string {
	var bad []string
	if r.failed > 0 {
		bad = append(bad, fmt.Sprintf("census-serve: %d of %d requests failed (status ≥ 400 or empty 200)", r.failed, r.requests))
	}
	if r.backward > 0 {
		bad = append(bad, fmt.Sprintf("census-serve: a client saw the epoch go backwards %d times", r.backward))
	}
	if r.republishes == 0 {
		bad = append(bad, "census-serve: the publisher never republished")
	}
	return bad
}

func runCensusServe(o Options) (*Outcome, error) {
	out := newOutcome()
	var setups []float64
	one := func(tr *Tracer, seconds float64) serveRound {
		t0 := time.Now()
		s := setupCensusServe(o.Sizes.ServePopulation, o.Seed)
		setups = append(setups, time.Since(t0).Seconds())
		settle()
		r := s.run(o.Seed, seconds, o.Sizes.Republish, tr)
		out.fail(r.check()...)
		out.Attempted += r.requests
		out.Failed += r.failed
		return r
	}

	if o.Trace {
		base := one(nil, o.Seconds)
		tr := NewTracer()
		r := one(tr, o.Seconds)
		p50 := r.all.Quantile(0.5)
		for k, name := range reqClassNames {
			out.Metrics["census.requests_"+name] = float64(r.perClass[k])
			out.Metrics["census.serve_"+name+"_rel"] = r.byClass[k].Quantile(0.5) / p50
		}
		out.Metrics["census.serve_p99_over_p50"] = r.all.Quantile(0.99) / p50
		out.Metrics["census.publish_lag_p90_over_p50"] = r.lagNS.Quantile(0.9) / r.lagNS.Quantile(0.5)
		out.Metrics["census.republishes"] = float64(r.republishes)
		out.Metrics["census.generator_late_share"] = float64(r.late) / float64(max(r.scheduled, 1))
		out.Metrics["census.publishes"] = float64(r.republishes)
		out.Metrics["trace.spans"] = float64(tr.Spans())
		// Closed-loop clients do fewer requests when each costs more, so
		// the overhead shows as lost throughput.
		out.Metrics["trace.overhead_share"] = (float64(base.requests)/base.wallS)/(float64(r.requests)/r.wallS) - 1
		out.note("census-serve traced: %d requests (untraced %d) in %.1f s, %d republishes", r.requests, base.requests, r.wallS, r.republishes)
		return out, o.writeTrace(tr, "census-serve", r.wallS)
	}

	warmSetups(func() error { setupCensusServe(o.Sizes.ServePopulation, o.Seed); return nil }, &setups)
	r := one(nil, o.Seconds)
	// A request costs about a microsecond, a handful of clock ticks, so
	// the exact median sits on a tick; the mean of the central tenth of
	// the samples is the same statistic without the quantisation.
	out.e2e(setups, float64(r.requests)/r.wallS, r.all.MidMean()/1e3, r.lagNS.Quantile(0.5)/1e9, float64(r.mallocs)/float64(max(r.requests, 1)), r.peakRSS)
	out.note("census-serve: %d clients, %d requests in %.2f s (no sockets: direct ServeHTTP), %d republishes of %d scheduled (%d late); request p50 over n=%d, publish lag p50 over n=%d",
		serveClients, r.requests, r.wallS, r.republishes, r.scheduled, r.late, r.all.Len(), r.lagNS.Len())
	if r.all.Dropped > 0 {
		out.note("census-serve: %d latency samples beyond the recorder's capacity were dropped", r.all.Dropped)
	}
	if q, ok := r.all.TopQuantile(); ok {
		out.note("census-serve: request p99 = %.2f us, p%g = %.2f us (n=%d), informational", r.all.Quantile(0.99)/1e3, q*100, r.all.Quantile(q)/1e3, r.all.Len())
	}
	return out, nil
}
