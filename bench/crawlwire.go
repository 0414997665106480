package bench

import (
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chain"
	"repro/internal/crypto/secp256k1"
	"repro/internal/devp2p"
	"repro/internal/enode"
	"repro/internal/eth"
	"repro/internal/nodefinder"
	"repro/internal/nodefinder/mlog"
	"repro/internal/simclock"
	"repro/internal/simnet"
)

// crawl-wire: the crypto/framing-bound workload. Every node of a
// WireFidelity world is dialed exactly once through the real
// establishment chain (ECIES + secp256k1 RLPx handshake, HELLO,
// STATUS, DAO header check, DISCONNECT) over in-memory pipes, client
// and promoted server both in this process. The Finder keeps exactly
// two dials in flight; its own overhead is microseconds against a
// dial of milliseconds, so this is the workload on which a scheduler
// change should move nothing.

// pagedDiscovery hands out a seed-shuffled population sixteen nodes at
// a time, wrapping, so discovery costs nothing and never runs dry.
type pagedDiscovery struct {
	self  enode.ID
	nodes []*enode.Node

	mu   sync.Mutex
	next int
}

const discoveryPage = 16

func (d *pagedDiscovery) Self() enode.ID { return d.self }

func (d *pagedDiscovery) Lookup(_ enode.ID, done func([]*enode.Node)) {
	page := make([]*enode.Node, 0, discoveryPage)
	d.mu.Lock()
	for len(page) < discoveryPage && len(page) < len(d.nodes) {
		page = append(page, d.nodes[d.next])
		d.next = (d.next + 1) % len(d.nodes)
	}
	d.mu.Unlock()
	go done(page) // Discovery must not complete synchronously
}

// wireCrawl is one set-up wire world ready to be swept.
type wireCrawl struct {
	world  *simnet.World
	finder *nodefinder.Finder
	index  map[enode.ID]int // node id → position in world.Nodes

	// Per node, written once by the dial that reached it.
	dialNS  []int64
	records []int32
	wrong   []string // ground-truth mismatches
	classes map[string]int

	mu       sync.Mutex
	recorded int
	allDone  chan struct{}
	lastAt   time.Time

	daoChecks atomic.Int64
	staged    *stagedDialer // nil when untraced
}

// wireIdentity is the crawler's own HELLO/STATUS, mirroring Mainnet so
// peers complete the exchange.
func wireIdentity(seed int64) (*secp256k1.PrivateKey, devp2p.Hello, eth.Status, error) {
	key, err := secp256k1.GenerateKey(rand.New(rand.NewSource(seed ^ 0x4242)))
	hello := devp2p.Hello{
		Version:    devp2p.Version,
		Name:       "NodeFinder/bench",
		Caps:       []devp2p.Cap{{Name: "eth", Version: 62}, {Name: "eth", Version: 63}},
		ListenPort: 30303,
	}
	status := eth.Status{
		NetworkID:   chain.MainnetNetworkID,
		TD:          big.NewInt(1),
		GenesisHash: chain.MainnetGenesisHash,
		BestHash:    chain.MainnetGenesisHash,
	}
	return key, hello, status, err
}

func newWireWorld(nodes int, seed int64) *simnet.World {
	cfg := simnet.DefaultConfig(seed)
	cfg.BaseNodes = nodes
	cfg.AbusiveIPs = 0
	cfg.UnreachableFraction = 0
	cfg.WireFidelity = true
	w := simnet.NewWorld(cfg)
	// With nobody full, every dial runs the whole chain and its outcome
	// is a pure function of the node.
	for _, n := range w.Nodes {
		n.Occupancy = 0
	}
	return w
}

func setupCrawlWire(sz Sizes, seed int64, tr *Tracer) (*wireCrawl, error) {
	w := newWireWorld(sz.WireNodes, seed)
	n := len(w.Nodes)
	c := &wireCrawl{
		world:   w,
		index:   make(map[enode.ID]int, n),
		dialNS:  make([]int64, n),
		records: make([]int32, n),
		classes: map[string]int{},
		allDone: make(chan struct{}),
	}
	disc := &pagedDiscovery{self: enode.RandomID(rand.New(rand.NewSource(seed + 1)))}
	for i, sn := range w.Nodes {
		c.index[sn.Node.ID] = i
		disc.nodes = append(disc.nodes, sn.Node)
	}
	rand.New(rand.NewSource(seed+2)).Shuffle(n, func(i, j int) {
		disc.nodes[i], disc.nodes[j] = disc.nodes[j], disc.nodes[i]
	})

	key, hello, status, err := wireIdentity(seed)
	if err != nil {
		return nil, err
	}
	var dialer nodefinder.Dialer = &nodefinder.RealDialer{
		Key: key, Hello: hello, Status: status,
		CheckDAO: true, DialFunc: w.DialWire,
	}
	fc := nodefinder.Config{
		Clock:           simclock.System{},
		Discovery:       disc,
		Log:             c,
		Seed:            seed + 3,
		LookupInterval:  time.Millisecond,
		StaticInterval:  time.Hour,
		MaxDynamicDials: 2,
	}
	if tr != nil {
		c.staged = newStagedDialer(tr, key, hello, status, w.DialWire)
		dialer = c.staged
		fc.Clock = newTracedClock(fc.Clock, tr, tr.Flat())
		fc.Discovery = newTracedDiscovery(disc, tr, tr.Flat())
		fc.Log = newTracedSink(c, tr, tr.Flat(), spanRecord)
	}
	fc.Dialer = &verifyingDialer{inner: dialer, c: c}
	c.finder, err = nodefinder.New(fc)
	return c, err
}

// Record implements mlog.Sink: the sweep ends when every node has a
// record.
func (c *wireCrawl) Record(e *mlog.Entry) {
	id, err := enode.HexID(e.NodeID)
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[id]
	if err != nil || !ok {
		c.wrong = append(c.wrong, "record for unknown node "+e.NodeID)
		return
	}
	c.records[i]++
	if c.records[i] == 1 {
		c.recorded++
		if c.recorded == len(c.records) {
			c.lastAt = time.Now()
			close(c.allDone)
		}
	}
}

// verifyingDialer times every dial from the Dial call to its done
// callback and checks the result against the node's ground truth.
type verifyingDialer struct {
	inner nodefinder.Dialer
	c     *wireCrawl
}

func (d *verifyingDialer) Dial(n *enode.Node, kind mlog.ConnType, done func(*nodefinder.DialResult)) {
	start := time.Now()
	d.inner.Dial(n, kind, func(res *nodefinder.DialResult) {
		d.c.observe(n, time.Since(start), res)
		done(res)
	})
}

func (c *wireCrawl) observe(n *enode.Node, dur time.Duration, res *nodefinder.DialResult) {
	i := c.index[n.ID]
	sn := c.world.Nodes[i]
	class := nodefinder.OutcomeClass(res)
	want := "hello-no-eth"
	if sn.Service == simnet.SvcEth {
		want = "eth-handshake"
	}
	var bad string
	switch {
	case class != want:
		bad = fmt.Sprintf("node %d: outcome %s, want %s (err %v)", i, class, want, res.Err)
	case res.Hello.ID != n.ID:
		bad = fmt.Sprintf("node %d: HELLO carries another node's id", i)
	case res.Status != nil && res.Status.NetworkID != sn.Network.NetworkID:
		bad = fmt.Sprintf("node %d: STATUS network %d, want %d", i, res.Status.NetworkID, sn.Network.NetworkID)
	}
	if res.DAOChecked {
		c.daoChecks.Add(1)
	}
	c.mu.Lock()
	c.dialNS[i] = int64(dur)
	c.classes[class]++
	if bad != "" {
		c.wrong = append(c.wrong, bad)
	}
	c.mu.Unlock()
}

// wireRound is what one sweep measured.
type wireRound struct {
	wallS   float64
	dials   int
	mallocs uint64
	dialNS  *Samples
	failed  int
	bad     []string
	classes map[string]int
	stats   nodefinder.Stats
}

// sweepTimeout bounds one sweep; an honest sweep is ~12 s.
const sweepTimeout = 150 * time.Second

func (c *wireCrawl) run() wireRound {
	n := len(c.records)
	m0 := mallocs()
	start := time.Now()
	c.finder.Start()
	timedOut := false
	select {
	case <-c.allDone:
	case <-time.After(sweepTimeout):
		timedOut = true
	}
	c.finder.Stop()
	r := wireRound{mallocs: mallocs() - m0, dialNS: NewSamples(n)}
	c.world.CloseWire()

	c.mu.Lock()
	defer c.mu.Unlock()
	r.wallS = c.lastAt.Sub(start).Seconds()
	if timedOut {
		r.wallS = time.Since(start).Seconds()
		r.bad = append(r.bad, fmt.Sprintf("crawl-wire: only %d of %d nodes recorded after %s", c.recorded, n, sweepTimeout))
	}
	for i := range c.records {
		if c.records[i] != 1 {
			r.failed++
			r.bad = append(r.bad, fmt.Sprintf("crawl-wire: node %d has %d records, want 1", i, c.records[i]))
			continue
		}
		r.dials++
		r.dialNS.Add(c.dialNS[i])
	}
	r.failed += len(c.wrong)
	r.bad = append(r.bad, c.wrong...)
	if len(r.bad) > 8 {
		r.bad = append(r.bad[:8], fmt.Sprintf("crawl-wire: … and %d more", len(r.bad)-8))
	}
	if a := c.world.PromotedActive(); a != 0 {
		r.bad = append(r.bad, fmt.Sprintf("crawl-wire: %d connections still promoted after CloseWire", a))
	}
	r.classes = c.classes
	r.stats = c.finder.Stats()
	return r
}

func runCrawlWire(o Options) (*Outcome, error) {
	out := newOutcome()
	var setups []float64
	one := func(tr *Tracer) (wireRound, *wireCrawl, error) {
		t0 := time.Now()
		c, err := setupCrawlWire(o.Sizes, o.Seed, tr)
		if err != nil {
			return wireRound{}, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		r := c.run()
		out.fail(r.bad...)
		out.Attempted += int64(o.Sizes.WireNodes)
		out.Failed += int64(r.failed)
		return r, c, nil
	}

	if o.Trace {
		base, _, err := one(nil)
		if err != nil {
			return nil, err
		}
		tr := NewTracer()
		r, c, err := one(tr)
		if err != nil {
			return nil, err
		}
		for class, n := range base.classes {
			if r.classes[class] != n {
				out.fail(fmt.Sprintf("crawl-wire: staged dialer saw %d %s, RealDialer %d", r.classes[class], class, n))
			}
		}
		st := tr.Stats()
		dialP50 := st[spanWireDial].P50US
		sum := 0.0
		for name, metric := range map[string]string{
			spanDialWire:   "simnet.dialwire_share",
			spanHandshake:  "rlpx.handshake_share",
			spanHello:      "devp2p.hello_share",
			spanStatus:     "eth.status_share",
			spanDAO:        "eth.dao_check_share",
			spanDisconnect: "devp2p.disconnect_share",
		} {
			out.Metrics[metric] = st[name].P50US / dialP50
			sum += st[name].P50US / dialP50
		}
		// Only Mainnet-genesis peers get the DAO check, so its p50 is over
		// fewer dials than the others; the sum is still the issue's
		// "stage p50s against dial p50" figure.
		out.Metrics["trace.stage_sum_share"] = sum
		out.Metrics["nodefinder.dial_overhead_share"] = float64(st[spanWireDial].SelfS) / float64(st[spanWireDial].TotalS)
		out.Metrics["netpipe.read_wait_share"] = st[spanReadWait].TotalS / st[spanWireDial].TotalS
		out.Metrics["netpipe.bytes_per_dial"] = float64(c.staged.bytes.Load()) / float64(r.dials)
		out.Metrics["nodefinder.dial_p99_over_p50"] = r.dialNS.Quantile(0.99) / r.dialNS.Quantile(0.5)
		out.Metrics["nodefinder.dial_p999_over_p50"] = r.dialNS.Quantile(0.999) / r.dialNS.Quantile(0.5)
		out.Metrics["simnet.promotions"] = float64(r.dials)
		out.Metrics["eth.dao_checks"] = float64(c.daoChecks.Load())
		out.Metrics["nodefinder.lookups"] = float64(r.stats.DiscoveryAttempts)
		out.Metrics["nodefinder.dials_dynamic"] = float64(r.stats.DynamicDials)
		out.Metrics["nodefinder.dials_static"] = float64(r.stats.StaticDials)
		out.Metrics["mlog.records"] = float64(r.dials)
		out.Metrics["trace.spans"] = float64(tr.Spans())
		out.Metrics["trace.overhead_share"] = (r.wallS - base.wallS) / base.wallS
		out.note("crawl-wire traced: wall %.3f s (untraced %.3f s); dial p50 %.1f us over n=%d, stage p50s sum to %.3f of it",
			r.wallS, base.wallS, dialP50, r.dials, sum)
		return out, o.writeTrace(tr, "crawl-wire", r.wallS)
	}

	warmSetups(func() error { _, err := setupCrawlWire(o.Sizes, o.Seed, nil); return err }, &setups)
	var rounds []wireRound
	err := repeatRounds(o.Seconds, func() (float64, error) {
		r, _, err := one(nil)
		rounds = append(rounds, r)
		return r.wallS, err
	})
	if err != nil {
		return nil, err
	}
	rss := peakRSS()
	var rate, walls, allocs []float64
	samples := make([]*Samples, len(rounds))
	for i, r := range rounds {
		rate = append(rate, float64(r.dials)/r.wallS)
		walls = append(walls, r.wallS)
		allocs = append(allocs, float64(r.mallocs)/float64(max(r.dials, 1)))
		samples[i] = r.dialNS
	}
	dials := MergeSamples(samples...)
	out.e2e(setups, Median(rate), dials.Quantile(0.5)/1e3, Median(walls), Median(allocs), rss)
	out.note("crawl-wire: %d rounds of %d dials, outcomes %v; dial p50 over n=%d", len(rounds), rounds[0].dials, rounds[0].classes, dials.Len())
	if q, ok := dials.TopQuantile(); ok {
		out.note("crawl-wire: dial p%g = %.3f ms (n=%d), informational", q*100, dials.Quantile(q)/1e6, dials.Len())
	}
	return out, nil
}
