// Package nodefinder implements the paper's primary contribution:
// NodeFinder, a measurement crawler for the DEVp2p ecosystem (§4).
//
// NodeFinder departs from a normal Ethereum client in four ways:
//
//  1. It ignores the maximum peer limit, at both the DEVp2p and
//     Ethereum layers, so discovery and incoming connections never
//     stop.
//  2. It disconnects from peers as soon as peer-connection
//     establishment is complete: DEVp2p HELLO, Ethereum STATUS, and
//     the DAO-fork block check — at most three message exchanges.
//  3. Successful dynamic dials are added to a StaticNodes list and
//     re-dialed every 30 minutes to track liveness and churn; stale
//     addresses (no successful TCP connection in 24 h) are removed.
//  4. Every connection's decoded messages and timing are logged.
//
// The crawler is written against two small interfaces — Discovery and
// Dialer — so the identical scheduling logic runs over the real
// discv4/RLPx stack (see RealDiscovery/RealDialer) or over the
// simulated world in internal/simnet, driven by a virtual clock.
package nodefinder

import (
	"cmp"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/devp2p"
	"repro/internal/enode"
	"repro/internal/eth"
	"repro/internal/metrics"
	"repro/internal/nodedb"
	"repro/internal/nodefinder/mlog"
	"repro/internal/simclock"
)

// Scheduling constants from §4 (Geth 1.7.3 defaults NodeFinder keeps).
const (
	DefaultLookupInterval  = 4 * time.Second
	DefaultStaticInterval  = 30 * time.Minute
	DefaultMaxDynamicDials = 16
	DefaultStaleAfter      = 24 * time.Hour
	// redialSuppression avoids dynamic re-dialing a node too soon
	// after any dial attempt.
	redialSuppression = 5 * time.Minute
	// maxDialBackoff caps the exponential backoff applied to nodes
	// that fail establishment repeatedly. Gossip keeps returning dead
	// and hostile addresses for days (§5.2); doubling the suppression
	// window per consecutive failure, up to this cap, keeps the dial
	// budget pointed at responsive nodes without ever giving up on an
	// address that might come back.
	maxDialBackoff = 2 * time.Hour
)

// Discovery abstracts the RLPx node-discovery service.
//
// Lookup MUST NOT invoke done synchronously: real implementations run
// the lookup on a goroutine; simulated ones schedule done on the
// virtual clock. This keeps the Finder's state machine re-entrant.
// The found slice is valid until done returns: an implementation may
// reuse its backing array for a later lookup.
type Discovery interface {
	// Self returns the local node ID.
	Self() enode.ID
	// Lookup starts an iterative lookup toward target; done is
	// invoked later (from any goroutine) with the nodes learned.
	Lookup(target enode.ID, done func(found []*enode.Node))
}

// Dialer performs the full connection-establishment chain against one
// node and reports the decoded results. Like Discovery.Lookup, Dial
// MUST NOT invoke done synchronously, and the *DialResult (with the
// Hello, Status and Disconnect it points at) is valid until done
// returns: an implementation may reuse it for a later dial.
type Dialer interface {
	// Dial starts a connection attempt; done is invoked later (from
	// any goroutine) with the result.
	Dial(n *enode.Node, kind mlog.ConnType, done func(*DialResult))
}

// DialResult is everything one connection attempt yielded.
type DialResult struct {
	Node     *enode.Node
	Kind     mlog.ConnType
	Start    time.Time
	Duration time.Duration
	RTT      time.Duration

	// Err is the transport or handshake error, if any.
	Err error
	// Hello is the peer's DEVp2p handshake, when one was received.
	Hello *devp2p.Hello
	// Disconnect is set when the peer sent DISCONNECT.
	Disconnect *devp2p.DisconnectReason
	// Status is the peer's eth STATUS, when received.
	Status *eth.Status
	// BestBlock is the peer's head block number when the transport
	// could learn it (simulation aid for freshness analysis).
	BestBlock uint64
	// DAOFork is the fork-check outcome, when the check ran.
	DAOFork eth.DAOForkSupport
	// DAOChecked reports whether the fork check was performed.
	DAOChecked bool

	// outcome is the result's class once Outcome has classified it.
	outcome Outcome
}

// Config configures a Finder.
type Config struct {
	Clock     simclock.Clock
	Discovery Discovery
	Dialer    Dialer
	DB        *nodedb.DB
	Log       mlog.Sink
	// Metrics, when non-nil, receives live crawl-health telemetry
	// (dial outcomes by type, error taxonomy, table gauges, latency
	// histograms). Nil disables instrumentation at near-zero cost.
	Metrics *metrics.Registry

	LookupInterval  time.Duration
	StaticInterval  time.Duration
	MaxDynamicDials int
	StaleAfter      time.Duration
	Seed            int64

	// LookupWorkers is the number of concurrent discovery lookup
	// chains. Each worker paces itself on LookupInterval, so the
	// aggregate lookup rate scales with the worker count. Zero means
	// one worker — the original single-chain crawler.
	LookupWorkers int
}

// Stats are cumulative crawler counters, the raw material for
// Figures 5-8.
type Stats struct {
	DiscoveryAttempts uint64
	DynamicDials      uint64
	StaticDials       uint64
	IncomingConns     uint64
	SuccessfulConns   uint64 // HELLO exchanged
	FailedConns       uint64
	StaticListSize    int
	KnownNodes        int
}

// Finder is the crawler.
type Finder struct {
	cfg     Config
	clock   simclock.Clock
	rng     *rand.Rand
	metrics *finderMetrics

	mu      sync.Mutex
	running bool
	stopped bool
	stats   Stats
	// nodes holds the one record of every node the Finder has met, by
	// value, at its nodedb handle: see nodeLocked.
	nodes []*[nodeChunk]nodeState
	sched *dialScheduler

	// Every timer the Finder arms is kept so Stop can cancel it: an
	// armed timer's closure holds the Finder (and its dialer, database
	// and log) for as long as the clock does.
	workers    []lookupWorker
	sweepTimer simclock.Timer
	// seeds are the static nodes added before Start, which Start dials.
	seeds []*nodeState
}

// nodeChunk is how many nodeStates the table adds at a time. Chunks
// never move: the queue, a dial and its callbacks hold *nodeState.
const nodeChunk = 1024

// lookupWorker is one self-perpetuating discovery chain, runLookup →
// Lookup → onLookupDone → timer, with its callbacks bound once.
type lookupWorker struct {
	timer simclock.Timer // the pending round
	run   func()         // what timer runs
	done  func(found []*enode.Node)
	start time.Time // when the round in flight began; f.mu
}

// New validates the config and creates a Finder.
func New(cfg Config) (*Finder, error) {
	if cfg.Discovery == nil || cfg.Dialer == nil {
		return nil, fmt.Errorf("nodefinder: config requires Discovery and Dialer")
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.System{}
	}
	if cfg.DB == nil {
		cfg.DB = nodedb.New()
	}
	if cfg.Log == nil {
		cfg.Log = mlog.NewCollector()
	}
	cfg.LookupInterval = cmp.Or(cfg.LookupInterval, DefaultLookupInterval)
	cfg.StaticInterval = cmp.Or(cfg.StaticInterval, DefaultStaticInterval)
	cfg.MaxDynamicDials = cmp.Or(cfg.MaxDynamicDials, DefaultMaxDynamicDials)
	cfg.StaleAfter = cmp.Or(cfg.StaleAfter, DefaultStaleAfter)
	cfg.LookupWorkers = max(cfg.LookupWorkers, 1)
	f := &Finder{
		cfg:     cfg,
		clock:   cfg.Clock,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		metrics: newFinderMetrics(cfg.Metrics, cfg.DB),
		workers: make([]lookupWorker, cfg.LookupWorkers),
	}
	for i := range f.workers {
		w := &f.workers[i]
		w.run = func() { f.runLookup(w) }
		w.done = func(found []*enode.Node) { f.onLookupDone(w, found) }
	}
	f.sched = newDialScheduler(DefaultQueueCap, cfg.MaxDynamicDials, f.rng, f.metrics, cfg.Metrics)
	return f, nil
}

// DB exposes the node database.
func (f *Finder) DB() *nodedb.DB { return f.cfg.DB }

// Stats returns a snapshot of the counters.
func (f *Finder) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.stats
	s.StaticListSize = f.cfg.DB.StaticLen()
	s.KnownNodes = f.cfg.DB.Len()
	return s
}

// Start begins the discovery and maintenance loops.
func (f *Finder) Start() {
	f.mu.Lock()
	if f.running || f.stopped {
		f.mu.Unlock()
		return
	}
	f.running = true
	for _, nd := range f.seeds {
		f.armLocked(&nd.timer, 0, nd.redial)
	}
	f.seeds = nil
	f.mu.Unlock()
	// Each lookup worker is an independent chain; one worker (the
	// default) is the original crawler cadence.
	for i := range f.workers {
		f.scheduleLookup(&f.workers[i], 0)
	}
	f.runStaleSweep() // static nodes added before Start may be stale already
}

// Stop halts scheduling and cancels every armed timer, so nothing the
// clock holds refers to the Finder afterwards. In-flight operations
// may still complete.
func (f *Finder) Stop() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stopped = true
	f.running = false
	for _, chunk := range f.nodes {
		for i := range chunk {
			cancel(&chunk[i].timer)
		}
	}
	for i := range f.workers {
		cancel(&f.workers[i].timer)
	}
	cancel(&f.sweepTimer)
}

// cancel stops *t if it is armed and forgets it.
func cancel(t *simclock.Timer) {
	if *t != nil {
		(*t).Stop()
		*t = nil
	}
}

// AddStatic seeds the static list directly (bootstrap nodes are added
// this way, per §4: "Bootstrap nodes are added to the StaticNodes
// list and periodically re-dialed like any other nodes"). A node
// added before Start is first dialed when the Finder starts, one
// added while it runs at once.
func (f *Finder) AddStatic(n *enode.Node) {
	now := f.clock.Now()
	f.cfg.DB.RecordSuccess(n, now)
	f.mu.Lock()
	defer f.mu.Unlock()
	nd := f.nodeLocked(n, now)
	switch {
	case f.running:
		f.armLocked(&nd.timer, 0, nd.redial)
	case !f.stopped:
		f.seeds = append(f.seeds, nd)
	}
}

// nodeLocked returns n's record, creating it on first sight: nodedb's
// index is the one ID-keyed lookup a discovered node costs, and the
// handle it yields is the node's place in f.nodes. A known node follows
// the endpoint discovery last reported, except while a dial reads it.
func (f *Finder) nodeLocked(n *enode.Node, now time.Time) *nodeState {
	rec := f.cfg.DB.Ensure(n, now)
	h := rec.Handle()
	for int(h/nodeChunk) >= len(f.nodes) {
		f.nodes = append(f.nodes, new([nodeChunk]nodeState))
	}
	nd := &f.nodes[h/nodeChunk][h%nodeChunk]
	switch {
	case nd.rec == nil:
		nd.node, nd.ip, nd.rec = n, n.IP.String(), rec
		nd.redial = func() { f.runStaticDial(nd) }
		nd.dialDone = func(res *DialResult) { f.onDialDone(nd, res) }
	case nd.node != n && !nd.dialing:
		if !nd.node.IP.Equal(n.IP) || nd.node.UDP != n.UDP || nd.node.TCP != n.TCP {
			nd.ip = n.IP.String()
		}
		nd.node = n
	}
	return nd
}

// scheduleLookup arms w's next discovery round after delay, unless
// the Finder has stopped.
func (f *Finder) scheduleLookup(w *lookupWorker, delay time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.stopped {
		f.armLocked(&w.timer, delay, w.run)
	}
}

// runLookup performs one of w's discovery rounds; its completion
// schedules the next so that rounds start no closer than
// LookupInterval apart ("based on start time", §4).
func (f *Finder) runLookup(w *lookupWorker) {
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		return
	}
	f.stats.DiscoveryAttempts++
	target := enode.RandomID(f.rng) // f.rng needs f.mu: backoff jitter shares it
	w.start = f.clock.Now()
	f.mu.Unlock()
	f.metrics.lookups.Inc()
	f.cfg.Discovery.Lookup(target, w.done)
}

func (f *Finder) onLookupDone(w *lookupWorker, found []*enode.Node) {
	f.metrics.lookupNodes.Add(uint64(len(found)))
	now := f.clock.Now()
	self := f.cfg.Discovery.Self()
	// A fill launches at most what this round enqueues (the last one
	// left the queue empty or the budget spent): a bucket, 16 nodes.
	var buf [16]*nodeState
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		return
	}
	start := w.start
	for _, n := range found {
		if n.ID == self {
			continue
		}
		nd := f.nodeLocked(n, now)
		// Static-list members are managed by the static scheduler;
		// excluding them here mirrors Geth's dial state, and is why
		// Figure 8 sees mostly static (not dynamic) dials to a
		// long-known node.
		if f.sched.admissibleLocked(nd, now) && !f.cfg.DB.IsStatic(nd.rec) {
			f.sched.enqueueLocked(nd)
		}
	}
	launch := f.sched.fillLocked(now, buf[:0])
	f.stats.DynamicDials += uint64(len(launch))
	f.mu.Unlock()
	for _, nd := range launch {
		f.dial(nd)
	}

	// Next round: LookupInterval after this round STARTED.
	f.scheduleLookup(w, max(0, start.Add(f.cfg.LookupInterval).Sub(now)))
}

// dial runs the outbound attempt the scheduler has marked in flight.
func (f *Finder) dial(nd *nodeState) {
	f.cfg.Dialer.Dial(nd.node, nd.kind, nd.dialDone)
}

func (f *Finder) onDialDone(nd *nodeState, res *DialResult) {
	now := f.clock.Now()
	f.record(res, nd.rec.IDx, nd.ip)
	success := res.Hello != nil
	var buf [4]*nodeState
	launch := buf[:0]

	f.mu.Lock()
	static := f.cfg.DB.RecordResult(nd.rec, nd.lastDial, now, success)
	f.sched.completeLocked(nd, success, now)
	if success {
		f.stats.SuccessfulConns++
	} else {
		f.stats.FailedConns++
	}
	if f.stopped {
		f.mu.Unlock()
		return
	}
	// Any completed outbound attempt re-arms the node's static timer
	// ("NodeFinder re-schedules next static-dial upon completion of
	// any type of outbound connection attempt", §5.2) — provided the
	// node is on the static list.
	if static {
		f.armLocked(&nd.timer, f.cfg.StaticInterval, nd.redial)
	}
	if nd.kind == mlog.ConnDynamicDial {
		launch = f.sched.fillLocked(now, launch)
		f.stats.DynamicDials += uint64(len(launch))
	}
	f.mu.Unlock()
	for _, next := range launch {
		f.dial(next)
	}
}

// armLocked makes *t run fn after delay. A timer, once made, is kept
// and re-armed, pending or fired: a crawl re-arms every static node
// every half hour and every lookup worker every round. Caller holds
// f.mu.
func (f *Finder) armLocked(t *simclock.Timer, delay time.Duration, fn func()) {
	if *t != nil {
		(*t).Reset(delay)
		return
	}
	*t = f.clock.AfterFunc(delay, fn)
}

func (f *Finder) runStaticDial(nd *nodeState) {
	launch := false
	f.mu.Lock()
	switch {
	case f.stopped:
	case !f.cfg.DB.IsStatic(nd.rec):
		// Dropped from the static list (stale) since scheduling.
	case nd.dialing:
		// Already being dialed; re-arm rather than double-dial.
		f.armLocked(&nd.timer, f.cfg.StaticInterval, nd.redial)
	default:
		f.sched.beginLocked(nd, mlog.ConnStaticDial, f.clock.Now())
		f.stats.StaticDials++
		launch = true
	}
	f.mu.Unlock()
	if launch {
		f.dial(nd)
	}
}

// runStaleSweep demotes the static nodes with no successful connection
// in StaleAfter and re-arms itself, unless the Finder has stopped.
func (f *Finder) runStaleSweep() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopped {
		return
	}
	f.sched.lastSweep = f.clock.Now()
	expired := f.cfg.DB.ExpireStale(f.sched.lastSweep, f.cfg.StaleAfter)
	f.metrics.staleExpired.Add(uint64(expired))
	f.sweepTimer = f.clock.AfterFunc(10*time.Minute, f.runStaleSweep)
}

// HandleIncoming records an inbound connection result (NodeFinder
// accepts all incoming connections and never sends Too many peers).
func (f *Finder) HandleIncoming(res *DialResult) {
	f.mu.Lock()
	f.stats.IncomingConns++
	if res.Hello != nil {
		f.stats.SuccessfulConns++
	} else {
		f.stats.FailedConns++
	}
	f.mu.Unlock()
	var id, ip string
	if res.Node != nil {
		id = f.cfg.DB.RecordIncoming(res.Node, f.clock.Now(), res.Hello != nil).IDx
		ip = res.Node.IP.String()
	}
	f.record(res, id, ip)
}

// record converts a DialResult to a log entry; id and ip are res.Node's
// ID and IP as text. The metrics observe call lives here so the
// finder.conns counters increment exactly once per mlog entry.
func (f *Finder) record(res *DialResult, id, ip string) {
	f.metrics.observe(res)
	// The disconnect reason the entry points at rides in its allocation.
	buf := &struct {
		mlog.Entry
		reason uint64
	}{Entry: mlog.Entry{
		Time:       res.Start,
		ConnType:   res.Kind,
		LatencyUS:  res.RTT.Microseconds(),
		DurationUS: res.Duration.Microseconds(),
	}}
	e := &buf.Entry
	if res.Node != nil {
		e.NodeID, e.IP, e.Port = id, ip, res.Node.TCP
	}
	if res.Err != nil {
		e.Err = res.Err.Error()
	}
	if res.Hello != nil {
		caps := make([]string, len(res.Hello.Caps))
		for i, c := range res.Hello.Caps {
			caps[i] = c.String()
		}
		e.Hello = &mlog.HelloInfo{
			Version:    res.Hello.Version,
			ClientName: res.Hello.Name,
			Caps:       caps,
			ListenPort: res.Hello.ListenPort,
		}
	}
	if res.Disconnect != nil {
		buf.reason = uint64(*res.Disconnect)
		e.DisconnectReason = &buf.reason
	}
	if res.Status != nil {
		e.Status = &mlog.StatusInfo{
			ProtocolVersion: res.Status.ProtocolVersion,
			NetworkID:       res.Status.NetworkID,
			BestHash:        res.Status.BestHash.Hex(),
			GenesisHash:     res.Status.GenesisHash.Hex(),
			BestBlock:       res.BestBlock,
		}
		if res.Status.TD != nil {
			e.Status.TD = res.Status.TD.String()
		}
	}
	if res.DAOChecked {
		switch res.DAOFork {
		case eth.DAOForkSupported:
			e.DAOFork = "supported"
		case eth.DAOForkOpposed:
			e.DAOFork = "opposed"
		default:
			e.DAOFork = "unknown"
		}
	}
	f.cfg.Log.Record(e)
}
