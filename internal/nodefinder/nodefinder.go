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
type Discovery interface {
	// Self returns the local node ID.
	Self() enode.ID
	// Lookup starts an iterative lookup toward target; done is
	// invoked later (from any goroutine) with the nodes learned.
	Lookup(target enode.ID, done func(found []*enode.Node))
}

// Dialer performs the full connection-establishment chain against one
// node and reports the decoded results. Like Discovery.Lookup, Dial
// MUST NOT invoke done synchronously.
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
	// DialShards is the number of bounded dial queues candidates are
	// sharded into by node ID. Zero means DefaultDialShards (one
	// shard, the original single-queue behavior).
	DialShards int
	// ShardQueueCap bounds each shard's queue; candidates beyond the
	// cap are dropped (and counted in finder.queue_dropped) rather
	// than growing memory without bound during a discovery burst.
	// Zero means DefaultShardQueueCap; negative disables the bound.
	ShardQueueCap int
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

	mu          sync.Mutex
	running     bool
	stopped     bool
	staticTimer map[enode.ID]simclock.Timer
	stats       Stats

	// Every timer the Finder arms is kept so Stop can cancel it: an
	// armed timer's closure holds the Finder (and through it the
	// dialer, database and log) for as long as the clock does.
	// lookupTimer[i] is lookup worker i's pending round and
	// lookupFn[i] the callback that runs it, built once in New.
	lookupTimer []simclock.Timer
	lookupFn    []func()
	sweepTimer  simclock.Timer

	// sched owns the sharded dial queues and all per-node admission
	// state (in-flight set, suppression windows, backoff).
	sched *dialScheduler

	// onIdle, if set, is called (locked) whenever the dynamic queue
	// drains; tests use it.
	onIdle func()
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
	if cfg.LookupInterval == 0 {
		cfg.LookupInterval = DefaultLookupInterval
	}
	if cfg.StaticInterval == 0 {
		cfg.StaticInterval = DefaultStaticInterval
	}
	if cfg.MaxDynamicDials == 0 {
		cfg.MaxDynamicDials = DefaultMaxDynamicDials
	}
	if cfg.StaleAfter == 0 {
		cfg.StaleAfter = DefaultStaleAfter
	}
	if cfg.LookupWorkers <= 0 {
		cfg.LookupWorkers = 1
	}
	if cfg.DialShards <= 0 {
		cfg.DialShards = DefaultDialShards
	}
	switch {
	case cfg.ShardQueueCap == 0:
		cfg.ShardQueueCap = DefaultShardQueueCap
	case cfg.ShardQueueCap < 0:
		cfg.ShardQueueCap = 0 // unbounded
	}
	f := &Finder{
		cfg:         cfg,
		clock:       cfg.Clock,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		metrics:     newFinderMetrics(cfg.Metrics, cfg.DB),
		staticTimer: make(map[enode.ID]simclock.Timer),
		lookupTimer: make([]simclock.Timer, cfg.LookupWorkers),
		lookupFn:    make([]func(), cfg.LookupWorkers),
	}
	for i := range f.lookupFn {
		f.lookupFn[i] = func() { f.runLookup(i) }
	}
	f.sched = newDialScheduler(cfg.DialShards, cfg.ShardQueueCap, cfg.MaxDynamicDials, f.rng, f.metrics, cfg.Metrics)
	return f, nil
}

// DB exposes the node database.
func (f *Finder) DB() *nodedb.DB { return f.cfg.DB }

// Stats returns a snapshot of the counters.
func (f *Finder) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.stats
	s.StaticListSize = len(f.cfg.DB.StaticNodes())
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
	f.mu.Unlock()
	// Each lookup worker is an independent self-perpetuating chain:
	// runLookup → Discovery.Lookup → onLookupDone → scheduleLookup.
	// One worker (the default) is the original crawler cadence.
	for i := range f.lookupFn {
		f.scheduleLookup(i, 0)
	}
	f.scheduleStaleSweep()
}

// Stop halts scheduling and cancels every armed timer, so nothing the
// clock holds refers to the Finder afterwards. In-flight operations
// may still complete.
func (f *Finder) Stop() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stopped = true
	f.running = false
	for id, t := range f.staticTimer {
		t.Stop()
		delete(f.staticTimer, id)
	}
	for i, t := range f.lookupTimer {
		if t != nil {
			t.Stop()
			f.lookupTimer[i] = nil
		}
	}
	if f.sweepTimer != nil {
		f.sweepTimer.Stop()
		f.sweepTimer = nil
	}
}

// AddStatic seeds the static list directly (bootstrap nodes are added
// this way, per §4: "Bootstrap nodes are added to the StaticNodes
// list and periodically re-dialed like any other nodes").
func (f *Finder) AddStatic(n *enode.Node) {
	now := f.clock.Now()
	f.cfg.DB.RecordSuccess(n, now)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armStaticTimerLocked(n, f.cfg.StaticInterval)
}

// scheduleLookup arms lookup worker's next discovery round after
// delay, unless the Finder has stopped.
func (f *Finder) scheduleLookup(worker int, delay time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopped {
		return
	}
	f.lookupTimer[worker] = f.clock.AfterFunc(delay, f.lookupFn[worker])
}

// runLookup performs one of worker's discovery rounds and schedules
// the next so that rounds start no closer than LookupInterval apart
// ("based on start time", §4).
func (f *Finder) runLookup(worker int) {
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		return
	}
	f.stats.DiscoveryAttempts++
	target := enode.RandomID(f.rng) // f.rng needs f.mu: backoff jitter shares it
	f.mu.Unlock()
	f.metrics.lookups.Inc()

	start := f.clock.Now()
	f.cfg.Discovery.Lookup(target, func(found []*enode.Node) {
		f.onLookupDone(worker, start, found)
	})
}

func (f *Finder) onLookupDone(worker int, start time.Time, found []*enode.Node) {
	f.metrics.lookupNodes.Add(uint64(len(found)))
	now := f.clock.Now()
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		return
	}
	for _, n := range found {
		if n.ID == f.cfg.Discovery.Self() {
			continue
		}
		if !f.sched.admissibleLocked(n.ID, now) {
			continue
		}
		// Static-list members are managed by the static scheduler;
		// excluding them here mirrors Geth's dial state, and is why
		// Figure 8 sees mostly static (not dynamic) dials to a
		// long-known node.
		if rec := f.cfg.DB.Get(n.ID); rec != nil && rec.Static {
			continue
		}
		f.sched.enqueueLocked(n)
	}
	launch := f.fillDynamicLocked()
	f.mu.Unlock()
	for _, n := range launch {
		f.dial(n, mlog.ConnDynamicDial)
	}
	for _, n := range found {
		f.cfg.DB.Ensure(n, now)
	}

	// Next round: LookupInterval after this round STARTED.
	next := start.Add(f.cfg.LookupInterval)
	delay := next.Sub(now)
	if delay < 0 {
		delay = 0
	}
	f.scheduleLookup(worker, delay)
}

// fillDynamicLocked asks the scheduler to dequeue candidates up to
// the concurrency budget and returns the nodes the caller must launch
// after releasing f.mu.
func (f *Finder) fillDynamicLocked() []*enode.Node {
	launch := f.sched.fillLocked(f.clock.Now())
	f.stats.DynamicDials += uint64(len(launch))
	if f.sched.active == 0 && f.sched.queuedLocked() == 0 && f.onIdle != nil {
		f.onIdle()
	}
	return launch
}

// dial runs one outbound attempt.
func (f *Finder) dial(n *enode.Node, kind mlog.ConnType) {
	f.cfg.DB.RecordDial(n, f.clock.Now())
	f.cfg.Dialer.Dial(n, kind, func(res *DialResult) {
		f.onDialDone(n, kind, res)
	})
}

func (f *Finder) onDialDone(n *enode.Node, kind mlog.ConnType, res *DialResult) {
	now := f.clock.Now()
	f.record(res)

	success := res.Hello != nil
	if success {
		f.cfg.DB.RecordSuccess(n, now)
	}

	f.mu.Lock()
	f.sched.completeLocked(n.ID, kind == mlog.ConnDynamicDial, success, now)
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
	if rec := f.cfg.DB.Get(n.ID); rec != nil && rec.Static {
		f.armStaticTimerLocked(n, f.cfg.StaticInterval)
	}
	var launch []*enode.Node
	if kind == mlog.ConnDynamicDial {
		launch = f.fillDynamicLocked()
	}
	f.mu.Unlock()
	for _, next := range launch {
		f.dial(next, mlog.ConnDynamicDial)
	}
}

// armStaticTimerLocked (re)schedules a static re-dial. Caller holds
// f.mu.
func (f *Finder) armStaticTimerLocked(n *enode.Node, delay time.Duration) {
	if t, ok := f.staticTimer[n.ID]; ok {
		t.Stop()
	}
	n = enode.New(n.ID, n.IP, n.UDP, n.TCP)
	f.staticTimer[n.ID] = f.clock.AfterFunc(delay, func() {
		f.runStaticDial(n)
	})
}

func (f *Finder) runStaticDial(n *enode.Node) {
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		return
	}
	rec := f.cfg.DB.Get(n.ID)
	if rec == nil || !rec.Static {
		// Dropped from the static list (stale) since scheduling.
		delete(f.staticTimer, n.ID)
		f.mu.Unlock()
		return
	}
	if f.sched.dialing[n.ID] {
		// Already being dialed; re-arm rather than double-dial.
		f.armStaticTimerLocked(n, f.cfg.StaticInterval)
		f.mu.Unlock()
		return
	}
	f.sched.beginStaticLocked(n.ID, f.clock.Now())
	f.stats.StaticDials++
	f.mu.Unlock()
	f.dial(n, mlog.ConnStaticDial)
}

// scheduleStaleSweep arms the periodic 24-hour staleness sweep,
// unless the Finder has stopped.
func (f *Finder) scheduleStaleSweep() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopped {
		return
	}
	f.sweepTimer = f.clock.AfterFunc(10*time.Minute, f.runStaleSweep)
}

func (f *Finder) runStaleSweep() {
	f.mu.Lock()
	stopped := f.stopped
	f.mu.Unlock()
	if stopped {
		return
	}
	expired := f.cfg.DB.ExpireStale(f.clock.Now(), f.cfg.StaleAfter)
	f.metrics.staleExpired.Add(uint64(expired))
	f.pruneBackoff(f.clock.Now())
	f.scheduleStaleSweep()
}

// pruneBackoff drops backoff state for nodes whose window has been
// over for a full maxDialBackoff — long-quiet addresses the crawler
// may never hear about again — so §5.4-style identity spam cannot
// grow the failure maps without bound.
func (f *Finder) pruneBackoff(now time.Time) {
	f.mu.Lock()
	f.sched.pruneLocked(now)
	f.mu.Unlock()
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
	now := f.clock.Now()
	if res.Node != nil {
		f.cfg.DB.Ensure(res.Node, now)
		if res.Hello != nil {
			// An inbound peer proved its TCP reachability of us, not
			// ours of it; record success only for bookkeeping of
			// liveness, not static membership.
			rec := f.cfg.DB.Ensure(res.Node, now)
			rec.LastSuccess = now
		}
	}
	f.record(res)
}

// record converts a DialResult to a log entry. The metrics observe
// call lives here so the finder.conns counters increment exactly
// once per mlog entry, keeping telemetry and log reconcilable.
func (f *Finder) record(res *DialResult) {
	f.metrics.observe(res)
	e := &mlog.Entry{
		Time:       res.Start,
		ConnType:   res.Kind,
		LatencyUS:  res.RTT.Microseconds(),
		DurationUS: res.Duration.Microseconds(),
	}
	if res.Node != nil {
		e.NodeID = res.Node.ID.String()
		e.IP = res.Node.IP.String()
		e.Port = res.Node.TCP
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
		r := uint64(*res.Disconnect)
		e.DisconnectReason = &r
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
