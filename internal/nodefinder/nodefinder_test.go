package nodefinder

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/devp2p"
	"repro/internal/enode"
	"repro/internal/nodedb"
	"repro/internal/nodefinder/mlog"
	"repro/internal/simclock"
	"repro/internal/testutil/leakcheck"
)

var t0 = time.Date(2018, 4, 18, 0, 0, 0, 0, time.UTC)

// fakeWorld is a deterministic Discovery+Dialer over a simulated
// clock: lookups return a rotating subset of a fixed population, and
// dials succeed after a fixed virtual latency.
type fakeWorld struct {
	clock *simclock.Simulated
	self  enode.ID
	nodes []*enode.Node

	mu          sync.Mutex
	lookupCount int
	dialCount   map[mlog.ConnType]int
	perNodeDial map[enode.ID]int
	lookupSize  int
	dialLatency time.Duration
	failAll     bool
}

func newFakeWorld(clock *simclock.Simulated, n int) *fakeWorld {
	rng := rand.New(rand.NewSource(7))
	w := &fakeWorld{
		clock:       clock,
		self:        enode.RandomID(rng),
		dialCount:   map[mlog.ConnType]int{},
		perNodeDial: map[enode.ID]int{},
		lookupSize:  16,
		dialLatency: 150 * time.Millisecond,
	}
	for i := 0; i < n; i++ {
		w.nodes = append(w.nodes, enode.New(enode.RandomID(rng), net.IPv4(10, 1, byte(i>>8), byte(i)), 30303, 30303))
	}
	return w
}

func (w *fakeWorld) Self() enode.ID { return w.self }

func (w *fakeWorld) Lookup(target enode.ID, done func([]*enode.Node)) {
	w.mu.Lock()
	i := w.lookupCount
	w.lookupCount++
	var found []*enode.Node
	for j := 0; j < w.lookupSize && len(w.nodes) > 0; j++ {
		found = append(found, w.nodes[(i*w.lookupSize+j)%len(w.nodes)])
	}
	w.mu.Unlock()
	// Lookups take 1 virtual second.
	w.clock.AfterFunc(time.Second, func() { done(found) })
}

func (w *fakeWorld) Dial(n *enode.Node, kind mlog.ConnType, done func(*DialResult)) {
	w.mu.Lock()
	w.dialCount[kind]++
	w.perNodeDial[n.ID]++
	fail := w.failAll
	w.mu.Unlock()
	start := w.clock.Now()
	w.clock.AfterFunc(w.dialLatency, func() {
		res := &DialResult{Node: n, Kind: kind, Start: start, Duration: w.dialLatency, RTT: 40 * time.Millisecond}
		if fail {
			res.Err = fmt.Errorf("connection refused")
		} else {
			res.Hello = &devp2p.Hello{Version: 5, Name: "Geth/v1.8.11", Caps: []devp2p.Cap{{Name: "eth", Version: 63}}}
		}
		done(res)
	})
}

func newTestFinder(t *testing.T, clock *simclock.Simulated, w *fakeWorld, col *mlog.Collector) *Finder {
	t.Helper()
	f, err := New(Config{
		Clock:     clock,
		Discovery: w,
		Dialer:    w,
		DB:        nodedb.New(),
		Log:       col,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidatesConfig(t *testing.T) {
	leakcheck.Check(t)
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestDiscoveryCadence(t *testing.T) {
	leakcheck.Check(t)
	// Lookup rounds must start no closer than LookupInterval apart:
	// with 4s interval and 1s lookups, one hour holds ≤900 rounds —
	// and with our timings exactly 900.
	clock := simclock.NewSimulated(t0)
	w := newFakeWorld(clock, 0) // empty world: no dial activity
	f := newTestFinder(t, clock, w, mlog.NewCollector())
	f.Start()
	clock.Advance(time.Hour)
	st := f.Stats()
	if st.DiscoveryAttempts < 890 || st.DiscoveryAttempts > 901 {
		t.Fatalf("discovery attempts in 1h = %d, want ≈900", st.DiscoveryAttempts)
	}
	f.Stop()
}

func TestDynamicDialsFollowDiscovery(t *testing.T) {
	leakcheck.Check(t)
	clock := simclock.NewSimulated(t0)
	w := newFakeWorld(clock, 300)
	col := mlog.NewCollector()
	f := newTestFinder(t, clock, w, col)
	f.Start()
	clock.Advance(10 * time.Minute)
	f.Stop()

	st := f.Stats()
	if st.DynamicDials == 0 {
		t.Fatal("no dynamic dials")
	}
	if st.SuccessfulConns == 0 {
		t.Fatal("no successes")
	}
	// All 300 nodes should be known and static by now.
	if st.KnownNodes != 300 {
		t.Fatalf("known nodes %d", st.KnownNodes)
	}
	if st.StaticListSize != 300 {
		t.Fatalf("static list %d", st.StaticListSize)
	}
	// Log entries recorded for every dial.
	if col.Len() != int(st.DynamicDials+st.StaticDials) {
		t.Fatalf("log %d entries, dials %d", col.Len(), st.DynamicDials+st.StaticDials)
	}
}

func TestConcurrencyLimit(t *testing.T) {
	leakcheck.Check(t)
	// With slow dials (longer than the advance window between
	// checks), active dynamic dials must never exceed 16.
	clock := simclock.NewSimulated(t0)
	w := newFakeWorld(clock, 500)
	w.dialLatency = 20 * time.Second
	f := newTestFinder(t, clock, w, mlog.NewCollector())
	f.Start()
	for i := 0; i < 100; i++ {
		clock.Advance(time.Second)
		f.mu.Lock()
		active := f.sched.active
		f.mu.Unlock()
		if active > DefaultMaxDynamicDials {
			t.Fatalf("active dials %d > %d", active, DefaultMaxDynamicDials)
		}
	}
	f.Stop()
}

func TestStaticRedialInterval(t *testing.T) {
	leakcheck.Check(t)
	// A successfully dialed node must be re-dialed as static roughly
	// every 30 minutes: ≤48/day to a single node (§5.2 / Figure 8).
	clock := simclock.NewSimulated(t0)
	w := newFakeWorld(clock, 1)
	w.lookupSize = 1
	f := newTestFinder(t, clock, w, mlog.NewCollector())
	f.Start()
	clock.Advance(24 * time.Hour)
	f.Stop()

	w.mu.Lock()
	perNode := w.perNodeDial[w.nodes[0].ID]
	statics := w.dialCount[mlog.ConnStaticDial]
	w.mu.Unlock()
	if statics == 0 {
		t.Fatal("no static dials")
	}
	// 24h / 30min = 48 maximum static dials.
	if statics > 48 {
		t.Fatalf("static dials %d > 48/day", statics)
	}
	if statics < 40 {
		t.Fatalf("static dials %d, want ≈44-48", statics)
	}
	if perNode < statics {
		t.Fatalf("per-node dials %d < statics %d", perNode, statics)
	}
}

func TestBootstrapNodesAreStaticDialed(t *testing.T) {
	leakcheck.Check(t)
	clock := simclock.NewSimulated(t0)
	w := newFakeWorld(clock, 0)
	f := newTestFinder(t, clock, w, mlog.NewCollector())
	boot := enode.New(enode.RandomID(rand.New(rand.NewSource(9))), net.IPv4(192, 0, 2, 1), 30303, 30303)
	f.AddStatic(boot)
	r := f.cfg.DB.Get(boot.ID)
	if !r.FirstSeen.Equal(t0) || !r.LastSuccess.Equal(t0) {
		t.Fatalf("bootstrap record stamped %v / %v, want the virtual %v", r.FirstSeen, r.LastSuccess, t0)
	}
	f.Start()
	clock.Advance(2 * time.Hour)
	f.Stop()
	if r.LastDial.Before(t0) || r.LastDial.After(clock.Now()) {
		t.Errorf("static dial stamped %v, want a virtual time", r.LastDial)
	}
	w.mu.Lock()
	dials := w.perNodeDial[boot.ID]
	w.mu.Unlock()
	// The first dial is at Start, then one per StaticInterval.
	if dials < 4 || dials > 5 {
		t.Fatalf("bootstrap static dials in 2h = %d, want 4-5", dials)
	}
}

func TestStaleNodesDropOffStaticList(t *testing.T) {
	leakcheck.Check(t)
	clock := simclock.NewSimulated(t0)
	w := newFakeWorld(clock, 10)
	f := newTestFinder(t, clock, w, mlog.NewCollector())
	f.Start()
	clock.Advance(30 * time.Minute) // populate
	if f.Stats().StaticListSize == 0 {
		t.Fatal("static list empty after warmup")
	}
	// Now all dials fail for >24h: nodes must be expired.
	w.mu.Lock()
	w.failAll = true
	w.mu.Unlock()
	clock.Advance(26 * time.Hour)
	if got := f.Stats().StaticListSize; got != 0 {
		t.Fatalf("static list still has %d entries after 26h of failures", got)
	}
	f.Stop()
}

func TestIncomingConnectionsLogged(t *testing.T) {
	leakcheck.Check(t)
	clock := simclock.NewSimulated(t0)
	w := newFakeWorld(clock, 1)
	col := mlog.NewCollector()
	f := newTestFinder(t, clock, w, col)
	reason := devp2p.DiscTooManyPeers
	f.HandleIncoming(&DialResult{
		Node:       w.nodes[0],
		Kind:       mlog.ConnIncoming,
		Start:      clock.Now(),
		Disconnect: &reason,
	})
	f.HandleIncoming(&DialResult{
		Node:  w.nodes[0],
		Kind:  mlog.ConnIncoming,
		Start: clock.Now(),
		Hello: &devp2p.Hello{Name: "Parity/v1.10.3"},
	})
	st := f.Stats()
	if st.IncomingConns != 2 || st.SuccessfulConns != 1 {
		t.Fatalf("stats %+v", st)
	}
	entries := col.Entries()
	if len(entries) != 2 {
		t.Fatalf("%d entries", len(entries))
	}
	if entries[0].DisconnectReason == nil || *entries[0].DisconnectReason != uint64(devp2p.DiscTooManyPeers) {
		t.Error("disconnect reason not logged")
	}
	if entries[1].Hello == nil || entries[1].Hello.ClientName != "Parity/v1.10.3" {
		t.Error("hello not logged")
	}
}

// TestIncomingRacesSweep: inbound connections refresh a static node's
// LastSuccess while the stale sweep reads it. Run under -race this is the proof that HandleIncoming
// writes the record under the database's lock; in any mode it checks
// that a node kept alive only by inbound handshakes never goes stale.
func TestIncomingRacesSweep(t *testing.T) {
	leakcheck.Check(t)
	clock := simclock.NewSimulated(t0)
	w := newFakeWorld(clock, 8)
	f := newTestFinder(t, clock, w, mlog.NewCollector())
	for _, n := range w.nodes {
		f.AddStatic(n)
	}
	const rounds = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			for _, n := range w.nodes {
				f.HandleIncoming(&DialResult{Node: n, Kind: mlog.ConnIncoming, Start: clock.Now(), Hello: &devp2p.Hello{Name: "Geth/v1.8.11"}})
			}
			clock.Advance(time.Hour) // not started: nothing dials the nodes
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			f.DB().ExpireStale(clock.Now(), 2*time.Hour)
			f.Stats()
		}
	}()
	wg.Wait()
	if got := f.Stats().StaticListSize; got != len(w.nodes) {
		t.Fatalf("%d of %d static nodes left: inbound handshakes did not keep them fresh", got, len(w.nodes))
	}
}

func TestStopHaltsScheduling(t *testing.T) {
	leakcheck.Check(t)
	clock := simclock.NewSimulated(t0)
	w := newFakeWorld(clock, 50)
	f := newTestFinder(t, clock, w, mlog.NewCollector())
	f.Start()
	clock.Advance(time.Minute)
	f.Stop()
	before := f.Stats().DiscoveryAttempts
	clock.Advance(time.Hour)
	after := f.Stats().DiscoveryAttempts
	// At most one in-flight round may complete after Stop.
	if after > before+1 {
		t.Fatalf("discovery continued after Stop: %d -> %d", before, after)
	}
}

func TestDeterministicUnderSimClock(t *testing.T) {
	leakcheck.Check(t)
	run := func() (Stats, int) {
		clock := simclock.NewSimulated(t0)
		w := newFakeWorld(clock, 120)
		col := mlog.NewCollector()
		f := newTestFinder(t, clock, w, col)
		f.Start()
		clock.Advance(20 * time.Minute)
		f.Stop()
		return f.Stats(), col.Len()
	}
	s1, n1 := run()
	s2, n2 := run()
	if s1.DynamicDials != s2.DynamicDials || s1.StaticDials != s2.StaticDials ||
		s1.DiscoveryAttempts != s2.DiscoveryAttempts || n1 != n2 {
		t.Fatalf("nondeterministic: %+v/%d vs %+v/%d", s1, n1, s2, n2)
	}
}

// countingClock tells real time but keeps its own ledger of timers:
// a zero delay fires at once on a new goroutine, anything later stays
// armed — and is never fired — until Stop cancels it, which also drops
// the callback. What the ledger holds is exactly what a clock would
// still be keeping alive.
type countingClock struct {
	simclock.System
	mu    sync.Mutex
	armed map[*countedTimer]func()
}

func (c *countingClock) AfterFunc(d time.Duration, fn func()) simclock.Timer {
	t := &countedTimer{clock: c, fn: fn}
	t.arm(d)
	return t
}

func (c *countingClock) armedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.armed)
}

type countedTimer struct {
	clock *countingClock
	fn    func()
}

func (t *countedTimer) arm(d time.Duration) {
	if d <= 0 {
		go t.fn()
		return
	}
	t.clock.mu.Lock()
	t.clock.armed[t] = t.fn
	t.clock.mu.Unlock()
}

func (t *countedTimer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	_, wasArmed := t.clock.armed[t]
	delete(t.clock.armed, t)
	return wasArmed
}

func (t *countedTimer) Reset(d time.Duration) bool {
	wasArmed := t.Stop()
	t.arm(d)
	return wasArmed
}

// asyncWorld answers every lookup with nothing and every dial with a
// refusal, on a fresh goroutine as the Discovery and Dialer contracts
// require, and can wait for the answers still in flight.
type asyncWorld struct {
	self     enode.ID
	inFlight sync.WaitGroup
}

func (d *asyncWorld) Self() enode.ID { return d.self }

func (d *asyncWorld) Lookup(_ enode.ID, done func([]*enode.Node)) {
	d.inFlight.Add(1)
	go func() {
		defer d.inFlight.Done()
		done(nil)
	}()
}

func (d *asyncWorld) Dial(n *enode.Node, kind mlog.ConnType, done func(*DialResult)) {
	d.inFlight.Add(1)
	go func() {
		defer d.inFlight.Done()
		done(&DialResult{Node: n, Kind: kind, Err: errors.New("connection refused")})
	}()
}

// startStopFinder runs a Finder's whole life on clock — lookup chains
// started, a static node dialed and its re-dial armed, the stale sweep
// armed — and returns with it stopped and no reference left in the
// caller. collected is closed when the Finder's world (its discovery
// and dialer) is freed: only the Finder holds it, so that is when the
// Finder went (the Finder itself cannot carry the finalizer, because
// its lookup callbacks point back at it and a finalizer never runs on
// a member of a cycle).
//
//go:noinline
func startStopFinder(t *testing.T, clock *countingClock) (collected chan struct{}) {
	const workers = 3
	world := &asyncWorld{self: enode.RandomID(rand.New(rand.NewSource(9)))}
	collected = make(chan struct{})
	runtime.SetFinalizer(world, func(*asyncWorld) { close(collected) })
	f, err := New(Config{
		Clock:         clock,
		Discovery:     world,
		Dialer:        world,
		LookupWorkers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.AddStatic(enode.New(enode.RandomID(rand.New(rand.NewSource(10))), net.IPv4(10, 2, 0, 1), 30303, 30303))
	f.Start()
	// Wait for every worker's first round, so each chain has re-armed
	// its timer (LookupInterval ahead) at least once, and for the static
	// node's dial at Start, whose failure re-arms its re-dial.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if st := f.Stats(); st.DiscoveryAttempts >= workers && st.FailedConns >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lookup workers or the static dial never ran")
		}
	}
	world.inFlight.Wait()
	if armed := clock.armedCount(); armed != workers+2 {
		t.Fatalf("%d timers armed while running, want %d (lookup chains, sweep, static re-dial)", armed, workers+2)
	}
	f.Stop()
	world.inFlight.Wait()
	return collected
}

// TestStopLeavesNoTimer: Stop must cancel everything the Finder armed.
// Under the real clock a surviving timer (the stale sweep is ten
// minutes out) keeps the Finder, its dialer, database and log alive
// long after the crawl is over. The clock outlives the Finder here, as
// the process-wide real clock does.
func TestStopLeavesNoTimer(t *testing.T) {
	leakcheck.Check(t)
	clock := &countingClock{armed: map[*countedTimer]func(){}}
	collected := startStopFinder(t, clock)
	if armed := clock.armedCount(); armed != 0 {
		t.Errorf("%d timers still armed after Stop", armed)
	}
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(5 * time.Second):
		t.Error("stopped Finder's dialer still reachable after a GC")
	}
}

// TestDialAddrMatchesTCPAddr: the address RealDialer dials is the one
// net.TCPAddr prints, which World.DialWire and net.Dial both parse.
func TestDialAddrMatchesTCPAddr(t *testing.T) {
	for _, ip := range []net.IP{net.IPv4(10, 0, 0, 7), net.ParseIP("2001:db8::1"), net.ParseIP("::1"), net.IP{192, 168, 1, 2}, nil} {
		n := enode.New(enode.ID{1}, ip, 30303, 30303)
		if got, want := dialAddr(n), n.TCPAddr().String(); got != want {
			t.Errorf("dialAddr(%v) = %q, want %q", ip, got, want)
		}
	}
}

// TestBytesPerIdentity reports what the Finder and its database hold
// for each identity discovery hands over — its nodeState, its record,
// the index entry, its ID and IP rendered as text, its two callbacks —
// and what answering once adds: the static re-dial timer. The paper's
// crawler met ≈3M identities; this figure times that is the crawler's
// share of memory at paper scale. The endpoints themselves belong to
// discovery and are not counted.
func TestBytesPerIdentity(t *testing.T) {
	const n, budget = 50_000, 1024
	clock := simclock.NewSimulated(t0)
	w := newFakeWorld(clock, n)
	f := newTestFinder(t, clock, w, mlog.NewCollector())
	heap := func() float64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc)
	}
	before := heap()
	f.mu.Lock()
	states := make([]*nodeState, 0, n)
	for _, node := range w.nodes {
		states = append(states, f.nodeLocked(node, t0))
	}
	f.mu.Unlock()
	met := heap()
	f.mu.Lock()
	for _, nd := range states {
		f.armLocked(&nd.timer, f.cfg.StaticInterval, nd.redial)
	}
	f.mu.Unlock()
	static := heap()
	runtime.KeepAlive(f)
	perMet := (met - before - float64(8*n)) / n // less the states slice
	perStatic := (static - before - float64(8*n)) / n
	t.Logf("%.0f bytes per identity met by discovery, %.0f once static", perMet, perStatic)
	if perStatic > budget {
		t.Errorf("%.0f bytes per static identity, budget %d", perStatic, budget)
	}
}

// mintingWorld answers every lookup with 16 identities never seen
// before and every dial with a HELLO, each on a fresh goroutine.
type mintingWorld struct {
	asyncWorld
	mu  sync.Mutex
	rng *rand.Rand
}

func (d *mintingWorld) Lookup(_ enode.ID, done func([]*enode.Node)) {
	d.mu.Lock()
	found := make([]*enode.Node, 16)
	for i := range found {
		found[i] = enode.New(enode.RandomID(d.rng), net.IPv4(10, 3, byte(i), 1), 30303, 30303)
	}
	d.mu.Unlock()
	d.inFlight.Add(1)
	go func() {
		defer d.inFlight.Done()
		done(found)
	}()
}

func (d *mintingWorld) Dial(n *enode.Node, kind mlog.ConnType, done func(*DialResult)) {
	d.inFlight.Add(1)
	go func() {
		defer d.inFlight.Done()
		done(&DialResult{Node: n, Kind: kind, Hello: &devp2p.Hello{Name: "Geth/v1.8.11"}})
	}()
}

// TestNodeTableGrowsUnderDials: four lookup chains grow the node
// table by several chunks, each on its own goroutine, while dial
// goroutines read the states they were handed and log through them.
// Run under -race this is the proof that growing the table moves no
// state a dial holds; in any mode, every log record names a node that
// was dialed, at its endpoint.
func TestNodeTableGrowsUnderDials(t *testing.T) {
	leakcheck.Check(t)
	clock := simclock.NewSimulated(t0)
	world := &mintingWorld{asyncWorld: asyncWorld{self: enode.ID{1}}, rng: rand.New(rand.NewSource(11))}
	col := mlog.NewCollector()
	f, err := New(Config{
		Clock:           clock,
		Discovery:       world,
		Dialer:          world,
		Log:             col,
		LookupWorkers:   4,
		MaxDynamicDials: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	for f.Stats().KnownNodes <= 3*nodeChunk {
		clock.Advance(DefaultLookupInterval) // every chain's next round
		world.inFlight.Wait()
	}
	f.Stop()
	entries := col.Entries()
	if len(entries) == 0 {
		t.Fatal("nothing dialed")
	}
	for _, e := range entries {
		id, err := enode.HexID(e.NodeID)
		if rec := f.DB().Get(id); err != nil || rec == nil || rec.IP.String() != e.IP {
			t.Fatalf("log record for %s at %s names no dialed node", e.NodeID[:8], e.IP)
		}
	}
}
