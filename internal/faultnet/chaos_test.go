package faultnet_test

import (
	"math/rand"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/crypto/secp256k1"
	"repro/internal/devp2p"
	"repro/internal/enode"
	"repro/internal/eth"
	"repro/internal/faultnet"
	"repro/internal/metrics"
	"repro/internal/nodefinder"
	"repro/internal/nodefinder/mlog"
	"repro/internal/simnet"
	"repro/internal/testutil/leakcheck"
)

func testKey(t testing.TB, seed int64) *secp256k1.PrivateKey {
	t.Helper()
	k, err := secp256k1.GenerateKey(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// pagedDiscovery deterministically pages through a fixed world, 16
// nodes per lookup, so a finite number of rounds surfaces every node
// — the chaos test wants full coverage, not discovery realism.
type pagedDiscovery struct {
	self   enode.ID
	mu     sync.Mutex
	nodes  []*enode.Node
	cursor int
}

func (d *pagedDiscovery) Self() enode.ID { return d.self }

func (d *pagedDiscovery) Lookup(target enode.ID, done func([]*enode.Node)) {
	go func() {
		d.mu.Lock()
		batch := make([]*enode.Node, 0, 16)
		for i := 0; i < 16; i++ {
			batch = append(batch, d.nodes[d.cursor%len(d.nodes)])
			d.cursor++
		}
		d.mu.Unlock()
		done(batch)
	}()
}

// serveHostile listens on an ephemeral loopback port and mounts kind
// on every accepted connection with ServeConn, returning the
// listener's node identity. Cleanup closes the listener and every
// connection and waits for each attack to end.
func serveHostile(t *testing.T, kind faultnet.HostileKind, key *secp256k1.PrivateKey, seed int64) *enode.Node {
	t.Helper()
	ln, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
		wg    sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			fd, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, fd)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer fd.Close()
				faultnet.ServeConn(kind, key, seed, fd)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	addr := ln.Addr().(*net.TCPAddr)
	return enode.New(enode.PubkeyID(&key.Pub), addr.IP, uint16(addr.Port), uint16(addr.Port))
}

// TestHostileTaxonomy dials every attack ServeConn mounts, served on
// its own loopback socket with no simulated world in between, with
// the real hardened dialer, and pins each to its expected bucket in
// the metrics error taxonomy within the dial budget.
// simnet.TestPromotedHostileTaxonomy holds the same attacks, projected
// onto world nodes, to SimDialer's outcome.
func TestHostileTaxonomy(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	leakcheck.Check(t, leakcheck.Window(10*time.Second))

	cases := []struct {
		kind    faultnet.HostileKind
		classes []string // acceptable OutcomeClass values
	}{
		{faultnet.HostileNeverAck, []string{"handshake-timeout"}},
		{faultnet.HostileHangAfterHandshake, []string{"tcp-timeout"}},
		{faultnet.HostileWrongMAC, []string{"rlpx-bad-mac"}},
		{faultnet.HostileGiantFrame, []string{"frame-oversize"}},
		{faultnet.HostileOversizedHello, []string{"msg-oversize"}},
		{faultnet.HostileBadRLPHello, []string{"rlp-malformed"}},
		{faultnet.HostileSnappyBomb, []string{"snappy-corrupt"}},
		{faultnet.HostileStatusFlood, []string{"eth-handshake"}},
		// The RST can beat the crawler's auth write, which then fails
		// as a broken pipe.
		{faultnet.HostileImmediateReset, []string{"tcp-reset", "rlpx-error", "error-other"}},
		{faultnet.HostileGarbage, []string{"rlpx-bad-handshake"}},
	}
	if len(cases) != int(faultnet.NumHostileKinds) {
		t.Fatalf("%d cases for %d hostile kinds", len(cases), faultnet.NumHostileKinds)
	}

	dialer := &nodefinder.RealDialer{
		Key: testKey(t, 1000),
		Hello: devp2p.Hello{
			Version:    devp2p.Version,
			Name:       "NodeFinder/chaos",
			Caps:       []devp2p.Cap{{Name: "eth", Version: 62}, {Name: "eth", Version: 63}},
			ListenPort: 30303,
		},
		Status:      eth.MainnetStatus(),
		DialTimeout: 2 * time.Second,
		Budget:      1500 * time.Millisecond,
	}

	type outcome struct {
		kind faultnet.HostileKind
		res  *nodefinder.DialResult
	}
	results := make(chan outcome, len(cases))
	for i, tc := range cases {
		target := serveHostile(t, tc.kind, testKey(t, 2000+int64(i)), int64(i))
		kind := tc.kind
		dialer.Dial(target, mlog.ConnDynamicDial, func(res *nodefinder.DialResult) {
			results <- outcome{kind, res}
		})
	}

	got := make(map[faultnet.HostileKind]string, len(cases))
	for range cases {
		select {
		case o := <-results:
			got[o.kind] = nodefinder.OutcomeClass(o.res)
		case <-time.After(20 * time.Second):
			t.Fatal("dials did not complete — a hostile peer defeated the dial budget")
		}
	}
	for _, tc := range cases {
		class, ok := got[tc.kind]
		if !ok {
			t.Errorf("%v: no result", tc.kind)
			continue
		}
		if !slices.Contains(tc.classes, class) {
			t.Errorf("%v classified as %q, want one of %v", tc.kind, class, tc.classes)
		}
	}
}

// TestChaosCrawl is the tentpole integration test: a full crawl of a
// mixed world — an event-driven simnet population whose honest nodes
// promote to live in-memory servers on dial, with ≥30% of the world
// conscripted into faultnet's hostile peer models — through a
// fault-injecting dialer. Idle nodes are pure state machines (no
// goroutine, no listener); only in-flight dials own real conn
// machinery. The crawler must build a complete census of the honest
// eth population, classify the hostile one in its error taxonomy,
// and finish with zero leaked goroutines and zero panics.
func TestChaosCrawl(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos integration test")
	}
	leakcheck.Check(t, leakcheck.Window(20*time.Second))

	const (
		baseNodes      = 220
		hostilePerKind = 7 // × NumHostileKinds = 70 hostile, ≥30% of the world
	)

	// The event-driven world: identities minted with real secp256k1
	// keys so promoted servers pass the crawler's RLPx identity check.
	// Everyone reachable with a free peer slot — the crawler is being
	// tested, not the census made unreachable.
	wcfg := simnet.DefaultConfig(77)
	wcfg.BaseNodes = baseNodes
	wcfg.AbusiveIPs = 0
	wcfg.UnreachableFraction = 0
	wcfg.WireFidelity = true
	w := simnet.NewWorld(wcfg)
	t.Cleanup(w.CloseWire)

	// Conscript every attack kind onto live nodes; the rest of the
	// population serves honest protocol when promoted.
	hostileAddrs := make(map[string]bool)
	hostileKind := make(map[string]faultnet.HostileKind)
	hostile := 0
	for _, n := range w.Nodes {
		if hostile < hostilePerKind*int(faultnet.NumHostileKinds) {
			n.Hostile = true
			n.HostileKind = faultnet.HostileKind(hostile % int(faultnet.NumHostileKinds))
			hostileAddrs[n.Node.TCPAddr().String()] = true
			hostileKind[n.Node.ID.String()] = n.HostileKind
			hostile++
			continue
		}
		n.Occupancy = 0
	}

	honestIDs := make(map[enode.ID]bool)
	var world []*enode.Node
	for _, n := range w.Nodes {
		world = append(world, n.Node)
		if !n.Hostile && n.Service == simnet.SvcEth {
			honestIDs[n.Node.ID] = true
		}
	}
	honestCount := len(honestIDs)
	total := len(world)
	if frac := float64(hostile) / float64(total); frac < 0.30 {
		t.Fatalf("hostile fraction %.2f below the 30%% the test contracts", frac)
	}
	if honestCount < 50 {
		t.Fatalf("only %d honest eth nodes in a %d-node world", honestCount, total)
	}

	// Wire faults on the crawler's own dials: benign delays toward
	// everyone, the full destructive schedule toward hostile peers
	// (honest conns must stay deliverable or the census cannot
	// converge).
	mild := &faultnet.Plan{
		Seed:       71,
		Weights:    map[faultnet.Kind]int{faultnet.None: 5, faultnet.Latency: 2, faultnet.SlowLoris: 1},
		Latency:    20 * time.Millisecond,
		LorisChunk: 256,
		LorisDelay: time.Millisecond,
	}
	harsh := faultnet.NewPlan(72)
	dialFunc := func(network, address string, timeout time.Duration) (net.Conn, error) {
		fd, err := w.DialWire(network, address, timeout)
		if err != nil {
			return nil, err
		}
		if hostileAddrs[address] {
			return harsh.Wrap(fd), nil
		}
		return mild.Wrap(fd), nil
	}

	reg := metrics.New()
	col := mlog.NewCollector()
	shuffled := append([]*enode.Node(nil), world...)
	rand.New(rand.NewSource(9)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	crawlKey := testKey(t, 9999)
	finder, err := nodefinder.New(nodefinder.Config{
		Discovery: &pagedDiscovery{self: enode.PubkeyID(&crawlKey.Pub), nodes: shuffled},
		Dialer: &nodefinder.RealDialer{
			Key: crawlKey,
			Hello: devp2p.Hello{
				Version:    devp2p.Version,
				Name:       "NodeFinder/chaos",
				Caps:       []devp2p.Cap{{Name: "eth", Version: 62}, {Name: "eth", Version: 63}},
				ListenPort: 30303,
			},
			Status:      eth.MainnetStatus(),
			DialTimeout: 5 * time.Second,
			// Generous budget: a timed-out honest dial costs a 5-minute
			// backoff, far past this test's horizon. On one loaded core,
			// 16 concurrent handshakes (client and server crypto both
			// in-process) need the headroom; the hostile stall attacks
			// are classified by the same budget, just slower.
			Budget:   8 * time.Second,
			DialFunc: dialFunc,
			Metrics:  nodefinder.NewDialerMetrics(reg),
		},
		Log:             col,
		Metrics:         reg,
		LookupInterval:  150 * time.Millisecond,
		StaticInterval:  time.Hour,
		MaxDynamicDials: 16,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	finder.Start()
	defer finder.Stop()

	// Convergence: every honest node appears in the census with a
	// completed eth handshake.
	censusHonest := func() int {
		seen := make(map[string]bool)
		for _, e := range col.Entries() {
			if e.Hello != nil && e.Status != nil {
				seen[e.NodeID] = true
			}
		}
		n := 0
		for id := range honestIDs {
			if seen[id.String()] {
				n++
			}
		}
		return n
	}
	// Wait for the honest census to converge AND for every node in
	// the world (hostile included) to have a recorded attempt — the
	// slow attacks take the full dial budget to classify.
	deadline := time.Now().Add(90 * time.Second)
	converged := 0
	for time.Now().Before(deadline) {
		converged = censusHonest()
		if converged == honestCount && reg.Snapshot().CounterSum("finder.conns") >= uint64(total) {
			break
		}
		time.Sleep(250 * time.Millisecond)
	}
	// Allow a node or two lost to loopback scheduling under -race;
	// anything more means the hostile 30% starved the honest crawl.
	if converged < honestCount-3 {
		seen := make(map[string][]string)
		for _, e := range col.Entries() {
			detail := "ok"
			if e.Err != "" {
				detail = e.Err
			}
			seen[e.NodeID] = append(seen[e.NodeID], detail)
		}
		for id := range honestIDs {
			if n := w.NodeByID(id); n != nil {
				if entries := seen[id.String()]; len(entries) == 0 || entries[len(entries)-1] != "ok" {
					t.Logf("missing honest node %s svc=%v net=%v entries=%v", id.String()[:8], n.Service, n.Network != nil, entries)
				}
			}
		}
		t.Fatalf("census converged on %d/%d honest nodes", converged, honestCount)
	}
	t.Logf("census: %d/%d honest nodes, %d total entries, fault draws: dialer=%v hostile-side=%v",
		converged, honestCount, col.Len(), mild.Counts(), harsh.Counts())
	if testing.Verbose() {
		for _, e := range col.Entries() {
			if k, ok := hostileKind[e.NodeID]; ok {
				t.Logf("hostile %-20v err=%q hello=%v status=%v", k, e.Err, e.Hello != nil, e.Status != nil)
			}
		}
	}

	// Every hostile attack the world mounts must be visible in the
	// error taxonomy — the metrics layer is how an operator would
	// notice a real-world attack.
	snap := reg.Snapshot()
	for _, class := range []string{
		"rlpx-bad-mac", "frame-oversize", "msg-oversize",
		"snappy-corrupt", "rlp-malformed", "handshake-timeout",
	} {
		if snap.Counter("finder.conn_errors{"+class+"}") == 0 {
			t.Errorf("error taxonomy never recorded %q", class)
		}
	}
	// The crawler must have attempted substantially the whole world.
	if attempts := snap.CounterSum("finder.conns"); attempts < uint64(total) {
		t.Errorf("only %d connection attempts for a %d-node world", attempts, total)
	}
	finder.Stop()
}
