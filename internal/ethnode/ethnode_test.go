// Package ethnode_test runs the crawler's real dial stack against an
// Ethereum node over loopback TCP. Every node it dials is a simnet
// World node served by World.ServeLoopback — the same serveWire every
// crawl dials — and each test checks what the crawler learns from one
// behaviour: HELLO, STATUS, the DAO-fork header and Table 1's
// disconnect reasons. The last two tests turn the direction round (a
// node dialing the crawler's listener) and crawl a served world end to
// end.
package ethnode_test

import (
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/crypto/secp256k1"
	"repro/internal/devp2p"
	"repro/internal/enode"
	"repro/internal/eth"
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

// loopbackWorld builds a small world whose nodes own real identities,
// so any of them can be served over TCP.
func loopbackWorld(t *testing.T, seed int64) *simnet.World {
	t.Helper()
	cfg := simnet.DefaultConfig(seed)
	cfg.BaseNodes = 40
	cfg.AbusiveIPs = 0
	cfg.UnreachableFraction = 0
	cfg.WireFidelity = true
	w := simnet.NewWorld(cfg)
	t.Cleanup(func() {
		// After a failure a serving goroutine may be stuck for good, and
		// CloseWire would wait on it until the package times out.
		if !t.Failed() {
			w.CloseWire()
		}
	})
	return w
}

// onlineHonest returns w's online honest nodes, in world order.
func onlineHonest(w *simnet.World) []*simnet.SimNode {
	now := w.Clock.Now()
	var out []*simnet.SimNode
	for _, n := range w.Nodes {
		if !n.Hostile && n.OnlineAt(now) {
			out = append(out, n)
		}
	}
	return out
}

// serve conscripts w's first online honest node, frees its peer slots,
// lets setup shape it and serves it on loopback TCP. It returns the
// node and its loopback identity.
func serve(t *testing.T, w *simnet.World, setup func(*simnet.SimNode)) (*simnet.SimNode, *enode.Node) {
	t.Helper()
	nodes := onlineHonest(w)
	if len(nodes) == 0 {
		t.Fatal("world has no online honest node")
	}
	n := nodes[0]
	n.Occupancy = 0
	setup(n)
	self, err := w.ServeLoopback(n)
	if err != nil {
		t.Fatal(err)
	}
	return n, self
}

// ethOn makes a node a synced eth node of nw.
func ethOn(nw *simnet.Network) func(*simnet.SimNode) {
	return func(n *simnet.SimNode) {
		n.Service, n.Network, n.Fresh = simnet.SvcEth, nw, simnet.FreshSynced
	}
}

func crawlerDialer(t *testing.T, seed int64, checkDAO bool) *nodefinder.RealDialer {
	t.Helper()
	return &nodefinder.RealDialer{
		Key: testKey(t, seed),
		Hello: devp2p.Hello{
			Version:    devp2p.Version,
			Name:       "NodeFinder/v1.0",
			Caps:       []devp2p.Cap{{Name: "eth", Version: 62}, {Name: "eth", Version: 63}},
			ListenPort: 30303,
		},
		Status:      eth.MainnetStatus(),
		DialTimeout: 3 * time.Second,
		CheckDAO:    checkDAO,
	}
}

func dial(t *testing.T, d *nodefinder.RealDialer, target *enode.Node) *nodefinder.DialResult {
	t.Helper()
	ch := make(chan *nodefinder.DialResult, 1)
	d.Dial(target, mlog.ConnDynamicDial, func(r *nodefinder.DialResult) { ch <- r })
	select {
	case res := <-ch:
		return res
	case <-time.After(30 * time.Second):
		t.Fatal("dial did not complete")
		return nil
	}
}

func TestFullHandshakeChain(t *testing.T) {
	leakcheck.Check(t)
	w := loopbackWorld(t, 1)
	n, self := serve(t, w, ethOn(w.Mainnet))
	res := dial(t, crawlerDialer(t, 100, true), self)
	if res.Err != nil {
		t.Fatalf("dial error: %v", res.Err)
	}
	if res.Hello == nil || res.Hello.ID != n.Node.ID || res.Hello.Name != w.ClientNameAt(n, w.Clock.Now()) {
		t.Fatalf("hello: %+v", res.Hello)
	}
	if res.Status == nil || res.Status.NetworkID != chain.MainnetNetworkID || res.Status.GenesisHash != w.Mainnet.GenesisHash {
		t.Fatalf("status: %+v", res.Status)
	}
	if !res.DAOChecked || res.DAOFork != eth.DAOForkSupported {
		t.Fatalf("DAO: checked=%v stance=%v", res.DAOChecked, res.DAOFork)
	}
	if res.Duration <= 0 {
		t.Error("duration not recorded")
	}
	deadline := time.Now().Add(2 * time.Second)
	for w.PromotedActive() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if w.PromotedActive() != 0 {
		t.Error("peer slot not freed after disconnect")
	}
}

func TestDAOOpposedDetected(t *testing.T) {
	leakcheck.Check(t)
	w := loopbackWorld(t, 2)
	_, self := serve(t, w, ethOn(w.Classic))
	res := dial(t, crawlerDialer(t, 101, true), self)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.DAOChecked || res.DAOFork != eth.DAOForkOpposed {
		t.Fatalf("checked=%v stance=%v", res.DAOChecked, res.DAOFork)
	}
}

func TestTooManyPeersDisconnect(t *testing.T) {
	leakcheck.Check(t)
	w := loopbackWorld(t, 5)
	_, self := serve(t, w, func(n *simnet.SimNode) {
		ethOn(w.Mainnet)(n)
		n.Occupancy = 1 // every peer slot taken
	})
	res := dial(t, crawlerDialer(t, 104, false), self)
	if res.Disconnect == nil || *res.Disconnect != devp2p.DiscTooManyPeers {
		t.Fatalf("expected Too many peers, got disc=%v err=%v", res.Disconnect, res.Err)
	}
	// A full node turns the crawler away before HELLO.
	if res.Hello != nil {
		t.Errorf("hello recorded from a full node: %+v", res.Hello)
	}
	if got := nodefinder.OutcomeClass(res); got != "too-many-peers" {
		t.Errorf("outcome class %q", got)
	}
}

func TestUselessPeerStillYieldsHello(t *testing.T) {
	leakcheck.Check(t)
	// When we advertise only bzz, the eth node rejects us as useless
	// — but NodeFinder already captured the HELLO, which is all the
	// DEVp2p census needs.
	w := loopbackWorld(t, 7)
	n, self := serve(t, w, ethOn(w.Mainnet))
	d := crawlerDialer(t, 105, false)
	d.Hello.Caps = []devp2p.Cap{{Name: "bzz", Version: 2}}
	res := dial(t, d, self)
	if res.Hello == nil || res.Hello.ID != n.Node.ID {
		t.Fatalf("no hello: %+v", res)
	}
	if res.Status != nil {
		t.Error("status should not exist without shared eth capability")
	}
}

func TestGenesisMismatchStillYieldsStatus(t *testing.T) {
	leakcheck.Check(t)
	w := loopbackWorld(t, 8)
	var other *simnet.Network
	for _, nw := range w.Networks {
		if nw.GenesisHash != w.Mainnet.GenesisHash {
			other = nw
			break
		}
	}
	if other == nil {
		t.Fatal("world has no chain with a foreign genesis")
	}
	_, self := serve(t, w, ethOn(other))
	res := dial(t, crawlerDialer(t, 106, false), self)
	if res.Status == nil {
		t.Fatalf("no status: err=%v disc=%v", res.Err, res.Disconnect)
	}
	if res.Status.GenesisHash != other.GenesisHash || res.Status.NetworkID != other.NetworkID {
		t.Errorf("wrong chain learned: %+v, want %s", res.Status, other.Name)
	}
}

func TestNonEthServiceNode(t *testing.T) {
	leakcheck.Check(t)
	// A Swarm-only node (no chain): HELLO works, then it cuts us off
	// as useless. These are the paper's "non-productive peers".
	w := loopbackWorld(t, 9)
	n, self := serve(t, w, func(n *simnet.SimNode) {
		n.Service, n.Network = simnet.SvcSwarm, nil
	})
	res := dial(t, crawlerDialer(t, 107, false), self)
	if res.Hello == nil || res.Hello.Name != w.ClientNameAt(n, w.Clock.Now()) {
		t.Fatalf("hello: %+v err=%v", res.Hello, res.Err)
	}
	if len(res.Hello.Caps) != 1 || res.Hello.Caps[0].Name != "bzz" {
		t.Errorf("caps: %v", res.Hello.Caps)
	}
	if res.Status != nil {
		t.Error("phantom status from non-eth node")
	}
}

// staticsOnly is a crawl's discovery when every node it dials is
// seeded as a static: a lookup finds nothing.
type staticsOnly struct{ self enode.ID }

func (d staticsOnly) Self() enode.ID { return d.self }

func (d staticsOnly) Lookup(_ enode.ID, done func([]*enode.Node)) { done(nil) }

func TestIncomingListenerCapturesDialingNodes(t *testing.T) {
	leakcheck.Check(t)
	if testing.Short() {
		t.Skip("integration test")
	}
	key := testKey(t, 210)
	col := mlog.NewCollector()
	finder, err := nodefinder.New(nodefinder.Config{
		Discovery: staticsOnly{self: enode.PubkeyID(&key.Pub)},
		Dialer:    crawlerDialer(t, 212, false), // the finder is never started
		Log:       col,
	})
	if err != nil {
		t.Fatal(err)
	}
	listener, err := nodefinder.ListenIncoming("", key, devp2p.Hello{
		Version: devp2p.Version,
		Name:    "NodeFinder/v1.0",
		Caps:    []devp2p.Cap{{Name: "eth", Version: 62}, {Name: "eth", Version: 63}},
	}, eth.MainnetStatus(), finder)
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()
	port := uint16(listener.Addr().Port)
	crawlerNode := enode.New(enode.PubkeyID(&key.Pub), net.IPv4(127, 0, 0, 1), port, port)

	// A Geth node dials the crawler with the real dial stack: RLPx,
	// HELLO, then a Mainnet STATUS.
	const name = "Geth/v1.8.11-stable/linux-amd64/go1.10"
	peer := crawlerDialer(t, 211, false)
	peer.Hello.Name = name
	res := dial(t, peer, crawlerNode)
	if res.Hello == nil || res.Hello.ID != crawlerNode.ID {
		t.Fatalf("dialing node saw hello %+v err=%v", res.Hello, res.Err)
	}

	// HandleIncoming counts the connection before it logs it: wait for
	// the record, which comes last.
	deadline := time.Now().Add(5 * time.Second)
	for col.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if finder.Stats().IncomingConns == 0 {
		t.Fatal("listener never saw an incoming connection")
	}
	// The census must hold the dialing node's identity.
	peerID := enode.PubkeyID(&peer.Key.Pub)
	found := false
	for _, e := range col.Entries() {
		if e.ConnType == mlog.ConnIncoming && e.Hello != nil && e.Hello.ClientName == name {
			found = true
			if e.NodeID != peerID.String() {
				t.Errorf("inbound entry for %s, want %s", e.NodeID, peerID)
			}
			if e.Status == nil {
				t.Error("incoming session captured no STATUS")
			}
		}
	}
	if !found {
		t.Fatalf("census missing the inbound peer (entries=%d)", col.Len())
	}
}

func TestEndToEndCrawl(t *testing.T) {
	leakcheck.Check(t)
	// The headline integration test: a NodeFinder over the real stack
	// (RLPx + DEVp2p + eth over loopback sockets) crawls a small
	// served world and produces census-grade logs.
	if testing.Short() {
		t.Skip("integration test")
	}
	w := loopbackWorld(t, 20)
	now := w.Clock.Now()
	nodes := onlineHonest(w)
	if len(nodes) > 8 {
		nodes = nodes[:8]
	}
	if len(nodes) < 4 {
		t.Fatalf("only %d online honest nodes", len(nodes))
	}
	ethOn(w.Mainnet)(nodes[0]) // at least one node answers the DAO check

	key := testKey(t, 30)
	col := mlog.NewCollector()
	finder, err := nodefinder.New(nodefinder.Config{
		Discovery:       staticsOnly{self: enode.PubkeyID(&key.Pub)},
		Dialer:          crawlerDialer(t, 31, true),
		Log:             col,
		StaticInterval:  2 * time.Second,
		MaxDynamicDials: 16,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, n := range nodes {
		n.Occupancy = 0
		self, err := w.ServeLoopback(n)
		if err != nil {
			t.Fatal(err)
		}
		finder.AddStatic(self)
		names[w.ClientNameAt(n, now)] = true
	}
	finder.Start()
	defer finder.Stop()

	deadline := time.Now().Add(15 * time.Second)
	for finder.Stats().SuccessfulConns < uint64(len(nodes)) && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if st := finder.Stats(); st.SuccessfulConns < uint64(len(nodes)) {
		t.Fatalf("crawled only %d of %d nodes: %+v", st.SuccessfulConns, len(nodes), st)
	}

	// The census must contain every client name in the world.
	seen := map[string]bool{}
	for _, e := range col.Entries() {
		if e.Hello != nil {
			seen[e.Hello.ClientName] = true
		}
	}
	for name := range names {
		if !seen[name] {
			t.Errorf("census missing %s (saw %v)", name, seen)
		}
	}
	// Status and DAO data must be present for crawled Mainnet peers.
	hasStatus, hasDAO := false, false
	for _, e := range col.Entries() {
		if e.Status != nil {
			hasStatus = true
		}
		if e.DAOFork == "supported" {
			hasDAO = true
		}
	}
	if !hasStatus || !hasDAO {
		t.Errorf("status=%v dao=%v", hasStatus, hasDAO)
	}
}
