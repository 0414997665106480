package simnet_test

import (
	"math/big"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/chain"
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

func wireWorld(t *testing.T, seed int64, reg *metrics.Registry) *simnet.World {
	t.Helper()
	cfg := simnet.DefaultConfig(seed)
	cfg.BaseNodes = 120
	cfg.AbusiveIPs = 0
	cfg.UnreachableFraction = 0
	cfg.WireFidelity = true
	cfg.Metrics = reg
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

func wireKey(t *testing.T, seed int64) *secp256k1.PrivateKey {
	t.Helper()
	k, err := secp256k1.GenerateKey(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func wireDialer(t *testing.T, w *simnet.World, budget time.Duration) *nodefinder.RealDialer {
	t.Helper()
	return &nodefinder.RealDialer{
		Key: wireKey(t, 4242),
		Hello: devp2p.Hello{
			Version:    devp2p.Version,
			Name:       "NodeFinder/wire",
			Caps:       []devp2p.Cap{{Name: "eth", Version: 62}, {Name: "eth", Version: 63}},
			ListenPort: 30303,
		},
		DialTimeout: time.Second,
		Budget:      budget,
		CheckDAO:    true,
		DialFunc:    w.DialWire,
	}
}

// honestMainnetNode picks an online honest Mainnet node and frees its
// peer slots, so a dial to it runs the full chain instead of drawing
// a too-many-peers disconnect.
func honestMainnetNode(t *testing.T, w *simnet.World) *simnet.SimNode {
	t.Helper()
	now := w.Clock.Now()
	for _, n := range w.Nodes {
		if n.Service == simnet.SvcEth && !n.Hostile && n.Network != nil &&
			n.Network.NetworkID == 1 && n.Network.DAOFork && n.OnlineAt(now) {
			n.Occupancy = 0
			return n
		}
	}
	t.Fatal("no online mainnet node in world")
	return nil
}

func dialOne(t *testing.T, d *nodefinder.RealDialer, n *enode.Node) *nodefinder.DialResult {
	t.Helper()
	ch := make(chan *nodefinder.DialResult, 1)
	d.Dial(n, mlog.ConnDynamicDial, func(res *nodefinder.DialResult) { ch <- res })
	select {
	case res := <-ch:
		return res
	case <-time.After(30 * time.Second):
		t.Fatal("dial did not complete")
		return nil
	}
}

// TestPromotedHonestDial promotes an honest Mainnet node and runs the
// real establishment chain against it end to end: RLPx with the
// node's minted identity, HELLO, STATUS, and the DAO-fork header
// check — the full path a live crawl takes, with zero sockets.
func TestPromotedHonestDial(t *testing.T) {
	leakcheck.Check(t)
	reg := metrics.New()
	w := wireWorld(t, 7, reg)
	target := honestMainnetNode(t, w)

	res := dialOne(t, wireDialer(t, w, 10*time.Second), target.Node)
	if res.Err != nil {
		t.Fatalf("dial failed: %v", res.Err)
	}
	if class := nodefinder.OutcomeClass(res); class != "eth-handshake" {
		t.Fatalf("outcome %q, want eth-handshake", class)
	}
	if res.Hello == nil || res.Hello.ID != target.Node.ID {
		t.Fatalf("hello identity mismatch: %+v", res.Hello)
	}
	if res.Status == nil || res.Status.NetworkID != 1 {
		t.Fatalf("status mismatch: %+v", res.Status)
	}
	if !res.DAOChecked {
		t.Fatal("DAO fork was not checked against the promoted node")
	}
	if res.DAOFork != eth.DAOForkSupported && res.DAOFork != eth.DAOForkUnknown {
		t.Fatalf("mainnet node classified %v", res.DAOFork)
	}

	// The connection is over: the node must be demoted.
	waitDemoted(t, w, 0)
	snap := reg.Snapshot()
	if p, d := snap.Counter("simnet.promotions"), snap.Counter("simnet.demotions"); p != 1 || d != 1 {
		t.Fatalf("promotions=%d demotions=%d, want 1/1", p, d)
	}
}

// TestOneDialCannotChangeAnother: what World.answer shares between
// dials — a service's caps, a client name, a head's STATUS — is
// read-only. Wire sessions that negotiate eth/62 and eth/63 and hand
// the node a HELLO and STATUS of their own, run while another node at
// the same head is answered (under -race, a write to a shared value
// races with those reads), leave that node's answer as it was, down to
// the STATUS the two nodes share.
func TestOneDialCannotChangeAnother(t *testing.T) {
	w := wireWorld(t, 7, nil)
	now := w.Clock.Now()
	var a, b *simnet.SimNode
	for _, n := range w.Nodes {
		if n.Service != simnet.SvcEth || n.Hostile || n.Network != w.Mainnet || !n.OnlineAt(now) {
			continue
		}
		if a == nil {
			a = n
		} else if n.BestBlockAt(now) == a.BestBlockAt(now) {
			b = n
			break
		}
	}
	if b == nil {
		t.Fatal("no two online Mainnet nodes at one head")
	}
	a.Occupancy, b.Occupancy = 0, 0
	sim := w.NewDialer(1)
	answer := func() *nodefinder.DialResult { return sim.OutcomeAt(b.Node, mlog.ConnDynamicDial, now) }
	before := answer()
	if sim.OutcomeAt(a.Node, mlog.ConnDynamicDial, now).Status != before.Status {
		t.Fatal("two nodes at one head answer with STATUSes of their own: nothing here is shared")
	}
	wantHello := *before.Hello
	wantHello.Caps = append([]devp2p.Cap(nil), before.Hello.Caps...)
	wantStatus := *before.Status
	wantStatus.TD = new(big.Int).Set(before.Status.TD)

	// Four sessions at once, then an eth/62 one last, so a session that
	// wrote its version into the shared STATUS leaves it written.
	results := make(chan *nodefinder.DialResult, 5)
	dial := func(i int) {
		d := wireDialer(t, w, 10*time.Second)
		d.Status = eth.Status{NetworkID: 1, TD: big.NewInt(1 << 40), BestHash: chain.Hash{byte(i)}, GenesisHash: chain.MainnetGenesisHash}
		if i%2 == 0 {
			d.Hello.Caps = []devp2p.Cap{{Name: "eth", Version: 62}}
		}
		d.Dial(a.Node, mlog.ConnDynamicDial, func(res *nodefinder.DialResult) { results <- res })
	}
	versions := map[uint32]int{}
	collect := func() {
		res := <-results
		if res.Status == nil || !res.DAOChecked {
			t.Fatalf("dial: STATUS %+v, DAO checked %v, err %v", res.Status, res.DAOChecked, res.Err)
		}
		versions[res.Status.ProtocolVersion]++
	}
	for i := range 4 {
		dial(i)
	}
	for range 50 {
		answer()
	}
	for range 4 {
		collect()
	}
	dial(4)
	collect()
	if versions[62] != 3 || versions[63] != 2 {
		t.Fatalf("negotiated eth versions %v, want three sessions at 62 and two at 63", versions)
	}

	after := answer()
	if !reflect.DeepEqual(*after.Hello, wantHello) {
		t.Errorf("HELLO after another node's dials: %+v, want %+v", *after.Hello, wantHello)
	}
	got := *after.Status
	if got.TD.Cmp(wantStatus.TD) != 0 {
		t.Errorf("TD after another node's dials: %v, want %v", got.TD, wantStatus.TD)
	}
	if got.TD, wantStatus.TD = nil, nil; !reflect.DeepEqual(got, wantStatus) {
		t.Errorf("STATUS after another node's dials: %+v, want %+v", got, wantStatus)
	}
}

// TestServeLoopback serves an honest Mainnet node over real TCP: a
// socket dial runs the full chain through the same promotion as
// DialWire, counters included, and CloseWire closes the listener along
// with the conns, leaving no socket or goroutine behind.
func TestServeLoopback(t *testing.T) {
	leakcheck.Check(t)
	reg := metrics.New()
	w := wireWorld(t, 7, reg)
	target := honestMainnetNode(t, w)
	served, err := w.ServeLoopback(target)
	if err != nil {
		t.Fatal(err)
	}
	if served.ID != target.Node.ID || !served.IP.IsLoopback() {
		t.Fatalf("served as %v", served)
	}
	d := wireDialer(t, w, 10*time.Second)
	d.DialFunc = nil
	res := dialOne(t, d, served)
	if class := nodefinder.OutcomeClass(res); class != "eth-handshake" || !res.DAOChecked || res.Hello.ID != target.Node.ID {
		t.Fatalf("outcome %q (DAO checked %v): %v", class, res.DAOChecked, res.Err)
	}
	waitDemoted(t, w, 0)
	snap := reg.Snapshot()
	if p, d := snap.Counter("simnet.promotions"), snap.Counter("simnet.demotions"); p != 1 || d != 1 {
		t.Fatalf("promotions=%d demotions=%d, want 1/1", p, d)
	}

	w.CloseWire()
	if class := nodefinder.OutcomeClass(dialOne(t, d, served)); class != "tcp-refused" {
		t.Errorf("dial after CloseWire: %q, want tcp-refused", class)
	}
	if _, err := w.ServeLoopback(target); err == nil {
		t.Error("ServeLoopback after CloseWire succeeded")
	}
	cfg := simnet.DefaultConfig(7)
	cfg.BaseNodes = 20
	analytic := simnet.NewWorld(cfg)
	if _, err := analytic.ServeLoopback(analytic.Nodes[0]); err == nil {
		t.Error("an analytic world served a node it holds no key for")
	}
}

// TestRealDialerOnVirtualTime dials with the world's own frozen clock:
// every time a RealDialer reports, and the STATUS the world serves,
// must come from that clock, on the connected path and the refused one
// alike, while the budget deadline stays on wall time (a virtual one
// would already have expired).
func TestRealDialerOnVirtualTime(t *testing.T) {
	leakcheck.Check(t)
	w := wireWorld(t, 7, metrics.New())
	d := wireDialer(t, w, 0)
	d.Clock = w.Clock
	now := w.Clock.Now()
	target := honestMainnetNode(t, w)
	stranger := enode.New(enode.RandomID(rand.New(rand.NewSource(1))), net.IP{10, 9, 9, 9}, 30303, 30303)
	for i, n := range []*enode.Node{target.Node, stranger} {
		res := dialOne(t, d, n)
		if want := target.Network.BestHashAt(target.BestBlockAt(now)); i == 0 && (res.Status == nil || res.Status.BestHash != want) {
			t.Errorf("served STATUS is not the virtual now's (best hash %x)", want)
		}
		if class, want := nodefinder.OutcomeClass(res), []string{"eth-handshake", "tcp-refused"}[i]; class != want {
			t.Errorf("dial %d: outcome %q (err=%v), want %q", i, class, res.Err, want)
		}
		if !res.Start.Equal(now) || res.RTT != 0 || res.Duration != 0 {
			t.Errorf("dial %d: Start %v, RTT %v, Duration %v; want %v, 0, 0 on the frozen clock",
				i, res.Start, res.RTT, res.Duration, now)
		}
	}
}

// TestPromotedOfflineAndUnknownDials pins the analytic failure shapes:
// addresses outside the world refuse, NAT'd nodes time out, offline
// nodes refuse — all without promoting anything.
func TestPromotedOfflineAndUnknownDials(t *testing.T) {
	leakcheck.Check(t)
	reg := metrics.New()
	w := wireWorld(t, 11, reg)
	d := wireDialer(t, w, time.Second)

	stranger := enode.New(enode.RandomID(rand.New(rand.NewSource(1))), net.IP{10, 9, 9, 9}, 30303, 30303)
	if res := dialOne(t, d, stranger); nodefinder.OutcomeClass(res) != "tcp-refused" {
		t.Fatalf("unknown address: %v", res.Err)
	}

	nat := w.Nodes[0]
	nat.Reachable = false
	if res := dialOne(t, d, nat.Node); nodefinder.OutcomeClass(res) != "tcp-timeout" {
		t.Fatalf("NAT'd node: %v", res.Err)
	}

	if got := reg.Snapshot().Counter("simnet.promotions"); got != 0 {
		t.Fatalf("analytic failures promoted %d nodes", got)
	}
}

// TestPromotedHostileTaxonomy is the hostile half of the SimDialer
// versus wire differential (TestSimDialerMatchesWire is the honest
// half): it projects every faultnet attack onto a promoted node,
// dials it over an in-memory pipe and over loopback TCP with the
// hardened RealDialer, and pins each attack to its bucket in the error
// taxonomy, to SimDialer's outcome for the same node, and to an end
// within the dial budget.
func TestPromotedHostileTaxonomy(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	leakcheck.Check(t, leakcheck.Window(10*time.Second))
	w := wireWorld(t, 23, nil)
	now := w.Clock.Now()
	online := func(n *simnet.SimNode) bool { return n.OnlineAt(now) }
	attack := func(kind faultnet.HostileKind) func(*simnet.SimNode) {
		return func(n *simnet.SimNode) { n.Hostile, n.HostileKind = true, kind }
	}
	reset := "a pipe has no RST: the reset arrives as an EOF in the RLPx handshake"
	runDifferential(t, w, []dialCase{
		{name: "never-ack", pick: online, setup: attack(faultnet.HostileNeverAck), classes: []string{"handshake-timeout"}},
		{name: "hang-after-handshake", pick: online, setup: attack(faultnet.HostileHangAfterHandshake), classes: []string{"tcp-timeout"}},
		{name: "wrong-mac", pick: online, setup: attack(faultnet.HostileWrongMAC), classes: []string{"rlpx-bad-mac"}},
		{name: "giant-frame", pick: online, setup: attack(faultnet.HostileGiantFrame), classes: []string{"frame-oversize"}},
		{name: "oversized-hello", pick: online, setup: attack(faultnet.HostileOversizedHello), classes: []string{"msg-oversize"}},
		{name: "bad-rlp-hello", pick: online, setup: attack(faultnet.HostileBadRLPHello), classes: []string{"rlp-malformed"}},
		{name: "snappy-bomb", pick: online, setup: attack(faultnet.HostileSnappyBomb), classes: []string{"snappy-corrupt"}},
		{name: "status-flood", pick: online, setup: attack(faultnet.HostileStatusFlood), classes: []string{"eth-handshake"}},
		{name: "immediate-reset", pick: online, setup: attack(faultnet.HostileImmediateReset),
			classes: []string{"tcp-reset", "rlpx-error", "error-other"},
			diverge: map[string]string{
				overPipe:     reset,
				overLoopback: "the RST can beat the crawler's auth write, which then fails as a broken pipe",
			}},
		{name: "garbage", pick: online, setup: attack(faultnet.HostileGarbage), classes: []string{"rlpx-bad-handshake"}},
	})
}

// TestPromoteDemoteChurn hammers the promotion lifecycle: many
// sequential dials against a mixed honest/hostile population, then a
// CloseWire, must leave zero promoted connections and zero goroutines.
func TestPromoteDemoteChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	leakcheck.Check(t, leakcheck.Window(10*time.Second))
	reg := metrics.New()
	w := wireWorld(t, 31, reg)
	now := w.Clock.Now()
	d := wireDialer(t, w, 500*time.Millisecond)

	dials := 0
	for _, n := range w.Nodes {
		if !n.OnlineAt(now) {
			continue
		}
		if res := dialOne(t, d, n.Node); res == nil {
			t.Fatal("nil result")
		}
		dials++
		if dials == 40 {
			break
		}
	}
	// Every dialer has hung up, so every serving goroutine must demote
	// on its own; CloseWire would sever a stuck one and hide it.
	waitDemoted(t, w, 0)
	w.CloseWire()
	if active := w.PromotedActive(); active != 0 {
		t.Fatalf("%d connections still promoted after CloseWire", active)
	}
	snap := reg.Snapshot()
	p, dem := snap.Counter("simnet.promotions"), snap.Counter("simnet.demotions")
	if p == 0 || p != dem {
		t.Fatalf("promotions=%d demotions=%d, want equal and non-zero", p, dem)
	}
	if p > uint64(dials) {
		t.Fatalf("%d promotions for %d dials", p, dials)
	}
}

// waitDemoted polls briefly for the serving goroutines' deferred
// demotion to land; the dialer's Close returns before the server side
// finishes observing it.
func waitDemoted(t *testing.T, w *simnet.World, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if w.PromotedActive() == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("promoted connections stuck at %d, want %d", w.PromotedActive(), want)
}
