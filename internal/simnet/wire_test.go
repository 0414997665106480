package simnet_test

import (
	"math/rand"
	"net"
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

// TestPromotedHostileTaxonomy projects every faultnet attack onto
// promoted nodes and pins each to its bucket in the error taxonomy —
// the same contract TestHostileTaxonomy pins for listener-backed
// hostile servers, now with the attack riding an in-memory promotion.
func TestPromotedHostileTaxonomy(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	leakcheck.Check(t, leakcheck.Window(10*time.Second))
	reg := metrics.New()
	w := wireWorld(t, 23, reg)
	now := w.Clock.Now()

	cases := []struct {
		kind    faultnet.HostileKind
		classes []string
	}{
		{faultnet.HostileNeverAck, []string{"handshake-timeout"}},
		{faultnet.HostileHangAfterHandshake, []string{"tcp-timeout", "handshake-timeout"}},
		{faultnet.HostileWrongMAC, []string{"rlpx-bad-mac"}},
		{faultnet.HostileGiantFrame, []string{"frame-oversize"}},
		{faultnet.HostileOversizedHello, []string{"msg-oversize"}},
		{faultnet.HostileBadRLPHello, []string{"rlp-malformed"}},
		{faultnet.HostileSnappyBomb, []string{"snappy-corrupt"}},
		{faultnet.HostileStatusFlood, []string{"eth-handshake"}},
		// No TCP under the pipe: the reset degrades to an EOF during
		// the RLPx handshake rather than an ECONNRESET.
		{faultnet.HostileImmediateReset, []string{"tcp-reset", "rlpx-error", "error-other"}},
		{faultnet.HostileGarbage, []string{"rlpx-bad-handshake", "rlpx-error"}},
	}

	// Conscript one online node per attack kind.
	var conscripts []*simnet.SimNode
	for _, n := range w.Nodes {
		if n.OnlineAt(now) {
			conscripts = append(conscripts, n)
		}
		if len(conscripts) == len(cases) {
			break
		}
	}
	if len(conscripts) < len(cases) {
		t.Fatalf("only %d online nodes for %d attacks", len(conscripts), len(cases))
	}

	d := wireDialer(t, w, 1500*time.Millisecond)
	for i, tc := range cases {
		n := conscripts[i]
		n.Hostile = true
		n.HostileKind = tc.kind
		res := dialOne(t, d, n.Node)
		class := nodefinder.OutcomeClass(res)
		matched := false
		for _, want := range tc.classes {
			if class == want {
				matched = true
			}
		}
		if !matched {
			t.Errorf("%v classified as %q (err=%v), want one of %v", tc.kind, class, res.Err, tc.classes)
		}
	}
	waitDemoted(t, w, 0)
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
