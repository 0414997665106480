package simnet

import (
	"testing"
	"time"

	"repro/internal/devp2p"
	"repro/internal/enode"
	"repro/internal/faultnet"
	"repro/internal/metrics"
	"repro/internal/nodefinder"
	"repro/internal/nodefinder/mlog"
	"repro/internal/testutil/leakcheck"
)

func smallWorld(seed int64, nodes int) *World {
	cfg := DefaultConfig(seed)
	cfg.BaseNodes = nodes
	cfg.AbusiveIPs = 2
	cfg.AbusiveRate = 10 * time.Minute
	return NewWorld(cfg)
}

func TestPopulationShape(t *testing.T) {
	leakcheck.Check(t)
	w := smallWorld(1, 2000)
	svc := map[Service]int{}
	clients := map[ClientType]int{}
	mainnet, reachable := 0, 0
	for _, n := range w.Nodes {
		svc[n.Service]++
		if n.Service == SvcEth {
			clients[n.Client]++
			if n.Network == w.Mainnet {
				mainnet++
			}
		}
		if n.Reachable {
			reachable++
		}
	}
	total := len(w.Nodes)
	ethShare := float64(svc[SvcEth]) / float64(total)
	if ethShare < 0.91 || ethShare > 0.97 {
		t.Errorf("eth share %.3f, want ≈0.94", ethShare)
	}
	gethShare := float64(clients[ClientGeth]) / float64(svc[SvcEth])
	if gethShare < 0.72 || gethShare > 0.81 {
		t.Errorf("geth share %.3f, want ≈0.766", gethShare)
	}
	mainShare := float64(mainnet) / float64(svc[SvcEth])
	if mainShare < 0.50 || mainShare > 0.61 {
		t.Errorf("mainnet share %.3f, want ≈0.55", mainShare)
	}
	reachShare := float64(reachable) / float64(total)
	if reachShare < 0.40 || reachShare > 0.51 {
		t.Errorf("reachable share %.3f, want ≈0.45", reachShare)
	}
}

func TestAbusiveGenerators(t *testing.T) {
	leakcheck.Check(t)
	w := smallWorld(2, 100)
	before := len(w.Nodes)
	w.Clock.Advance(12 * time.Hour)
	after := len(w.Nodes)
	minted := after - before
	// 2 IPs minting "every 30 minutes or faster" (§5.4): with a
	// 10-minute configured rate, ≈8/hour/IP.
	if minted < 60 || minted > 300 {
		t.Fatalf("minted %d abusive identities in 12h", minted)
	}
	count := 0
	for _, n := range w.Nodes[before:] {
		if !n.Abusive {
			t.Fatal("minted node not marked abusive")
		}
		if w.ClientNameAt(n, w.Clock.Now()) != "ethereumjs-devp2p/v1.0.0" {
			t.Fatal("abusive node has wrong client string")
		}
		if n.Died.Sub(n.Born) > 30*time.Minute {
			t.Fatal("abusive identity lives too long")
		}
		count++
	}
	// All minted nodes come from the registered abusive IPs.
	ipSet := map[string]bool{}
	for _, ip := range w.AbusiveAddrs {
		ipSet[ip.String()] = true
	}
	for _, n := range w.Nodes[before:] {
		if !ipSet[n.Node.IP.String()] {
			t.Fatal("abusive node from unregistered IP")
		}
	}
}

func TestVersionLifecycle(t *testing.T) {
	leakcheck.Check(t)
	w := smallWorld(3, 500)
	early := w.Cfg.Start
	late := early.Add(80 * 24 * time.Hour)
	upgraded := 0
	checked := 0
	for _, n := range w.Nodes {
		if n.Client != ClientGeth || n.PinnedVersion != "" {
			continue
		}
		v1 := w.ClientNameAt(n, early)
		v2 := w.ClientNameAt(n, late)
		checked++
		if v1 != v2 {
			upgraded++
		}
	}
	if checked == 0 {
		t.Fatal("no geth nodes")
	}
	if float64(upgraded)/float64(checked) < 0.5 {
		t.Errorf("only %d/%d geth nodes upgraded over 80 days", upgraded, checked)
	}
}

func TestFreshnessModel(t *testing.T) {
	leakcheck.Check(t)
	w := smallWorld(4, 2000)
	now := w.Cfg.Start.Add(5 * 24 * time.Hour)
	head := w.Mainnet.HeadAt(now)
	stale, synced, stuckByz := 0, 0, 0
	for _, n := range w.Nodes {
		if n.Service != SvcEth || n.Network != w.Mainnet {
			continue
		}
		best := n.BestBlockAt(now)
		switch {
		case best == 4_370_001:
			stuckByz++
			stale++
		case head-best > 100:
			stale++
		default:
			synced++
		}
	}
	total := stale + synced
	frac := float64(stale) / float64(total)
	if frac < 0.25 || frac > 0.42 {
		t.Errorf("stale fraction %.3f, want ≈0.33", frac)
	}
	if stuckByz == 0 {
		t.Error("no Byzantium-stuck nodes")
	}
}

// crawl runs a NodeFinder against a world for a virtual duration.
func crawl(t *testing.T, w *World, d time.Duration, incomingMean time.Duration) (*nodefinder.Finder, *mlog.Collector) {
	t.Helper()
	col := mlog.NewCollector()
	f, err := nodefinder.New(nodefinder.Config{
		Clock:     w.Clock,
		Discovery: w.NewDiscovery(100),
		Dialer:    w.NewDialer(200),
		Log:       col,
		Seed:      300,
	})
	if err != nil {
		t.Fatal(err)
	}
	var gen *IncomingGenerator
	if incomingMean > 0 {
		gen = w.StartIncoming(f, incomingMean, 400)
	}
	f.Start()
	w.Clock.Advance(d)
	f.Stop()
	if gen != nil {
		gen.Stop()
	}
	return f, col
}

func TestCrawlDiscoversPopulation(t *testing.T) {
	leakcheck.Check(t)
	w := smallWorld(5, 400)
	f, col := crawl(t, w, 8*time.Hour, 30*time.Second)
	st := f.Stats()
	if st.DiscoveryAttempts == 0 || st.DynamicDials == 0 {
		t.Fatalf("no activity: %+v", st)
	}
	if st.SuccessfulConns == 0 {
		t.Fatal("no successful connections")
	}
	// The census must include Too many peers rejections, successful
	// HELLOs with client names, STATUS messages, and DAO results.
	var tooMany, hellos, statuses, dao, incoming int
	for _, e := range col.Entries() {
		if e.DisconnectReason != nil && *e.DisconnectReason == uint64(devp2p.DiscTooManyPeers) {
			tooMany++
		}
		if e.Hello != nil {
			hellos++
		}
		if e.Status != nil {
			statuses++
		}
		if e.DAOFork == "supported" {
			dao++
		}
		if e.ConnType == mlog.ConnIncoming {
			incoming++
		}
	}
	if tooMany == 0 || hellos == 0 || statuses == 0 || dao == 0 || incoming == 0 {
		t.Fatalf("census gaps: tooMany=%d hellos=%d statuses=%d dao=%d incoming=%d",
			tooMany, hellos, statuses, dao, incoming)
	}
}

// TestHostilePopulationCensus runs a crawl, outbound and inbound, over
// a world where a third of the population mounts faultnet's wire
// attacks, and checks that (a) the honest census still forms, (b)
// every hostile failure surfaces in the same metrics taxonomy the real
// transport feeds, and (c) no hostile node (save the
// honestly-handshaking STATUS flooder) ever contributes a verified
// STATUS to the census, whichever side opened the connection.
func TestHostilePopulationCensus(t *testing.T) {
	leakcheck.Check(t)
	cfg := DefaultConfig(8)
	cfg.BaseNodes = 500
	cfg.AbusiveIPs = 1
	cfg.HostileFraction = 0.35

	w := NewWorld(cfg)
	hostileCount := 0
	for _, n := range w.Nodes {
		if n.Hostile {
			hostileCount++
		}
	}
	if frac := float64(hostileCount) / float64(len(w.Nodes)); frac < 0.28 || frac > 0.42 {
		t.Fatalf("hostile fraction %.3f, want ≈0.35", frac)
	}

	reg := metrics.New()
	col := mlog.NewCollector()
	dialer := w.NewDialer(200)
	dialer.Metrics = nodefinder.NewDialerMetrics(reg)
	f, err := nodefinder.New(nodefinder.Config{
		Clock:     w.Clock,
		Discovery: w.NewDiscovery(100),
		Dialer:    dialer,
		Log:       col,
		Metrics:   reg,
		Seed:      300,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	gen := w.StartIncoming(f, 30*time.Second, 400)
	w.Clock.Advance(12 * time.Hour)
	gen.Stop()
	f.Stop()

	honest, hostileStatus, incoming := 0, 0, 0
	for _, e := range col.Entries() {
		n := w.NodeByID(mustID(t, e.NodeID))
		if n == nil {
			continue
		}
		if !n.Hostile && e.Status != nil {
			honest++
		}
		if e.ConnType == mlog.ConnIncoming && e.Status != nil {
			incoming++
		}
		if n.Hostile && e.Status != nil && n.HostileKind != faultnet.HostileStatusFlood {
			hostileStatus++
		}
	}
	if honest == 0 || incoming == 0 {
		t.Fatalf("hostile minority starved the honest census: %d verified STATUS entries, %d of them inbound", honest, incoming)
	}
	if hostileStatus != 0 {
		t.Errorf("%d verified STATUS entries from hostile nodes", hostileStatus)
	}

	snap := reg.Snapshot()
	if conns := snap.CounterSum("finder.conns"); conns != uint64(len(col.Entries())) {
		t.Errorf("finder.conns total %d != %d mlog records: hostile dials broke the reconciliation", conns, len(col.Entries()))
	}
	for _, class := range []string{
		"rlpx-bad-mac", "frame-oversize", "msg-oversize", "snappy-corrupt",
		"rlp-malformed", "handshake-timeout", "tcp-timeout", "tcp-reset", "rlpx-bad-handshake",
	} {
		if snap.Counter("finder.conn_errors{"+class+"}") == 0 {
			t.Errorf("simulated attacks never surfaced class %q", class)
		}
	}
}

func TestUnreachableOnlyViaIncoming(t *testing.T) {
	leakcheck.Check(t)
	w := smallWorld(6, 300)
	_, col := crawl(t, w, 6*time.Hour, 20*time.Second)
	unreachableSeen := map[string]mlog.ConnType{}
	for _, e := range col.Entries() {
		if e.Hello == nil {
			continue
		}
		n := w.NodeByID(mustID(t, e.NodeID))
		if n != nil && !n.Reachable {
			unreachableSeen[e.NodeID] = e.ConnType
		}
	}
	if len(unreachableSeen) == 0 {
		t.Fatal("no unreachable nodes seen at all")
	}
	for id, ct := range unreachableSeen {
		if ct != mlog.ConnIncoming {
			t.Fatalf("unreachable node %s seen via %s", id[:8], ct)
		}
	}
}

func TestEthernodesRelationship(t *testing.T) {
	leakcheck.Check(t)
	w := smallWorld(7, 1200)
	from := w.Cfg.Start
	en := w.Ethernodes(DefaultEthernodesConfig(9), from)
	truth := w.MainnetGroundTruth(from, from.Add(24*time.Hour))
	if len(en.Listed) == 0 || len(truth) == 0 {
		t.Fatal("empty sets")
	}
	// EN lists more than the genuine Mainnet subset it covers, and
	// covers well under all of the ground truth.
	if len(en.Listed) < len(truth)/3 {
		t.Errorf("EN list suspiciously small: %d vs truth %d", len(en.Listed), len(truth))
	}
	truthSet := map[string]bool{}
	for _, id := range truth {
		truthSet[id.String()] = true
	}
	genuine := 0
	for _, id := range en.Listed {
		if truthSet[id.String()] {
			genuine++
		}
	}
	if genuine == len(truth) {
		t.Error("EN implausibly covers the full ground truth")
	}
	if genuine == 0 {
		t.Error("EN covers none of the ground truth")
	}
}

func TestCaseStudyGeth(t *testing.T) {
	leakcheck.Check(t)
	res := RunCaseStudy(DefaultGethObserver(1))
	// Figure 4: converge to 25 peers within minutes; ≥99% occupancy.
	if res.TimeToFull > 30*time.Minute {
		t.Errorf("geth took %v to fill", res.TimeToFull)
	}
	if res.OccupancyFraction < 0.97 {
		t.Errorf("occupancy %.3f, want ≈0.991", res.OccupancyFraction)
	}
	// Table 1: Too many peers dominates both directions.
	if frac := discFrac(res.DiscRecv, devp2p.DiscTooManyPeers); frac < 0.6 {
		t.Errorf("recv Too many peers share %.2f", frac)
	}
	if frac := discFrac(res.DiscSent, devp2p.DiscTooManyPeers); frac < 0.9 {
		t.Errorf("sent Too many peers share %.2f", frac)
	}
	// Sent disconnects vastly outnumber received (incoming pressure).
	if total(res.DiscSent) < 10*total(res.DiscRecv) {
		t.Errorf("sent %d vs recv %d", total(res.DiscSent), total(res.DiscRecv))
	}
	// Figure 2: TRANSACTIONS dominate received traffic post-sync.
	if res.MsgRecv["TRANSACTIONS"] < res.MsgRecv["BLOCK_HEADERS"] {
		t.Error("transactions do not dominate")
	}
	// Geth sends more transactions than it receives per-peer policy
	// would for Parity.
	if res.MsgSent["TRANSACTIONS"] == 0 {
		t.Error("no transactions sent")
	}
}

func TestCaseStudyParityDifferences(t *testing.T) {
	leakcheck.Check(t)
	geth := RunCaseStudy(DefaultGethObserver(2))
	parity := RunCaseStudy(DefaultParityObserver(2))
	// Parity converges to 50 peers.
	maxPeers := 0
	for _, s := range parity.PeerSeries {
		if s.Peers > maxPeers {
			maxPeers = s.Peers
		}
	}
	if maxPeers != 50 {
		t.Errorf("parity max peers %d", maxPeers)
	}
	// Parity never sends Subprotocol error (§3 obs. 4).
	if parity.DiscSent[devp2p.DiscSubprotocolError] != 0 {
		t.Error("parity sent subprotocol errors")
	}
	if geth.DiscSent[devp2p.DiscSubprotocolError] == 0 {
		t.Error("geth sent no subprotocol errors")
	}
	// Parity sends many Useless peer disconnects (9.98% in Table 1).
	if parity.DiscSent[devp2p.DiscUselessPeer] == 0 {
		t.Error("parity sent no useless peer disconnects")
	}
	// Geth broadcasts to all peers: it sends far more TRANSACTIONS
	// than Parity despite having half the peers (√n policy).
	if geth.MsgSent["TRANSACTIONS"] < 2*parity.MsgSent["TRANSACTIONS"] {
		t.Errorf("geth sent %d vs parity %d transactions",
			geth.MsgSent["TRANSACTIONS"], parity.MsgSent["TRANSACTIONS"])
	}
}

func discFrac(m map[devp2p.DisconnectReason]uint64, r devp2p.DisconnectReason) float64 {
	t := total(m)
	if t == 0 {
		return 0
	}
	return float64(m[r]) / float64(t)
}

func total(m map[devp2p.DisconnectReason]uint64) uint64 {
	var t uint64
	for _, v := range m {
		t += v
	}
	return t
}

func mustID(t *testing.T, hex string) enode.ID {
	t.Helper()
	id, err := enode.HexID(hex)
	if err != nil {
		t.Fatal(err)
	}
	return id
}
