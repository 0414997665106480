package analysis

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/geo"
	"repro/internal/nodefinder/mlog"
)

var t0 = time.Date(2018, 4, 18, 0, 0, 0, 0, time.UTC)

func entry(id, ip string, at time.Time) *mlog.Entry {
	return &mlog.Entry{Time: at, NodeID: id, IP: ip, ConnType: mlog.ConnDynamicDial}
}

func helloEntry(id, ip, client string, caps []string, at time.Time) *mlog.Entry {
	e := entry(id, ip, at)
	e.Hello = &mlog.HelloInfo{Version: 5, ClientName: client, Caps: caps, ListenPort: 30303}
	return e
}

func statusEntry(id, ip, client string, networkID uint64, genesis string, best uint64, dao string, at time.Time) *mlog.Entry {
	e := helloEntry(id, ip, client, []string{"eth/63"}, at)
	e.Status = &mlog.StatusInfo{ProtocolVersion: 63, NetworkID: networkID, GenesisHash: genesis, BestBlock: best}
	e.DAOFork = dao
	e.LatencyUS = 50000
	return e
}

func TestAggregate(t *testing.T) {
	entries := []*mlog.Entry{
		entry("n1", "1.1.1.1", t0.Add(time.Hour)),
		helloEntry("n1", "1.1.1.1", "Geth/v1.8.11-stable/linux", []string{"eth/63"}, t0),
		statusEntry("n2", "2.2.2.2", "Parity/v1.10.6-stable/x86", 1, "aa", 100, "supported", t0),
	}
	nodes := Aggregate(entries)
	if len(nodes) != 2 {
		t.Fatalf("%d nodes", len(nodes))
	}
	n1 := nodes["n1"]
	if n1.FirstSeen != t0 || n1.LastSeen != t0.Add(time.Hour) {
		t.Error("time bounds wrong")
	}
	if n1.ClientName != "Geth/v1.8.11-stable/linux" {
		t.Error("client not extracted")
	}
	if n1.Active() != time.Hour {
		t.Error("active wrong")
	}
	if !nodes["n2"].HasStatus || nodes["n2"].DAOFork != "supported" {
		t.Error("status not extracted")
	}
	// Entries sorted by time.
	if !n1.Entries[0].Time.Equal(t0) {
		t.Error("entries unsorted")
	}
}

func TestSanitizeFiveSteps(t *testing.T) {
	entries := []*mlog.Entry{}
	js := []string{"eth/63"}
	// Abusive IP: 10 short-lived identities minted every 10 minutes,
	// each responsive for 5 minutes.
	for i := 0; i < 10; i++ {
		born := t0.Add(time.Duration(i) * 10 * time.Minute)
		id := fmt.Sprintf("spam%d", i)
		entries = append(entries, helloEntry(id, "9.9.9.9", "ethereumjs-devp2p/v1.0.0", js, born))
		entries = append(entries, helloEntry(id, "9.9.9.9", "ethereumjs-devp2p/v1.0.0", js, born.Add(5*time.Minute)))
		// Dead-address re-dials long after must NOT hide the node
		// from the filter.
		dead := entry(id, "9.9.9.9", born.Add(10*time.Hour))
		dead.Err = "connection refused"
		entries = append(entries, dead)
	}
	// Benign IP with 2 short-lived nodes (below step-3 threshold).
	entries = append(entries, helloEntry("b1", "8.8.8.8", "Geth/v1", js, t0))
	entries = append(entries, helloEntry("b2", "8.8.8.8", "Geth/v1", js, t0.Add(time.Minute)))
	// Benign long-lived node at a busy IP.
	entries = append(entries, helloEntry("long1", "9.9.9.9", "Geth/v1", js, t0))
	entries = append(entries, helloEntry("long1", "9.9.9.9", "Geth/v1", js, t0.Add(48*time.Hour)))
	// Slow generator: 5 short-lived nodes over 20 hours (1 per 5h).
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("slow%d", i)
		entries = append(entries, helloEntry(id, "7.7.7.7", "Geth/v1", js, t0.Add(time.Duration(i)*5*time.Hour)))
	}
	// Step 5's boundary: 3 identities minted exactly every 30 minutes
	// are flagged; one nanosecond slower on average is not.
	for i := 0; i < 3; i++ {
		entries = append(entries, helloEntry(fmt.Sprintf("at30m%d", i), "6.6.6.6", "Geth/v1", js, t0.Add(time.Duration(i)*30*time.Minute)))
		entries = append(entries, helloEntry(fmt.Sprintf("over30m%d", i), "5.5.5.5", "Geth/v1", js, t0.Add(time.Duration(i)*(30*time.Minute+1))))
	}

	res := Sanitize(Aggregate(entries))
	if len(res.AbusiveIPs) != 2 {
		t.Fatalf("abusive IPs: %v", res.AbusiveIPs)
	}
	if len(res.AbusiveIPs["9.9.9.9"]) != 10 {
		t.Fatalf("flagged %d nodes at 9.9.9.9", len(res.AbusiveIPs["9.9.9.9"]))
	}
	if len(res.AbusiveIPs["6.6.6.6"]) != 3 {
		t.Errorf("an IP minting every 30 minutes exactly: %d nodes flagged, want 3", len(res.AbusiveIPs["6.6.6.6"]))
	}
	if res.AbusiveNodes["over30m0"] {
		t.Error("an IP minting every 30 minutes + 1 ns flagged")
	}
	if res.AbusiveNodes["long1"] {
		t.Error("long-lived node flagged")
	}
	if res.AbusiveNodes["b1"] || res.AbusiveNodes["slow0"] {
		t.Error("benign nodes flagged")
	}
	if len(res.Kept) != len(Aggregate(entries))-13 {
		t.Errorf("kept %d", len(res.Kept))
	}
}

func TestPrimaryService(t *testing.T) {
	tests := []struct {
		caps []string
		want string
	}{
		{[]string{"eth/62", "eth/63"}, "eth"},
		{[]string{"bzz/2", "eth/63"}, "eth"}, // eth wins
		{[]string{"bzz/2"}, "bzz"},
		{[]string{"les/2"}, "les"},
		{[]string{"pip/1"}, "pip"},
		{[]string{"weird/9"}, "other:weird"},
		{[]string{"/9", "odd/1", "shh/6"}, "shh"},       // a known service anywhere wins
		{[]string{"/9", "odd", "odder/1"}, "other:odd"}, // else the first name there is
		{[]string{"/9"}, "unknown"},
		{nil, "unknown"},
	}
	for _, test := range tests {
		if got := PrimaryService(test.caps); got != test.want {
			t.Errorf("%v -> %s, want %s", test.caps, got, test.want)
		}
	}
}

// TestCensusKeysDoNotAllocate: the bucket keys run once per rebuilt
// record on the census daemon's publish path. For the services,
// clients, versions and reasons that have names they are substrings
// and constants.
func TestCensusKeysDoNotAllocate(t *testing.T) {
	o := &NodeObservation{ClientName: "Geth/v1.8.10-stable/linux-amd64/go1.10", Caps: []string{"les/2", "bzz/0", "eth/63"}}
	var service, impl, version, reason string
	allocs := testing.AllocsPerRun(100, func() {
		service, _ = ServiceKey(o)
		impl, _ = ClientKey(o)
		version, _ = VersionKey(o, "Geth")
		reason = reasonName(0x04) + reasonName(0x7f)[:0]
	})
	if allocs != 0 {
		t.Errorf("%.0f allocations per set of keys, want 0", allocs)
	}
	if service != "eth" || impl != "Geth" || version != "v1.8.10-stable" || reason != "Too many peers" {
		t.Errorf("keys %q %q %q %q", service, impl, version, reason)
	}
	if _, ok := VersionKey(o, "Parity"); ok {
		t.Error("a Geth node has a Parity version")
	}
	if v, ok := VersionKey(&NodeObservation{ClientName: "Geth"}, "Geth"); ok {
		t.Errorf("a name without a version has version %q", v)
	}
	stable := false
	if allocs := testing.AllocsPerRun(100, func() { stable = stableVersion(version) }); allocs != 0 {
		t.Errorf("%.0f allocations per stable check, want 0", allocs)
	}
	if !stable {
		t.Errorf("%q is not stable", version)
	}
}

// TestStableVersion pins Table 5's stable test to the release tag:
// "-unstable" contains "stable" and must not count.
func TestStableVersion(t *testing.T) {
	for v, want := range map[string]bool{
		"v1.8.11-stable":           true,
		"v1.8.11-stable-dea1ce05":  true,
		"v1.8.11-unstable":         false,
		"v1.8.12-unstable-4e7d8c2": false,
		"v1.10.4-beta":             false,
		"v1.10.5-rc":               false,
		"v1.8.11":                  false,
		"stable":                   false,
		"":                         false,
	} {
		if got := stableVersion(v); got != want {
			t.Errorf("stableVersion(%q) = %v, want %v", v, got, want)
		}
	}
	vc := VersionCensusOf("Geth", map[string]int{"v1.8.11-stable": 3, "v1.8.11-unstable": 1})
	if vc.StableCount != 3 || vc.Total != 4 {
		t.Errorf("stable %d of %d, want 3 of 4", vc.StableCount, vc.Total)
	}
}

func TestServiceCensus(t *testing.T) {
	entries := []*mlog.Entry{
		helloEntry("e1", "1.1.1.1", "Geth/v1", []string{"eth/63"}, t0),
		helloEntry("e2", "1.1.1.2", "Geth/v1", []string{"eth/63"}, t0),
		helloEntry("s1", "1.1.1.3", "swarm/v0.3", []string{"bzz/2"}, t0),
	}
	rows := ServiceCensus(Aggregate(entries))
	if rows[0].Key != "eth" || rows[0].Count != 2 {
		t.Fatalf("rows: %+v", rows)
	}
	if rows[0].Fraction < 0.66 || rows[0].Fraction > 0.67 {
		t.Errorf("eth fraction %f", rows[0].Fraction)
	}
}

func TestNetworksCensus(t *testing.T) {
	mg := chain.MainnetGenesisHash.Hex()
	entries := []*mlog.Entry{
		statusEntry("m1", "1.0.0.1", "Geth/v1", 1, mg, 100, "supported", t0),
		statusEntry("m2", "1.0.0.2", "Geth/v1", 1, mg, 100, "supported", t0),
		statusEntry("c1", "1.0.0.3", "Geth/v1", 1, mg, 100, "opposed", t0),
		statusEntry("r1", "1.0.0.4", "Geth/v1", 3, "ropstenhash", 5, "", t0),
		statusEntry("x1", "1.0.0.5", "Geth/v1", 999, mg, 5, "", t0), // impostor
		statusEntry("y1", "1.0.0.6", "Geth/v1", 777, "yhash", 5, "", t0),
	}
	nc := Networks(Aggregate(entries))
	if nc.DistinctNetworks != 4 {
		t.Errorf("networks %d", nc.DistinctNetworks)
	}
	if nc.DistinctGenesis != 3 {
		t.Errorf("genesis %d", nc.DistinctGenesis)
	}
	if nc.MainnetGenesisImpostors != 1 {
		t.Errorf("impostors %d", nc.MainnetGenesisImpostors)
	}
	if nc.SinglePeerNetworks != 3 {
		t.Errorf("single-peer networks %d", nc.SinglePeerNetworks)
	}
	if nc.Networks[0].Key != "1 (Mainnet/Classic)" || nc.Networks[0].Count != 3 {
		t.Errorf("top network %+v", nc.Networks[0])
	}
}

func TestMainnetSubset(t *testing.T) {
	mg := chain.MainnetGenesisHash.Hex()
	entries := []*mlog.Entry{
		statusEntry("m1", "1.0.0.1", "Geth/v1", 1, mg, 100, "supported", t0),
		statusEntry("c1", "1.0.0.2", "Geth/v1", 1, mg, 100, "opposed", t0),        // Classic
		statusEntry("w1", "1.0.0.3", "Geth/v1", 1, "other", 100, "supported", t0), // wrong genesis
		statusEntry("r1", "1.0.0.4", "Geth/v1", 3, "ropsten", 5, "", t0),
		helloEntry("h1", "1.0.0.5", "swarm/v0.3", []string{"bzz/2"}, t0),
	}
	sub := MainnetSubset(Aggregate(entries))
	if len(sub) != 1 {
		t.Fatalf("subset %d", len(sub))
	}
	if _, ok := sub["m1"]; !ok {
		t.Fatal("wrong member")
	}
}

func TestClientAndVersionCensus(t *testing.T) {
	entries := []*mlog.Entry{
		helloEntry("g1", "1.0.0.1", "Geth/v1.8.11-stable/linux-amd64/go1.10", nil, t0),
		helloEntry("g2", "1.0.0.2", "Geth/v1.8.11-stable/linux-amd64/go1.10", nil, t0),
		helloEntry("g3", "1.0.0.3", "Geth/v1.7.3-stable/linux-amd64/go1.9", nil, t0),
		helloEntry("p1", "1.0.0.4", "Parity/v1.10.7-beta/x86_64-linux-gnu/rustc1.26.0", nil, t0),
		helloEntry("p2", "1.0.0.5", "Parity/v1.10.6-stable/x86_64-linux-gnu/rustc1.26.0", nil, t0),
	}
	nodes := Aggregate(entries)
	clients := ClientCensus(nodes)
	if clients[0].Key != "Geth" || clients[0].Count != 3 {
		t.Fatalf("clients %+v", clients)
	}
	geth := Versions(nodes, "Geth")
	if geth.Total != 3 || geth.StableCount != 3 {
		t.Errorf("geth versions %+v", geth)
	}
	parity := Versions(nodes, "Parity")
	if parity.Total != 2 || parity.StableCount != 1 || parity.StableShare != 0.5 {
		t.Errorf("parity versions %+v", parity)
	}
	if geth.Versions[0].Key != "v1.8.11-stable" || geth.Versions[0].Count != 2 {
		t.Errorf("top geth version %+v", geth.Versions[0])
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{5, 1, 3, 2, 4})
	if c.Len() != 5 {
		t.Fatal("len")
	}
	if c.P(0) != 1 || c.P(0.99) != 5 {
		t.Errorf("quantiles: %f %f", c.P(0), c.P(0.99))
	}
	if got := c.FracBelow(3); got != 0.6 {
		t.Errorf("FracBelow(3) = %f", got)
	}
	if got := c.FracBelow(0.5); got != 0 {
		t.Errorf("FracBelow(0.5) = %f", got)
	}
	if got := c.FracBelow(99); got != 1 {
		t.Errorf("FracBelow(99) = %f", got)
	}
	empty := NewCDF(nil)
	if empty.P(0.5) != 0 || empty.FracBelow(1) != 0 {
		t.Error("empty CDF")
	}

	// Figure 13 leaves out observations without an RTT estimate.
	lat := LatencyCDF(map[string]*NodeObservation{
		"a": {LatencyUS: 0}, "b": {LatencyUS: 20_000}, "c": {LatencyUS: 50_000},
	})
	if lat.Len() != 2 || lat.P(0) != 20 {
		t.Errorf("LatencyCDF: %d samples, min %f ms; want 2, 20", lat.Len(), lat.P(0))
	}
}

func TestFreshness(t *testing.T) {
	mg := chain.MainnetGenesisHash.Hex()
	head := uint64(5_500_000)
	entries := []*mlog.Entry{
		statusEntry("fresh", "1.0.0.1", "Geth/v1", 1, mg, head, "supported", t0),
		statusEntry("nearfresh", "1.0.0.2", "Geth/v1", 1, mg, head-5, "supported", t0),
		statusEntry("stale", "1.0.0.3", "Geth/v1", 1, mg, head-100000, "supported", t0),
		statusEntry("byz", "1.0.0.4", "Geth/v1", 1, mg, chain.ByzantiumForkBlock+1, "supported", t0),
	}
	fr := Freshness(Aggregate(entries), func(time.Time) uint64 { return head })
	if fr.StuckAtByzantium != 1 {
		t.Errorf("stuck %d", fr.StuckAtByzantium)
	}
	if fr.StaleFraction != 0.5 {
		t.Errorf("stale %f", fr.StaleFraction)
	}
	if fr.LagCDF.Len() != 4 {
		t.Error("cdf size")
	}
}

func TestIntersect(t *testing.T) {
	en := []string{"a", "b", "c", "d"}
	nf := []string{"b", "c", "d", "e", "f", "g"}
	ix := Intersect(en, nf)
	if ix.Overlap != 3 || ix.ENOnly != 1 || ix.NFOnly != 3 {
		t.Fatalf("%+v", ix)
	}
	if ix.ENCoverage != 0.75 {
		t.Errorf("coverage %f", ix.ENCoverage)
	}
}

func TestGeography(t *testing.T) {
	db := geo.NewDB()
	entries := []*mlog.Entry{}
	for i := 0; i < 4000; i++ {
		ip := fmt.Sprintf("%d.%d.%d.%d", 11+i%200, i%251, (i*7)%251, 1+(i*13)%250)
		entries = append(entries, helloEntry(fmt.Sprintf("n%d", i), ip, "Geth/v1", nil, t0))
	}
	gc := Geography(Aggregate(entries), db)
	if len(gc.Countries) == 0 || len(gc.ASes) == 0 {
		t.Fatal("empty census")
	}
	if gc.Countries[0].Key != "US" {
		t.Errorf("top country %s", gc.Countries[0].Key)
	}
	if gc.Top8ASShare < 0.3 || gc.Top8ASShare > 0.6 {
		t.Errorf("top8 AS share %f", gc.Top8ASShare)
	}
	if !gc.Top8AllCloud {
		t.Error("top 8 not all cloud")
	}
}

func TestDialSeries(t *testing.T) {
	entries := []*mlog.Entry{}
	// Day 0: 3 dialed, 2 respond; day 1: 1 dialed, 0 respond.
	e1 := helloEntry("a", "1.0.0.1", "Geth/v1", nil, t0.Add(time.Hour))
	e2 := helloEntry("b", "1.0.0.2", "Geth/v1", nil, t0.Add(2*time.Hour))
	e3 := entry("c", "1.0.0.3", t0.Add(3*time.Hour))
	e3.Err = "timeout"
	e4 := entry("d", "1.0.0.4", t0.Add(25*time.Hour))
	e4.Err = "refused"
	entries = append(entries, e1, e2, e3, e4)
	dialed, resp := DialSeries(entries, t0, 2)
	if dialed.Days[0] != 3 || dialed.Days[1] != 1 {
		t.Errorf("dialed %v", dialed.Days)
	}
	if resp.Days[0] != 2 || resp.Days[1] != 0 {
		t.Errorf("responded %v", resp.Days)
	}
	if dialed.Mean() != 2 {
		t.Errorf("mean %f", dialed.Mean())
	}
}

func TestNodeDialSeries(t *testing.T) {
	var entries []*mlog.Entry
	for i := 0; i < 44; i++ {
		e := entry("boot", "1.0.0.1", t0.Add(time.Duration(i)*30*time.Minute))
		e.ConnType = mlog.ConnStaticDial
		entries = append(entries, e)
	}
	e := entry("boot", "1.0.0.1", t0.Add(time.Hour))
	entries = append(entries, e) // one dynamic dial
	dyn, stat := NodeDialSeries(entries, "boot", t0, 1)
	if stat.Days[0] != 44 || dyn.Days[0] != 1 {
		t.Errorf("static %v dynamic %v", stat.Days, dyn.Days)
	}
}

func TestVersionAdoption(t *testing.T) {
	entries := []*mlog.Entry{
		helloEntry("a", "1.0.0.1", "Geth/v1.8.10-stable/linux", nil, t0),
		helloEntry("a", "1.0.0.1", "Geth/v1.8.11-stable/linux", nil, t0.Add(25*time.Hour)),
		helloEntry("b", "1.0.0.2", "Geth/v1.8.10-stable/linux", nil, t0.Add(26*time.Hour)),
	}
	vs := VersionAdoption(entries, "Geth", t0, 2)
	if len(vs.Versions) != 2 {
		t.Fatalf("versions %v", vs.Versions)
	}
	if vs.Counts["v1.8.10-stable"][0] != 1 || vs.Counts["v1.8.10-stable"][1] != 1 {
		t.Errorf("v1.8.10 %v", vs.Counts["v1.8.10-stable"])
	}
	if vs.Counts["v1.8.11-stable"][1] != 1 {
		t.Errorf("v1.8.11 %v", vs.Counts["v1.8.11-stable"])
	}
}

func TestOlderThanShare(t *testing.T) {
	releases := []string{"v1.8.10-stable", "v1.8.11-stable", "v1.8.12-stable"}
	entries := []*mlog.Entry{
		helloEntry("a", "1.0.0.1", "Geth/v1.8.10-stable/linux", nil, t0),
		helloEntry("b", "1.0.0.2", "Geth/v1.8.12-stable/linux", nil, t0),
		helloEntry("c", "1.0.0.3", "Geth/v1.6.0-stable/linux", nil, t0), // unknown/ancient
		helloEntry("d", "1.0.0.4", "Geth/v1.8.11-stable/linux", nil, t0),
	}
	share := OlderThanShare(entries, "Geth", releases, "v1.8.11-stable", t0)
	if share != 0.5 {
		t.Errorf("share %f", share)
	}
}

func TestDisconnectTable(t *testing.T) {
	rows := DisconnectTable(map[uint64]uint64{4: 90, 3: 5, 16: 3, 0: 2})
	if rows[0].Key != "Too many peers" || rows[0].Fraction != 0.9 {
		t.Fatalf("%+v", rows[0])
	}
}

func TestNetworkSizeTable(t *testing.T) {
	rows := NetworkSizeTable(15454, 4717)
	if rows[0].Size != 15454 || rows[1].Size != 4717 {
		t.Fatal("measured rows wrong")
	}
	if rows[4].Size != PaperGnutellaSNAP {
		t.Fatal("constants wrong")
	}
}

func TestUniqueInWindow(t *testing.T) {
	entries := []*mlog.Entry{
		entry("a", "1.0.0.1", t0),
		entry("b", "1.0.0.2", t0.Add(30*time.Hour)),
	}
	nodes := Aggregate(entries)
	if got := UniqueInWindow(nodes, t0, t0.Add(24*time.Hour)); got != 1 {
		t.Errorf("window count %d", got)
	}
	if got := UniqueInWindow(nodes, t0, t0.Add(48*time.Hour)); got != 2 {
		t.Errorf("wide window %d", got)
	}
}
