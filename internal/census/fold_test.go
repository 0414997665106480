package census_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/census"
	"repro/internal/chain"
	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/nodefinder/mlog"
	"repro/internal/simclock"
	"repro/internal/testutil/leakcheck"
)

// arrival is one log entry and the virtual time the crawler records it
// at: the dial's end, while the entry's own Time is the dial's start.
type arrival struct {
	at time.Time
	e  *mlog.Entry
}

// randomArrivals is a crawl log built to exercise everything the
// incremental census must get right. Record order is not time order
// (every entry lands up to just under one interval after its Time, the
// most the finalization lag allows); timestamps are whole minutes over
// a few identities, so equal times are common; identities move between
// addresses and clients; a quarter of the responsive entries are
// DISCONNECTs without a HELLO; window `empty` has no entry at all. And
// every census contribution moves: clients go up and down versions (and
// carry names with no version, no implementation or no '/' at all),
// capability lists change, STATUS turns up after the first HELLO,
// network IDs, genesis hashes and DAO stances flip (so identities join
// and leave Mainnet, and a handful of rare network IDs gain and lose
// their only peer), and the addresses span countries and ASes.
func randomArrivals(rng *rand.Rand, n, epochs, empty int) []arrival {
	const interval = census.DefaultInterval
	mainnet := chain.MainnetGenesisHash.Hex()
	clients := []string{
		"Geth/v1.8.10-stable/linux-amd64/go1.10", "Geth/v1.8.11-stable/linux-amd64/go1.10", "Geth/v1.8.12-unstable",
		"Parity/v1.10.6-stable/x86_64-linux-gnu/rustc1.26.1", "Parity/v1.11.0-beta", "Parity-Ethereum/v1.10.6-stable",
		"cpp-ethereum/v1.3.0", "Geth//odd", "/anonymous", "noslash",
	}
	caps := [][]string{{"eth/63"}, {"eth/62", "eth/63"}, {"les/2"}, {"bzz/0", "eth/63"}, {"foo/1"}, {"/9", "bar/2", "shh/6"}, {"/9"}}
	var out []arrival
	for len(out) < n {
		at := t0.Add(time.Duration(rng.Int63n(int64(epochs) * int64(interval))))
		lag := time.Duration(rng.Int63n(int64(interval)))
		ts := at.Add(-lag).Truncate(time.Minute)
		if ts.Before(t0) || int(ts.Sub(t0)/interval) == empty {
			continue
		}
		id := fmt.Sprintf("%02x", rng.Intn(40))
		ip := fmt.Sprintf("%d.%d.0.7", 11+rng.Intn(4)*40, rng.Intn(3))
		e := &mlog.Entry{Time: ts, NodeID: id, IP: ip, ConnType: mlog.ConnDynamicDial}
		switch rng.Intn(8) {
		case 0, 1:
			e.Err = "connection refused"
		case 2, 3:
			reason := uint64(0x04)
			e.DisconnectReason = &reason
		default:
			e.LatencyUS = 500 + rng.Int63n(90_000)
			e.Hello = &mlog.HelloInfo{Version: 5, ClientName: clients[rng.Intn(len(clients))], Caps: caps[rng.Intn(len(caps))]}
			if rng.Intn(3) > 0 {
				e.Status = &mlog.StatusInfo{ProtocolVersion: 63, NetworkID: []uint64{1, 1, 1, 2, 3, 100 + uint64(rng.Intn(6))}[rng.Intn(6)],
					GenesisHash: mainnet, BestBlock: 5_500_000 + uint64(rng.Intn(1000))}
				if rng.Intn(4) == 0 {
					e.Status.GenesisHash = fmt.Sprintf("0x%064x", rng.Intn(5))
				}
				e.DAOFork = []string{"supported", "supported", "opposed", ""}[rng.Intn(4)]
			}
		}
		out = append(out, arrival{at: at, e: e})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at.Before(out[j].at) })
	return out
}

// sameCensus fails unless got is the census of the log so far as the
// oracle computes it: totals, series, ID list, all seven cached bodies
// byte for byte, and every identity's summary.
func sameCensus(t *testing.T, when string, got *census.Snapshot, p census.BuildParams) {
	t.Helper()
	p.Epoch = got.Epoch
	want := census.OracleSnapshot(p)
	if got.Totals != want.Totals {
		t.Errorf("%s: totals %+v, oracle %+v", when, got.Totals, want.Totals)
	}
	if etag := fmt.Sprintf(`"census-%d"`, p.Epoch); !got.Time.Equal(p.Now) || !got.Start.Equal(p.Start) || got.Interval != p.Interval || got.ETag() != etag {
		t.Errorf("%s: header (%v %v %v %s), want (%v %v %v %s)", when,
			got.Time, got.Start, got.Interval, got.ETag(), p.Now, p.Start, p.Interval, etag)
	}
	if !reflect.DeepEqual(got.Points, want.Points) {
		t.Errorf("%s: series\n got %+v\nwant %+v", when, got.Points, want.Points)
	}
	if !reflect.DeepEqual(got.NodeIDs(), want.IDs) && len(got.NodeIDs())+len(want.IDs) > 0 {
		t.Errorf("%s: IDs %v, oracle %v", when, got.NodeIDs(), want.IDs)
	}
	for ep := 0; ep < census.NumEndpoints; ep++ {
		if g, w := got.Payload(ep), want.Payloads[ep]; !bytes.Equal(g, w) {
			t.Errorf("%s: payload %d\n--- served ---\n%s--- oracle ---\n%s", when, ep, g, w)
		}
	}
	for id, w := range want.Nodes {
		if g := got.Node(id); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: node %s\n got %+v\nwant %+v", when, id, g, w)
		}
	}
	if n := got.Node("no such node"); n != nil {
		t.Errorf("%s: an unknown ID has a summary: %+v", when, n)
	}
}

// TestIncrementalEqualsFromScratch drives one daemon tick by tick over
// a randomized log and, at every publish, holds what it serves — built
// by retracting and asserting the contributions of the identities that
// tick touched — to the oracle's census of the log so far, and
// BuildSnapshot (every contribution asserted once) with it. The daemon
// has long dropped those entries; only the test keeps them.
func TestIncrementalEqualsFromScratch(t *testing.T) {
	const (
		interval = census.DefaultInterval
		epochs   = 14
		empty    = 6
	)
	for _, maxPoints := range []int{0, 4} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			arrivals := randomArrivals(rng, 600, epochs, empty)
			clk := simclock.NewSimulated(t0)
			reg := metrics.New()
			db := geo.NewDB()
			if seed == 4 {
				db = nil // geography off
			}
			d := census.NewDaemon(census.DaemonConfig{Clock: clk, Geo: db, Metrics: reg, MaxPoints: maxPoints})

			var log []*mlog.Entry
			record := func(e *mlog.Entry) {
				log = append(log, e)
				d.Record(e)
			}
			check := func(when string) {
				t.Helper()
				sameCensus(t, fmt.Sprintf("maxPoints %d seed %d %s", maxPoints, seed, when), d.Current(), census.BuildParams{
					Now: clk.Now(), Start: t0, Interval: interval, Entries: log, Geo: db, MaxPoints: maxPoints,
				})
			}

			// Recorded before Start: one entry from before the grid, one
			// inside it, one with no node ID.
			record(helloEntry("early", "52.9.9.9", "Geth/v1.8.10-stable", t0.Add(-10*time.Minute)))
			record(helloEntry("early", "52.9.9.9", "Geth/v1.8.10-stable", t0.Add(3*time.Minute)))
			record(helloEntry("", "52.9.9.8", "Geth/v1.8.10-stable", t0.Add(4*time.Minute)))
			d.Start()
			check("at start")

			next := 0
			recordUntil := func(until time.Time) {
				for next < len(arrivals) && !arrivals[next].at.After(until) {
					record(arrivals[next].e)
					next++
				}
			}
			for k := 1; k <= epochs+2; k++ {
				tick := t0.Add(time.Duration(k) * interval)
				if k == 5 {
					// An out-of-band publish between two ticks.
					recordUntil(tick.Add(-interval / 2))
					clk.Advance(interval / 2)
					d.Publish()
					check("out of band before tick 5")
				}
				recordUntil(tick)
				clk.Advance(tick.Sub(clk.Now()))
				check(fmt.Sprintf("tick %d", k))
			}
			d.Stop()

			snap := d.Current()
			if want := uint64(epochs + 3); snap.Epoch != want {
				t.Errorf("maxPoints %d seed %d: final epoch %d, want %d", maxPoints, seed, snap.Epoch, want)
			}
			wantPoints := epochs + 1
			if maxPoints > 0 {
				wantPoints = maxPoints
			}
			if len(snap.Points) != wantPoints {
				t.Errorf("maxPoints %d seed %d: %d points served, want %d", maxPoints, seed, len(snap.Points), wantPoints)
			}
			if maxPoints == 0 && snap.Points[empty].Alive != 0 {
				t.Errorf("seed %d: the empty window has %d alive", seed, snap.Points[empty].Alive)
			}
			m := reg.Snapshot()
			if late := m.Counter("census.entries_late"); late != 0 {
				t.Errorf("maxPoints %d seed %d: %d entries counted late; every one arrived inside the lag", maxPoints, seed, late)
			}
			// Every identity is rebuilt at least once, its first rebuild
			// moves a tally, and no rebuild moves more than one's worth.
			touched, moved := m.Histograms["census.publish_touched"], m.Counter("census.contributions_changed")
			if ids := uint64(snap.Totals.Identities); touched.Count != snap.Epoch+1 || touched.Sum < ids || moved < ids || moved > touched.Sum {
				t.Errorf("maxPoints %d seed %d: %d identities over %d publishes, census.publish_touched %+v, census.contributions_changed %d",
					maxPoints, seed, ids, snap.Epoch+1, touched, moved)
			}
		}
	}
}

// TestContributionsRetract walks two identities through every way a
// contribution can move, one change per publish, holding each publish
// to the oracle; where a bucket's count returns to zero its key must be
// gone from the ranked rows and from the distinct counts.
func TestContributionsRetract(t *testing.T) {
	db := geo.NewDB()
	mainnet := chain.MainnetGenesisHash.Hex()
	// Two addresses in different countries and different ASes.
	home, abroad := "52.1.2.3", ""
	for i := 0; abroad == ""; i++ {
		ip := fmt.Sprintf("%d.3.3.3", 20+i)
		addr, was := net.ParseIP(ip), net.ParseIP(home)
		if db.Country(addr) != db.Country(was) && db.ASOf(addr).Name != db.ASOf(was).Name {
			abroad = ip
		}
	}

	clk := simclock.NewSimulated(t0)
	d := census.NewDaemon(census.DaemonConfig{Clock: clk, Geo: db})
	d.Start()
	defer d.Stop()
	var log []*mlog.Entry
	var networks struct {
		Networks                             []struct{ Key string }
		DistinctNetworks, SinglePeerNetworks int
	}
	// step records one dial of id and publishes.
	step := func(what, id, ip, client string, caps []string, network uint64, dao string) {
		t.Helper()
		e := helloEntry(id, ip, client, clk.Now())
		e.Hello.Caps = caps
		if network != 0 {
			e.Status = &mlog.StatusInfo{ProtocolVersion: 63, NetworkID: network, GenesisHash: mainnet, BestBlock: 5_550_000}
			e.DAOFork = dao
		}
		log = append(log, e)
		d.Record(e)
		clk.Advance(census.DefaultInterval)
		sameCensus(t, what, d.Current(), census.BuildParams{Now: clk.Now(), Start: t0, Interval: census.DefaultInterval, Entries: log, Geo: db})
		if err := json.Unmarshal(d.Current().Payload(census.EpNetworks), &networks); err != nil {
			t.Fatal(err)
		}
	}
	eth := []string{"eth/63"}
	step("a Mainnet Geth node", "aa", home, "Geth/v1.8.10-stable/linux", eth, 1, "supported")
	step("a second one, HELLO only", "bb", home, "Geth/v1.8.9-stable/linux", eth, 0, "")
	step("STATUS appears later, on a network of its own", "bb", home, "Geth/v1.8.9-stable/linux", eth, 77, "")
	if networks.DistinctNetworks != 2 || networks.SinglePeerNetworks != 2 {
		t.Errorf("two networks of one peer each are served as %+v", networks)
	}
	step("network-ID change", "bb", home, "Geth/v1.8.9-stable/linux", eth, 78, "")
	if networks.DistinctNetworks != 2 || networks.SinglePeerNetworks != 2 || networks.Networks[1].Key != "78" {
		t.Errorf("after its only peer moved to network 78, network 77 is still served: %+v", networks)
	}
	step("joins network 1", "bb", home, "Geth/v1.8.9-stable/linux", eth, 1, "supported")
	if networks.DistinctNetworks != 1 || networks.SinglePeerNetworks != 0 || len(networks.Networks) != 1 {
		t.Errorf("with both peers on network 1: %+v", networks)
	}
	step("client upgrade", "aa", home, "Geth/v1.8.11-stable/linux", eth, 1, "supported")
	step("client downgrade", "aa", home, "Geth/v1.8.10-stable/linux", eth, 1, "supported")
	step("change of implementation", "aa", home, "Parity/v1.10.6-stable/linux", eth, 1, "supported")
	step("DAO stance flip: leaves Mainnet", "aa", home, "Parity/v1.10.6-stable/linux", eth, 1, "opposed")
	step("address moves across country and AS", "aa", abroad, "Parity/v1.10.6-stable/linux", eth, 1, "opposed")
	step("HELLO with different caps", "aa", abroad, "Parity/v1.10.6-stable/linux", []string{"les/2", "foo/1"}, 1, "opposed")
	step("a dial that changes nothing but the counts", "aa", abroad, "Parity/v1.10.6-stable/linux", []string{"les/2", "foo/1"}, 1, "opposed")
}

// TestLateEntryIsCountedNotFolded plants an entry for a window the
// daemon has already sealed. The policy: the node table takes it, the
// published point stands, and census.entries_late says it happened.
func TestLateEntryIsCountedNotFolded(t *testing.T) {
	clk := simclock.NewSimulated(t0)
	reg := metrics.New()
	d := census.NewDaemon(census.DaemonConfig{Clock: clk, Metrics: reg})
	d.Start()
	log := []*mlog.Entry{helloEntry("aa", "52.1.2.3", "Geth/v1.8.10-stable", t0.Add(time.Minute))}
	d.Record(log[0])
	clk.Advance(3 * census.DefaultInterval) // windows 0 and 1 are sealed
	sealed := d.Current().Points[0]
	if sealed.Alive != 1 {
		t.Fatalf("window 0 sealed as %+v, want 1 alive", sealed)
	}

	late := helloEntry("bb", "13.5.6.7", "Parity-Ethereum/v2.0.1-stable", t0.Add(2*time.Minute))
	log = append(log, late)
	d.Record(late)
	snap := d.Publish()
	d.Stop()

	if got := reg.Snapshot().Counter("census.entries_late"); got != 1 {
		t.Errorf("census.entries_late = %d, want 1", got)
	}
	if snap.Points[0] != sealed {
		t.Errorf("a late entry rewrote a published point: %+v, was %+v", snap.Points[0], sealed)
	}
	if snap.Totals.Identities != 2 || snap.Node("bb") == nil || snap.Node("bb").Client == "" {
		t.Errorf("the late entry is missing from the node table: totals %+v, node %+v", snap.Totals, snap.Node("bb"))
	}
	// From scratch nothing is late, and that is the difference the
	// counter stands for.
	scratch := census.BuildSnapshot(census.BuildParams{
		Epoch: snap.Epoch, Now: clk.Now(), Start: t0, Interval: census.DefaultInterval, Entries: log,
	})
	if scratch.Points[0].Alive != 2 {
		t.Errorf("from scratch window 0 has %d alive, want 2", scratch.Points[0].Alive)
	}
}

// steadyLog returns entriesPerWindow entries in each of `windows`
// windows over a fixed population.
func steadyLog(population, windows, entriesPerWindow int) []*mlog.Entry {
	var log []*mlog.Entry
	for w := 0; w < windows; w++ {
		for i := 0; i < entriesPerWindow; i++ {
			n := i % population
			at := t0.Add(time.Duration(w)*census.DefaultInterval + time.Duration(i)*time.Second)
			log = append(log, helloEntry(fmt.Sprintf("%040x", n), fmt.Sprintf("52.%d.%d.9", n/250, n%250),
				"Geth/v1.8.10-stable/linux-amd64/go1.10", at))
		}
	}
	return log
}

// TestPublishAllocsFollowTheDelta is the O(Δ) publish as counts no
// machine changes: a publish with nothing new allocates the same
// whether the census holds 200 identities or 1,600, and so does one
// that follows entries for exactly 50 of them. (What a publish does per
// identity regardless — one pointer copied — allocates once.)
func TestPublishAllocsFollowTheDelta(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops at random, and encoding/json's buffers with it")
	}
	const runs = 20
	publish := func(population, touch int) float64 {
		clk := simclock.NewSimulated(t0)
		d := census.NewDaemon(census.DaemonConfig{Clock: clk, Geo: geo.NewDB()})
		for _, e := range steadyLog(population, 4, population) {
			d.Record(e)
		}
		d.Start()
		clk.Advance(6 * census.DefaultInterval)
		defer d.Stop()
		// AllocsPerRun calls once to warm up; every call's entries exist
		// beforehand, so only recording and publishing them is counted.
		batches := make([][]*mlog.Entry, runs+1)
		for i := range batches {
			for k := 0; k < touch; k++ {
				n := k * (population / touch)
				batches[i] = append(batches[i], helloEntry(fmt.Sprintf("%040x", n), fmt.Sprintf("52.%d.%d.9", n/250, n%250),
					fmt.Sprintf("Geth/v1.8.%d-stable/linux-amd64/go1.10", 10+i%2), clk.Now()))
			}
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			for _, e := range batches[next] {
				d.Record(e)
			}
			next++
			d.Publish()
		})
	}
	for _, touch := range []int{0, 50} {
		small, large := publish(200, touch), publish(1600, touch)
		t.Logf("%d identities touched: %.0f allocations per publish at 200 identities, %.0f at 1,600", touch, small, large)
		if small == 0 || large > small*1.05 || large < small*0.95 {
			t.Errorf("a publish after entries for %d identities allocates %.0f times with 200 identities and %.0f with 1,600; want within 5%%",
				touch, small, large)
		}
	}
}

// TestDaemonDropsEntries: once a tick has folded an entry, nothing in
// the daemon (the buffers Record fills included) refers to it.
func TestDaemonDropsEntries(t *testing.T) {
	clk := simclock.NewSimulated(t0)
	d := census.NewDaemon(census.DaemonConfig{Clock: clk, Geo: geo.NewDB()})
	d.Start()
	defer d.Stop()

	const n = 500
	var collected atomic.Int64
	feed := func(window int) {
		for _, e := range steadyLog(50, 1, n) {
			e.Time = e.Time.Add(time.Duration(window) * census.DefaultInterval)
			runtime.SetFinalizer(e, func(*mlog.Entry) { collected.Add(1) })
			d.Record(e)
		}
	}
	// Two ticks, so that both of the daemon's batch buffers have been
	// filled and emptied.
	feed(0)
	clk.Advance(census.DefaultInterval)
	feed(1)
	clk.Advance(census.DefaultInterval)

	for i := 0; i < 10 && collected.Load() < 2*n; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // finalizers run on their own goroutine
	}
	if got := collected.Load(); got != 2*n {
		t.Errorf("%d of %d folded entries were collected; the daemon still holds the rest", got, 2*n)
	}
	if got := d.Current().Totals.Identities; got != 50 {
		t.Errorf("%d identities served, want 50", got)
	}
}

// TestEightyTwoDaySoakHeapIsFlat runs the paper's whole timeline, 82
// days of 48 epochs, over a fixed small population, and requires the
// heap after day 82 to be where it was after day 2: the daemon's
// memory follows the population, not the 3,936 publishes or the
// entries behind them. The served series is capped at one day, as a
// long-running censusd caps it.
func TestEightyTwoDaySoakHeapIsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("3,936 publishes")
	}
	const (
		perDay     = 48
		days       = 82
		population = 60
		perEpoch   = 25
		slack      = 1 << 20
	)
	clk := simclock.NewSimulated(t0)
	d := census.NewDaemon(census.DaemonConfig{Clock: clk, Geo: geo.NewDB(), MaxPoints: perDay})
	d.Start()
	defer d.Stop()

	rng := rand.New(rand.NewSource(82))
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	var afterDay2 uint64
	for epoch := 0; epoch < days*perDay; epoch++ {
		for i := 0; i < perEpoch; i++ {
			n := rng.Intn(population)
			d.Record(helloEntry(fmt.Sprintf("%040x", n), fmt.Sprintf("52.7.%d.%d", rng.Intn(2), n),
				"Geth/v1.8.10-stable/linux-amd64/go1.10", clk.Now().Add(time.Duration(i)*time.Second)))
		}
		clk.Advance(census.DefaultInterval)
		if epoch+1 == 2*perDay {
			afterDay2 = heap()
		}
	}
	afterDay82 := heap()
	snap := d.Current()
	if snap.Epoch != days*perDay || len(snap.Points) != perDay || snap.Totals.Identities != population {
		t.Fatalf("after the soak: epoch %d, %d points, %d identities", snap.Epoch, len(snap.Points), snap.Totals.Identities)
	}
	if last := snap.Points[len(snap.Points)-1]; last.Epoch != days*perDay-2 || last.Alive == 0 {
		t.Errorf("last served point %+v, want window %d with live nodes", last, days*perDay-2)
	}
	if afterDay82 > afterDay2+slack {
		t.Errorf("heap after day 2: %d KiB, after day 82: %d KiB; want no more than %d KiB of growth over %d entries",
			afterDay2>>10, afterDay82>>10, slack>>10, days*perDay*perEpoch)
	}
}

// TestConcurrentPublishIsSerialized: ticks, out-of-band publishes and
// the crawler's Record calls from different goroutines. Epochs are
// handed out once each, and every recorded entry is in the census at
// the end.
func TestConcurrentPublishIsSerialized(t *testing.T) {
	leakcheck.Check(t)
	clk := simclock.NewSimulated(t0)
	d := census.NewDaemon(census.DaemonConfig{Clock: clk, Geo: geo.NewDB()})
	d.Start()

	const (
		recorders  = 4
		perRecord  = 300
		publishers = 3
		perPublish = 30
	)
	var wg sync.WaitGroup
	for r := 0; r < recorders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perRecord; i++ {
				d.Record(helloEntry(fmt.Sprintf("r%d-%03d", r, i), "52.1.2.3", "Geth/v1.8.10-stable", clk.Now()))
			}
		}(r)
	}
	epochs := make(chan uint64, publishers*perPublish)
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPublish; i++ {
				epochs <- d.Publish().Epoch
			}
		}()
	}
	for i := 0; i < 20; i++ {
		clk.Advance(census.DefaultInterval)
	}
	wg.Wait()
	close(epochs)
	d.Stop()

	last := d.Publish()
	if want := uint64(1 + 20 + publishers*perPublish); last.Epoch != want {
		t.Errorf("final epoch %d, want %d: some publish shared or skipped an epoch number", last.Epoch, want)
	}
	if got := last.Totals.Identities; got != recorders*perRecord {
		t.Errorf("%d identities served, %d recorded", got, recorders*perRecord)
	}
	for e := range epochs {
		if e > last.Epoch {
			t.Errorf("Publish returned epoch %d, beyond the final %d", e, last.Epoch)
		}
	}
}
