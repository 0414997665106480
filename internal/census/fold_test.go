package census_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
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
// DISCONNECTs without a HELLO; window `empty` has no entry at all.
func randomArrivals(rng *rand.Rand, n, epochs, empty int) []arrival {
	const interval = census.DefaultInterval
	mainnet := chain.MainnetGenesisHash.Hex()
	clients := []string{
		"Geth/v1.8.10-stable/linux-amd64/go1.10", "Geth/v1.8.11-stable/linux-amd64/go1.10",
		"Parity-Ethereum/v1.10.6-stable", "cpp-ethereum/v1.3.0",
	}
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
			e.Hello = &mlog.HelloInfo{Version: 5, ClientName: clients[rng.Intn(len(clients))], Caps: []string{"eth/63"}}
			if rng.Intn(3) > 0 {
				e.Status = &mlog.StatusInfo{ProtocolVersion: 63, NetworkID: uint64(1 + rng.Intn(2)),
					GenesisHash: mainnet, BestBlock: 5_500_000 + uint64(rng.Intn(1000))}
				e.DAOFork = []string{"supported", "opposed", ""}[rng.Intn(3)]
			}
		}
		out = append(out, arrival{at: at, e: e})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at.Before(out[j].at) })
	return out
}

type fixedSource struct{ s *census.Snapshot }

func (f fixedSource) Current() *census.Snapshot { return f.s }

func get(t *testing.T, h http.Handler, target string) []byte {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", target, nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", target, rr.Code, rr.Body.Bytes())
	}
	return rr.Body.Bytes()
}

// sameCensus fails unless got, published by a daemon, is what
// BuildSnapshot makes of the log so far: totals, series, ID list, and
// every endpoint body (each node's included) byte for byte.
func sameCensus(t *testing.T, when string, got *census.Snapshot, p census.BuildParams) {
	t.Helper()
	p.Epoch = got.Epoch
	want := census.BuildSnapshot(p)
	if got.Totals != want.Totals {
		t.Errorf("%s: totals %+v, from scratch %+v", when, got.Totals, want.Totals)
	}
	if !got.Time.Equal(want.Time) || !got.Start.Equal(want.Start) || got.Interval != want.Interval || got.ETag() != want.ETag() {
		t.Errorf("%s: header (%v %v %v %s), from scratch (%v %v %v %s)", when,
			got.Time, got.Start, got.Interval, got.ETag(), want.Time, want.Start, want.Interval, want.ETag())
	}
	if !reflect.DeepEqual(got.Points, want.Points) {
		t.Errorf("%s: series\n got %+v\nwant %+v", when, got.Points, want.Points)
	}
	if !reflect.DeepEqual(got.NodeIDs(), want.NodeIDs()) && len(got.NodeIDs())+len(want.NodeIDs()) > 0 {
		t.Errorf("%s: IDs %v, from scratch %v", when, got.NodeIDs(), want.NodeIDs())
	}
	gh := census.NewHandler(census.ServerConfig{Source: fixedSource{got}})
	wh := census.NewHandler(census.ServerConfig{Source: fixedSource{want}})
	targets := []string{"/", "/v1/summary", "/v1/clients", "/v1/geo", "/v1/networks",
		"/v1/series/churn", "/v1/series/arrivals", "/v1/series/churn?last=2"}
	for _, id := range want.NodeIDs() {
		targets = append(targets, "/v1/nodes/"+id)
	}
	for _, target := range targets {
		if g, w := get(t, gh, target), get(t, wh, target); !bytes.Equal(g, w) {
			t.Errorf("%s: GET %s\n--- daemon ---\n%s--- from scratch ---\n%s", when, target, g, w)
		}
	}
}

// TestIncrementalEqualsFromScratch drives one daemon tick by tick over
// a randomized log and, at every publish, compares what it serves with
// a census built from scratch over the log so far. The daemon has long
// dropped those entries; only the test keeps them.
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
			if late := reg.Snapshot().Counter("census.entries_late"); late != 0 {
				t.Errorf("maxPoints %d seed %d: %d entries counted late; every one arrived inside the lag", maxPoints, seed, late)
			}
		}
	}
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

// TestIdlePublishAllocsIndependentOfLogSize: what a publish allocates
// depends on the population and the served series, not on how many
// entries the daemon has folded.
func TestIdlePublishAllocsIndependentOfLogSize(t *testing.T) {
	idle := func(entriesPerWindow int) float64 {
		clk := simclock.NewSimulated(t0)
		d := census.NewDaemon(census.DaemonConfig{Clock: clk, Geo: geo.NewDB()})
		for _, e := range steadyLog(200, 6, entriesPerWindow) {
			d.Record(e)
		}
		d.Start()
		clk.Advance(8 * census.DefaultInterval)
		defer d.Stop()
		return testing.AllocsPerRun(20, func() { d.Publish() })
	}
	small, large := idle(400), idle(3200)
	if small == 0 || large > small*1.05 || large < small*0.95 {
		t.Errorf("an idle publish allocates %.0f times after 2,400 entries and %.0f after 19,200; want within 5%%", small, large)
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
