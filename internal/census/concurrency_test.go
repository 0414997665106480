package census_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/census"
	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/nodefinder"
	"repro/internal/nodefinder/mlog"
	"repro/internal/simclock"
	"repro/internal/simnet"
	"repro/internal/testutil/leakcheck"
)

// TestSnapshotSwapUnderLoad hammers the handler from many goroutines
// while the daemon keeps publishing new epochs and ingesting entries.
// Run with -race this is the proof of the lock-free read path: no
// reader ever sees a torn snapshot, an error status, or an epoch that
// moves backwards.
func TestSnapshotSwapUnderLoad(t *testing.T) {
	leakcheck.Check(t)
	clk := simclock.NewSimulated(t0)
	reg := metrics.New()
	d := census.NewDaemon(census.DaemonConfig{Clock: clk, Metrics: reg})
	for i := 0; i < 100; i++ {
		d.Record(helloEntry(fmt.Sprintf("n%03d", i), fmt.Sprintf("10.1.%d.%d", i/250, i%250),
			"Geth/v1.8.10-stable", t0.Add(time.Duration(i)*time.Second)))
	}
	d.Start()
	h := census.NewHandler(census.ServerConfig{Source: d, Metrics: reg})

	paths := []string{
		"/", "/v1/summary", "/v1/clients", "/v1/geo", "/v1/networks",
		"/v1/series/churn", "/v1/series/arrivals", "/v1/series/churn?last=2",
		"/v1/nodes/n000", "/metrics",
	}
	const workers = 32
	const perWorker = 40 // >1k requests in flight across the run
	errs := make(chan error, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			<-start
			lastEpoch := -1
			for i := 0; i < perWorker; i++ {
				target := paths[(w+i)%len(paths)]
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest("GET", target, nil))
				if rr.Code != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d: %s", target, rr.Code, rr.Body.Bytes())
					return
				}
				if es := rr.Header().Get("X-Census-Epoch"); es != "" {
					epoch, err := strconv.Atoi(es)
					if err != nil {
						errs <- fmt.Errorf("%s: bad epoch header %q", target, es)
						return
					}
					if epoch < lastEpoch {
						errs <- fmt.Errorf("%s: epoch went backwards: %d after %d", target, epoch, lastEpoch)
						return
					}
					lastEpoch = epoch
				}
				// A held snapshot's own fields are as frozen as its
				// bodies: under -race a publish that writes one after
				// the swap is a report here.
				if s := d.Current(); s.Time.Before(s.Start) {
					errs <- fmt.Errorf("epoch %d: time %v precedes series start %v", s.Epoch, s.Time, s.Start)
					return
				}
			}
		}(w)
	}
	close(start)

	// Publish epochs as fast as the readers can consume them, feeding
	// fresh entries so consecutive snapshots genuinely differ.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	extra := 0
	for publishing := true; publishing; {
		select {
		case <-done:
			publishing = false
		default:
			d.Record(helloEntry(fmt.Sprintf("x%04d", extra), "10.9.9.9",
				"Parity-Ethereum/v2.0.1-stable", clk.Now()))
			extra++
			clk.Advance(census.DefaultInterval)
		}
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	d.Stop()
	if d.Current().Epoch < 1 {
		t.Fatalf("load ran against a single epoch (epoch %d); swap path untested", d.Current().Epoch)
	}
}

// digest hashes everything a snapshot serves: every cached body and the
// JSON of every node.
func digest(s *census.Snapshot) [sha256.Size]byte {
	h := sha256.New()
	for ep := 0; ep < census.NumEndpoints; ep++ {
		h.Write(s.Payload(ep))
	}
	for _, id := range s.NodeIDs() {
		node, _ := json.Marshal(s.Node(id))
		h.Write(node)
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// TestSharedRecordsStayFrozen: consecutive snapshots share the records
// of the identities that did not change between them, and the fold keeps
// pointers to all of them. Eight snapshots are held and hashed while
// the daemon publishes 32 more, every one changing most of the same
// identities and leaving the rest (whose records stay shared) alone;
// readers hash the held ones throughout (under -race, a write through
// a shared record is a report), and at the end each still hashes as it
// did when it was current.
func TestSharedRecordsStayFrozen(t *testing.T) {
	leakcheck.Check(t)
	const (
		identities = 24
		held       = 8
		further    = 32
		readers    = 4
	)
	clk := simclock.NewSimulated(t0)
	d := census.NewDaemon(census.DaemonConfig{Clock: clk, Geo: geo.NewDB()})
	d.Start()
	defer d.Stop()
	publish := func(k int) *census.Snapshot {
		for i := 0; i < identities; i++ {
			if (i+k)%3 == 0 {
				continue // untouched this round: its record is shared
			}
			e := helloEntry(fmt.Sprintf("n%02d", i), fmt.Sprintf("52.%d.%d.9", k/2%5, i), fmt.Sprintf("Geth/v1.8.%d-stable", k%4), clk.Now())
			e.Status = &mlog.StatusInfo{ProtocolVersion: 63, NetworkID: uint64(1 + (i+k)%3), GenesisHash: "0x01"}
			d.Record(e)
		}
		clk.Advance(census.DefaultInterval)
		return d.Current()
	}

	var snaps [held]*census.Snapshot
	var sums [held][sha256.Size]byte
	for k := range snaps {
		snaps[k] = publish(k)
		sums[k] = digest(snaps[k])
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if k := i % held; digest(snaps[k]) != sums[k] {
					t.Errorf("held snapshot %d changed under a reader", k)
					return
				}
			}
		}(r)
	}
	for k := held; k < held+further; k++ {
		publish(k)
	}
	close(stop)
	wg.Wait()
	for k, s := range snaps {
		if digest(s) != sums[k] {
			t.Errorf("snapshot of epoch %d no longer hashes as it did when published", s.Epoch)
		}
	}
}

// TestDaemonStartStopLifecycle: Stop cancels the tick timer (nothing
// left on the clock), freezes the published epoch, and a restart
// resumes publishing. leakcheck proves the whole lifecycle spawns no
// goroutines.
func TestDaemonStartStopLifecycle(t *testing.T) {
	leakcheck.Check(t)
	clk := simclock.NewSimulated(t0)
	d := census.NewDaemon(census.DaemonConfig{Clock: clk})
	d.Start()
	clk.Advance(2 * census.DefaultInterval)
	if got := d.Current().Epoch; got != 2 {
		t.Fatalf("epoch = %d after two intervals, want 2", got)
	}

	d.Stop()
	if n := clk.PendingCount(); n != 0 {
		t.Errorf("%d timers still scheduled after Stop", n)
	}
	clk.Advance(5 * census.DefaultInterval)
	if got := d.Current().Epoch; got != 2 {
		t.Errorf("epoch advanced to %d after Stop", got)
	}

	d.Start()
	clk.Advance(census.DefaultInterval)
	if got := d.Current().Epoch; got <= 2 {
		t.Errorf("epoch = %d after restart, want publishing resumed", got)
	}
	d.Stop()
}

// TestSoakServedSeriesReconcilesWithMlog is the acceptance soak: a
// deterministic-seed simulated crawl feeds the census daemon through
// an mlog.Tee while a Collector keeps the raw log. After hours of
// virtual crawling, the served totals and the served churn series
// must reconcile EXACTLY — not approximately — with what the raw log
// says, because daemon and auditor share the same epoch code over the
// same ordered records.
func TestSoakServedSeriesReconcilesWithMlog(t *testing.T) {
	leakcheck.Check(t)
	const seed = 11
	reg := metrics.New()
	cfg := simnet.DefaultConfig(seed)
	cfg.BaseNodes = 250
	w := simnet.NewWorld(cfg)

	col := mlog.NewCollector()
	d := census.NewDaemon(census.DaemonConfig{
		Clock:   w.Clock,
		Geo:     geo.NewDB(),
		Metrics: reg,
	})
	d.Start() // anchor the epoch grid at the crawl start

	dialer := w.NewDialer(seed + 2)
	f, err := nodefinder.New(nodefinder.Config{
		Clock:     w.Clock,
		Discovery: w.NewDiscovery(seed + 1),
		Dialer:    dialer,
		Log:       mlog.Tee{col, d},
		Metrics:   reg,
		Seed:      seed + 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := w.StartIncoming(f, 30*time.Second, seed+4)
	f.Start()
	w.Clock.Advance(4 * time.Hour)
	f.Stop()
	gen.Stop()

	// Final out-of-band publish so daemon and collector have seen the
	// identical entry set.
	snap := d.Publish()
	d.Stop()

	entries := col.Entries()
	if len(entries) == 0 {
		t.Fatal("simulated crawl produced no mlog entries")
	}

	// Totals reconcile against a from-scratch aggregation of the log.
	nodes := analysis.Aggregate(entries)
	if got, want := snap.Totals.Identities, len(nodes); got != want {
		t.Errorf("served identities = %d, want %d (from mlog)", got, want)
	}
	responsive := 0
	for _, o := range nodes {
		if o.Responsive {
			responsive++
		}
	}
	if got := snap.Totals.Responsive; got != responsive {
		t.Errorf("served responsive = %d, want %d (from mlog)", got, responsive)
	}

	// The served series reconciles point-for-point with an independent
	// recomputation over the raw log.
	want := analysis.EpochSeries(entries, snap.Start, snap.Interval, len(snap.Points))
	if len(snap.Points) == 0 {
		t.Fatal("served series is empty after 4h of crawling")
	}
	for i, got := range snap.Points {
		if got != want[i] {
			t.Errorf("series[%d]: served %+v != recomputed %+v", i, got, want[i])
		}
	}
	// Exactness rests on sealing being sound: no entry reached the
	// daemon after its window was finalized.
	if late := reg.Snapshot().Counter("census.entries_late"); late != 0 {
		t.Errorf("%d entries arrived for an already-sealed window", late)
	}
	arrivedTotal := 0
	for _, p := range snap.Points {
		arrivedTotal += p.Arrived
	}
	if arrivedTotal == 0 {
		t.Error("series shows zero arrivals over the whole crawl")
	}
}
