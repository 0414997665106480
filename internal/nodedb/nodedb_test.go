package nodedb

import (
	"math/rand"
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/enode"
)

var t0 = time.Date(2018, 4, 18, 0, 0, 0, 0, time.UTC)

func node(rng *rand.Rand) *enode.Node {
	return enode.New(enode.RandomID(rng), net.IPv4(10, 0, byte(rng.Intn(256)), byte(rng.Intn(254)+1)), 30303, 30303)
}

func TestEnsureAndGet(t *testing.T) {
	db := New()
	rng := rand.New(rand.NewSource(1))
	n := node(rng)
	r := db.Ensure(n, t0)
	if r.FirstSeen != t0 {
		t.Error("first seen wrong")
	}
	if db.Get(n.ID) != r || db.Len() != 1 {
		t.Error("get/len wrong")
	}
	// Second ensure refreshes, does not duplicate.
	r2 := db.Ensure(n, t0.Add(time.Hour))
	if r2 != r || db.Len() != 1 {
		t.Error("duplicate record")
	}
	if r2.FirstSeen != t0 {
		t.Error("first seen overwritten")
	}
}

func TestDialAndSuccessCounters(t *testing.T) {
	db := New()
	rng := rand.New(rand.NewSource(2))
	n := node(rng)
	db.RecordDial(n, t0)
	db.RecordDial(n, t0.Add(time.Minute))
	db.RecordSuccess(n, t0.Add(time.Minute))
	r := db.Get(n.ID)
	if r.DialCount != 2 || r.SuccessCount != 1 {
		t.Errorf("counters %d/%d", r.DialCount, r.SuccessCount)
	}
	if !r.Static {
		t.Error("success did not promote to static")
	}
	if r.LastDial != t0.Add(time.Minute) {
		t.Error("last dial wrong")
	}
}

func TestStaticNodesSortedAndFiltered(t *testing.T) {
	db := New()
	rng := rand.New(rand.NewSource(3))
	var static []*enode.Node
	for i := 0; i < 20; i++ {
		n := node(rng)
		db.RecordDial(n, t0)
		if i%2 == 0 {
			db.RecordSuccess(n, t0)
			static = append(static, n)
		}
	}
	got := db.StaticNodes()
	if len(got) != len(static) {
		t.Fatalf("static count %d, want %d", len(got), len(static))
	}
	for i := 1; i < len(got); i++ {
		if string(got[i-1].ID.Bytes()) >= string(got[i].ID.Bytes()) {
			t.Fatal("not sorted")
		}
	}
}

func TestExpireStale(t *testing.T) {
	db := New()
	rng := rand.New(rand.NewSource(4))
	fresh, stale := node(rng), node(rng)
	db.RecordSuccess(fresh, t0.Add(23*time.Hour))
	db.RecordSuccess(stale, t0)
	removed := db.ExpireStale(t0.Add(24*time.Hour+time.Minute), 24*time.Hour)
	if removed != 1 {
		t.Fatalf("removed %d", removed)
	}
	if db.Get(stale.ID).Static {
		t.Error("stale still static")
	}
	if !db.Get(fresh.ID).Static {
		t.Error("fresh demoted")
	}
	// Record retained for analysis even after demotion.
	if db.Len() != 2 {
		t.Error("record dropped")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := New()
	rng := rand.New(rand.NewSource(5))
	var ids []enode.ID
	for i := 0; i < 10; i++ {
		n := node(rng)
		db.RecordDial(n, t0.Add(time.Duration(i)*time.Minute))
		if i < 5 {
			db.RecordSuccess(n, t0.Add(time.Hour))
		}
		ids = append(ids, n.ID)
	}
	path := filepath.Join(t.TempDir(), "nodes.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	db2 := New()
	if err := db2.Load(path); err != nil {
		t.Fatal(err)
	}
	if db2.Len() != 10 {
		t.Fatalf("loaded %d", db2.Len())
	}
	for i, id := range ids {
		r := db2.Get(id)
		if r == nil {
			t.Fatalf("missing record %d", i)
		}
		if (i < 5) != r.Static {
			t.Errorf("record %d static=%v", i, r.Static)
		}
		if r.ID != id {
			t.Error("ID not restored")
		}
	}
	// StaticNodes regeneration after restart — the paper's stated
	// purpose for the database.
	if len(db2.StaticNodes()) != 5 {
		t.Errorf("static list %d", len(db2.StaticNodes()))
	}
}

func TestLoadErrors(t *testing.T) {
	db := New()
	if err := db.Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestAllOrdering(t *testing.T) {
	db := New()
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 5; i++ {
		db.Ensure(node(rng), t0.Add(time.Duration(5-i)*time.Hour))
	}
	all := db.All()
	for i := 1; i < len(all); i++ {
		if all[i-1].FirstSeen.After(all[i].FirstSeen) {
			t.Fatal("All not time-ordered")
		}
	}
}

// refExpire is the scan ExpireStale used to be: visit every record,
// demote the static ones whose last success is older than maxAge.
func refExpire(static map[enode.ID]time.Time, now time.Time, maxAge time.Duration) int {
	removed := 0
	for id, last := range static {
		if now.Sub(last) > maxAge {
			delete(static, id)
			removed++
		}
	}
	return removed
}

// checkStaticRing: the ring holds exactly the static records, in
// LastSuccess order, and StaticLen counts them.
func checkStaticRing(t *testing.T, db *DB, want map[enode.ID]time.Time) {
	t.Helper()
	n := 0
	for r := db.static.next; r != &db.static; r = r.next {
		n++
		if last, ok := want[r.ID]; !ok || !r.Static || !last.Equal(r.LastSuccess) {
			t.Fatalf("ring holds %x (static=%v, last success %v); reference says %v, %v", r.ID[:4], r.Static, r.LastSuccess, ok, last)
		}
		if r.prev != &db.static && r.prev.LastSuccess.After(r.LastSuccess) {
			t.Fatalf("ring out of order at %x: %v after %v", r.ID[:4], r.LastSuccess, r.prev.LastSuccess)
		}
		if r.next.prev != r {
			t.Fatalf("ring links broken at %x", r.ID[:4])
		}
	}
	if n != len(want) || db.StaticLen() != len(want) || len(db.StaticNodes()) != len(want) {
		t.Fatalf("ring holds %d, StaticLen %d, StaticNodes %d; want %d", n, db.StaticLen(), len(db.StaticNodes()), len(want))
	}
}

// TestExpireStaleMatchesFullScan drives the ordered static ring and
// the old full-table scan through the same random schedule of
// successes (outbound and inbound, some with a clock that steps back),
// failures and sweeps: every sweep must demote the same number of
// nodes and leave the same static set.
func TestExpireStaleMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	db := New()
	nodes := make([]*enode.Node, 300)
	for i := range nodes {
		nodes[i] = node(rng)
	}
	static := map[enode.ID]time.Time{} // the reference: ID → LastSuccess of static nodes
	const maxAge = 6 * time.Hour
	now := t0
	for step := 0; step < 30000; step++ {
		now = now.Add(time.Duration(rng.Int63n(int64(2 * time.Minute))))
		at := now
		if rng.Intn(50) == 0 {
			at = now.Add(-time.Duration(rng.Int63n(int64(time.Hour)))) // a straggler with an old timestamp
		}
		n := nodes[rng.Intn(len(nodes))]
		switch op := rng.Intn(100); {
		case op < 40:
			if db.RecordResult(db.Ensure(n, at), at, at, true) != true {
				t.Fatal("a successful dial left the node off the static list")
			}
			static[n.ID] = at
		case op < 50:
			db.RecordSuccess(n, at)
			static[n.ID] = at
		case op < 75:
			_, was := static[n.ID]
			if got := db.RecordResult(db.Ensure(n, at), at, at, false); got != was {
				t.Fatalf("failed dial reported static=%v, want %v", got, was)
			}
		case op < 90:
			// Inbound: refreshes LastSuccess, never promotes.
			_, was := static[n.ID]
			handshake := rng.Intn(3) > 0
			if was && handshake {
				static[n.ID] = at
			}
			if r := db.RecordIncoming(n, at, handshake); r.Static != was || db.IsStatic(r) != was {
				t.Fatal("inbound connection changed static membership")
			}
		default:
			want := refExpire(static, now, maxAge)
			if got := db.ExpireStale(now, maxAge); got != want {
				t.Fatalf("step %d: ExpireStale demoted %d, the full scan %d", step, got, want)
			}
		}
		if step%500 == 0 {
			checkStaticRing(t, db, static)
		}
	}
	checkStaticRing(t, db, static)
	if len(static) == 0 || len(static) == len(nodes) {
		t.Fatalf("degenerate schedule: %d of %d static at the end", len(static), len(nodes))
	}

	// A snapshot rebuilds the ring in the same order.
	path := filepath.Join(t.TempDir(), "nodes.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	db2 := New()
	if err := db2.Load(path); err != nil {
		t.Fatal(err)
	}
	checkStaticRing(t, db2, static)
	later := now.Add(maxAge / 2)
	if got, want := db2.ExpireStale(later, maxAge), refExpire(static, later, maxAge); got != want {
		t.Fatalf("after Load: ExpireStale demoted %d, the full scan %d", got, want)
	}
	checkStaticRing(t, db2, static)
}
