package nodedb

import (
	"math/rand"
	"net"
	"sort"
	"testing"
	"time"

	"repro/internal/enode"
)

var t0 = time.Date(2018, 4, 18, 0, 0, 0, 0, time.UTC)

// all is the table as a list: every record, sorted by first-seen time
// then ID. Tests read the database through it.
func all(db *DB) []*Record {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*Record, 0, len(db.index))
	for _, h := range db.index {
		out = append(out, db.at(h))
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].FirstSeen.Equal(out[j].FirstSeen) {
			return out[i].FirstSeen.Before(out[j].FirstSeen)
		}
		return out[i].IDx < out[j].IDx
	})
	return out
}

// staticNodes is the StaticNodes list as the paper's crawler would
// regenerate it, sorted by ID: the static records, found by a scan of
// the whole table rather than by the ring.
func staticNodes(db *DB) []*enode.Node {
	var out []*enode.Node
	for _, r := range all(db) {
		if r.Static {
			out = append(out, enode.New(r.ID, r.IP, r.UDP, r.TCP))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return string(out[i].ID.Bytes()) < string(out[j].ID.Bytes())
	})
	return out
}

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
	got := staticNodes(db)
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

func TestAllOrdering(t *testing.T) {
	db := New()
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 5; i++ {
		db.Ensure(node(rng), t0.Add(time.Duration(5-i)*time.Hour))
	}
	all := all(db)
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
	for h := db.at(0).next; h != 0; h = db.at(h).next {
		n++
		r := db.at(h)
		if last, ok := want[r.ID]; !ok || !r.Static || !last.Equal(r.LastSuccess) || r.h != h {
			t.Fatalf("ring holds %x (static=%v, last success %v); reference says %v, %v", r.ID[:4], r.Static, r.LastSuccess, ok, last)
		}
		if r.prev != 0 && db.at(r.prev).LastSuccess.After(r.LastSuccess) {
			t.Fatalf("ring out of order at %x: %v after %v", r.ID[:4], r.LastSuccess, db.at(r.prev).LastSuccess)
		}
		if db.at(r.next).prev != h {
			t.Fatalf("ring links broken at %x", r.ID[:4])
		}
	}
	if n != len(want) || db.StaticLen() != len(want) || len(staticNodes(db)) != len(want) {
		t.Fatalf("ring holds %d, StaticLen %d, staticNodes %d; want %d", n, db.StaticLen(), len(staticNodes(db)), len(want))
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

}

// TestRecordPointersSurviveGrowth: a *Record handed out stays the
// record of its node, and its handle stays the record's number, while
// the table grows by several chunks behind it — the Finder reads the
// log's node ID through such a pointer without the database's lock.
func TestRecordPointersSurviveGrowth(t *testing.T) {
	db := New()
	rng := rand.New(rand.NewSource(9))
	first := node(rng)
	r := db.Ensure(first, t0)
	if r.Handle() != 1 {
		t.Fatalf("first record has handle %d, want 1", r.Handle())
	}
	nodes := []*enode.Node{first}
	for i := 0; i < 4*chunkSize; i++ {
		n := node(rng)
		db.RecordDial(n, t0)
		nodes = append(nodes, n)
	}
	db.RecordSuccess(first, t0.Add(time.Hour))
	if got := db.Get(first.ID); got != r {
		t.Fatal("the table moved the first record when it grew")
	}
	if r.ID != first.ID || r.IDx != first.ID.String() || !r.Static || r.SuccessCount != 1 {
		t.Fatalf("the first record's pointer reads %x (static=%v, %d successes) after growth", r.ID[:4], r.Static, r.SuccessCount)
	}
	for i, n := range nodes {
		if h := db.Get(n.ID).Handle(); h != uint32(i+1) {
			t.Fatalf("node %d has handle %d, want %d", i, h, i+1)
		}
	}
}
