package discv4

import (
	"math/rand"
	"time"

	"repro/internal/enode"
)

// Maintenance implements Kademlia's table upkeep: periodic liveness
// revalidation of old entries (the eviction policy §2.1 describes —
// "only adds a new node if the least recently active pre-existing
// node is not lively") and periodic refresh lookups that keep buckets
// populated.
//
// Both loops are optional; Config.RevalidateInterval and
// Config.RefreshInterval enable them. NodeFinder runs its own lookup
// loop, so it leaves refresh disabled; a transport standing in for a
// normal client enables both.

// LastInRandomBucket returns the least-recently-active entry of a
// randomly chosen non-empty bucket, or nil when the table is empty.
func (t *Table) LastInRandomBucket(rng *rand.Rand) *enode.Node {
	t.mu.Lock()
	defer t.mu.Unlock()
	var nonEmpty []int
	for i := range t.buckets {
		if len(t.buckets[i].entries) > 0 {
			nonEmpty = append(nonEmpty, i)
		}
	}
	if len(nonEmpty) == 0 {
		return nil
	}
	b := &t.buckets[nonEmpty[rng.Intn(len(nonEmpty))]]
	return b.entries[len(b.entries)-1].node
}

// startMaintenance launches the enabled loops.
func (t *Transport) startMaintenance() {
	if t.cfg.RevalidateInterval > 0 {
		t.wg.Add(1)
		go t.revalidateLoop()
	}
	if t.cfg.RefreshInterval > 0 {
		t.wg.Add(1)
		go t.refreshLoop()
	}
}

// revalidateLoop pings the least recently active entry of a random
// bucket; repeated failures evict the node in favor of its
// replacement-cache successor.
func (t *Transport) revalidateLoop() {
	defer t.wg.Done()
	rng := rand.New(rand.NewSource(t.cfg.Seed ^ 0x2e7a11))
	ticker := time.NewTicker(t.cfg.RevalidateInterval)
	defer ticker.Stop()
	for {
		select {
		case <-t.closed:
			return
		case <-ticker.C:
			n := t.table.LastInRandomBucket(rng)
			if n == nil {
				continue
			}
			// Ping handles both outcomes: success re-verifies, and
			// failure counts toward eviction.
			t.Ping(n) //nolint:errcheck // failure path is FailLiveness
		}
	}
}

// refreshLoop performs periodic lookups: one toward the node's own
// ID (populating nearby buckets) and one toward a random target.
func (t *Transport) refreshLoop() {
	defer t.wg.Done()
	rng := rand.New(rand.NewSource(t.cfg.Seed ^ 0x42e42e))
	ticker := time.NewTicker(t.cfg.RefreshInterval)
	defer ticker.Stop()
	for {
		select {
		case <-t.closed:
			return
		case <-ticker.C:
			t.Lookup(t.selfID)
			t.Lookup(enode.RandomID(rng))
		}
	}
}
