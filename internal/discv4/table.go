package discv4

import (
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/enode"
)

// Table parameters.
const (
	// BucketCount is the number of distance buckets: log distances
	// 0..256 give 257 distinct values (§2.1).
	BucketCount = 257
	// BucketSize is k, the per-bucket capacity.
	BucketSize = 16
	// maxReplacements bounds each bucket's replacement cache.
	maxReplacements = 10
)

// DistanceFunc computes a bucket index from two ID hashes. The
// default is the Geth metric (enode.LogDist); passing
// enode.ParityLogDist reproduces Parity's buggy byte-summing metric
// for the §6.3 friction experiments.
type DistanceFunc func(a, b [32]byte) int

// tableEntry wraps a node with liveness bookkeeping.
type tableEntry struct {
	node      *enode.Node
	addedAt   time.Time
	lastPong  time.Time
	liveCheck int // consecutive failed liveness checks
}

// Table is the Kademlia-style routing table. It is safe for
// concurrent use.
type Table struct {
	mu       sync.Mutex
	self     enode.ID
	selfHash [32]byte
	dist     DistanceFunc
	buckets  [BucketCount]bucket
	rng      *rand.Rand
	count    int
}

type bucket struct {
	entries      []*tableEntry // sorted by last activity, most recent first
	replacements []*enode.Node
}

// NewTable creates a routing table for the given local node ID. If
// dist is nil the Geth log-distance metric is used.
func NewTable(self enode.ID, dist DistanceFunc, seed int64) *Table {
	if dist == nil {
		dist = enode.LogDist
	}
	return &Table{
		self:     self,
		selfHash: self.Hash(),
		dist:     dist,
		rng:      rand.New(rand.NewSource(seed)),
	}
}

// Self returns the local node ID.
func (t *Table) Self() enode.ID { return t.self }

// Len returns the total number of nodes in the table.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// bucketIndex returns the bucket for a remote ID. Distance 0 (self)
// maps to bucket 0, which stays empty in practice.
func (t *Table) bucketIndex(id enode.ID) int {
	d := t.dist(t.selfHash, id.Hash())
	if d < 0 {
		d = 0
	}
	if d >= BucketCount {
		d = BucketCount - 1
	}
	return d
}

// AddSeenNode inserts a node observed on the network. If the bucket
// is full the node goes to the replacement cache, implementing
// Kademlia's prefer-old-nodes policy. It reports whether the node
// entered the main bucket.
func (t *Table) AddSeenNode(n *enode.Node, now time.Time) bool {
	if n.ID == t.self {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &t.buckets[t.bucketIndex(n.ID)]
	for _, e := range b.entries {
		if e.node.ID == n.ID {
			// Refresh endpoint information.
			e.node = n
			return true
		}
	}
	if len(b.entries) < BucketSize {
		b.entries = append(b.entries, &tableEntry{node: n, addedAt: now})
		t.count++
		b.removeReplacement(n.ID)
		return true
	}
	b.addReplacement(n)
	return false
}

// AddVerifiedNode inserts a node that has answered a ping, marking it
// live. Verified nodes move to the front of their bucket.
func (t *Table) AddVerifiedNode(n *enode.Node, now time.Time) bool {
	if !t.AddSeenNode(n, now) {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &t.buckets[t.bucketIndex(n.ID)]
	for i, e := range b.entries {
		if e.node.ID == n.ID {
			e.lastPong = now
			e.liveCheck = 0
			// Move to front (most recently active).
			copy(b.entries[1:i+1], b.entries[:i])
			b.entries[0] = e
			return true
		}
	}
	return false
}

// FailLiveness records a failed liveness check. After enough failures
// the node is evicted and replaced from the cache — Kademlia's
// eviction of unresponsive old nodes.
func (t *Table) FailLiveness(id enode.ID) {
	const maxFails = 3
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &t.buckets[t.bucketIndex(id)]
	for i, e := range b.entries {
		if e.node.ID == id {
			e.liveCheck++
			if e.liveCheck >= maxFails {
				b.entries = append(b.entries[:i], b.entries[i+1:]...)
				t.count--
				if len(b.replacements) > 0 {
					r := b.replacements[len(b.replacements)-1]
					b.replacements = b.replacements[:len(b.replacements)-1]
					b.entries = append(b.entries, &tableEntry{node: r})
					t.count++
				}
			}
			return
		}
	}
}

// Remove deletes a node outright.
func (t *Table) Remove(id enode.ID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &t.buckets[t.bucketIndex(id)]
	for i, e := range b.entries {
		if e.node.ID == id {
			b.entries = append(b.entries[:i], b.entries[i+1:]...)
			t.count--
			return
		}
	}
}

// Contains reports whether the table holds the given node.
func (t *Table) Contains(id enode.ID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &t.buckets[t.bucketIndex(id)]
	for _, e := range b.entries {
		if e.node.ID == id {
			return true
		}
	}
	return false
}

// Closest returns the n table nodes closest to target under the
// table's distance metric.
func (t *Table) Closest(target enode.ID, n int) []*enode.Node {
	targetHash := target.Hash()
	t.mu.Lock()
	// t.count is bounded by the table's fixed bucket capacity (17*16 entries).
	all := make([]*enode.Node, 0, t.count)
	for i := range t.buckets {
		for _, e := range t.buckets[i].entries {
			all = append(all, e.node)
		}
	}
	t.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		return t.dist(all[i].ID.Hash(), targetHash) < t.dist(all[j].ID.Hash(), targetHash)
	})
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// Random returns up to n randomly chosen table nodes.
func (t *Table) Random(n int) []*enode.Node {
	t.mu.Lock()
	// t.count is bounded by the table's fixed bucket capacity (17*16 entries).
	all := make([]*enode.Node, 0, t.count)
	for i := range t.buckets {
		for _, e := range t.buckets[i].entries {
			all = append(all, e.node)
		}
	}
	t.rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	t.mu.Unlock()
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// All returns every node in the table.
func (t *Table) All() []*enode.Node {
	t.mu.Lock()
	defer t.mu.Unlock()
	// t.count is bounded by the table's fixed bucket capacity (17*16 entries).
	all := make([]*enode.Node, 0, t.count)
	for i := range t.buckets {
		for _, e := range t.buckets[i].entries {
			all = append(all, e.node)
		}
	}
	return all
}

// BucketLoad returns the occupancy of each bucket, for diagnostics
// and the distance-distribution experiments.
func (t *Table) BucketLoad() [BucketCount]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out [BucketCount]int
	for i := range t.buckets {
		out[i] = len(t.buckets[i].entries)
	}
	return out
}

func (b *bucket) addReplacement(n *enode.Node) {
	for _, r := range b.replacements {
		if r.ID == n.ID {
			return
		}
	}
	if len(b.replacements) >= maxReplacements {
		copy(b.replacements, b.replacements[1:])
		b.replacements = b.replacements[:len(b.replacements)-1]
	}
	b.replacements = append(b.replacements, n)
}

func (b *bucket) removeReplacement(id enode.ID) {
	for i, r := range b.replacements {
		if r.ID == id {
			b.replacements = append(b.replacements[:i], b.replacements[i+1:]...)
			return
		}
	}
}
