// Package nodedb is NodeFinder's persistent node database (§4).
//
// The paper's crawler stores every address it has dialed together
// with last-dialed timestamps, so that the StaticNodes list can be
// regenerated after a restart, and removes addresses whose last
// successful TCP connection is older than 24 hours. This package
// implements that store: an in-memory index with optional JSON
// snapshot persistence.
package nodedb

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/enode"
)

// Record is the stored state for one node, guarded by the database's
// lock: holders of a *Record read IDx freely (it never changes) and
// go through DB methods for the rest.
type Record struct {
	ID  enode.ID `json:"-"`
	IDx string   `json:"id"` // hex form for JSON
	IP  net.IP   `json:"ip"`
	UDP uint16   `json:"udp"`
	TCP uint16   `json:"tcp"`

	FirstSeen       time.Time `json:"firstSeen"`
	LastDial        time.Time `json:"lastDial"`
	LastSuccess     time.Time `json:"lastSuccess"` // last successful TCP connection
	DialCount       int       `json:"dialCount"`
	SuccessCount    int       `json:"successCount"`
	Static          bool      `json:"static"` // member of the StaticNodes list
	LastDisconnects string    `json:"lastDisconnect,omitempty"`

	// prev and next link the static records in LastSuccess order; both
	// are nil off the list.
	prev, next *Record
}

// Node converts a record back to an enode.Node.
func (r *Record) Node() *enode.Node { return enode.New(r.ID, r.IP, r.UDP, r.TCP) }

// DB is the node database. Safe for concurrent use.
type DB struct {
	mu    sync.RWMutex
	nodes map[enode.ID]*Record
	// static is the sentinel of the ring of static records, stalest
	// LastSuccess first: a success is a move to the back, and
	// ExpireStale reads off the front instead of scanning the table.
	static    Record
	staticLen int
}

// New creates an empty database.
func New() *DB {
	db := &DB{nodes: make(map[enode.ID]*Record)}
	db.static.prev, db.static.next = &db.static, &db.static
	return db
}

// ensure returns the record for a node, creating it on first sight;
// refresh makes a known record take n's endpoint. Caller holds db.mu.
func (db *DB) ensure(n *enode.Node, now time.Time, refresh bool) *Record {
	r, ok := db.nodes[n.ID]
	if !ok {
		r, refresh = &Record{ID: n.ID, IDx: n.ID.String(), FirstSeen: now}, true
		// The census exists to record every distinct peer ID: growth is
		// bounded by the real network's size, and evicting entries
		// would erase the measurement.
		db.nodes[n.ID] = r
	}
	if refresh {
		r.IP, r.UDP, r.TCP = n.IP, n.UDP, n.TCP
	}
	return r
}

// Ensure returns the record for a node, creating it on first sight
// and refreshing its endpoint.
func (db *DB) Ensure(n *enode.Node, now time.Time) *Record {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.ensure(n, now, true)
}

// Get returns the record for an ID, or nil.
func (db *DB) Get(id enode.ID) *Record {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.nodes[id]
}

// Len returns the number of known nodes.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.nodes)
}

// RecordDial notes a dial attempt.
func (db *DB) RecordDial(n *enode.Node, now time.Time) {
	db.mu.Lock()
	defer db.mu.Unlock()
	r := db.ensure(n, now, false)
	r.LastDial, r.DialCount = now, r.DialCount+1
}

// RecordSuccess notes a successful TCP connection and promotes the
// node to the StaticNodes list — the paper's "successful
// dynamic-dials are automatically added to StaticNodes".
func (db *DB) RecordSuccess(n *enode.Node, now time.Time) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.succeeded(db.ensure(n, now, false), now)
}

// RecordResult is RecordDial and RecordSuccess for a caller holding
// the node's record: it notes one finished dial attempt begun at start
// (successful at now) and reports whether the node is now static.
func (db *DB) RecordResult(r *Record, start, now time.Time, success bool) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	r.LastDial, r.DialCount = start, r.DialCount+1
	if success {
		db.succeeded(r, now)
	}
	return r.Static
}

// RecordIncoming notes an inbound connection from n. The peer proved
// its reachability of us, not ours of it: a completed handshake
// refreshes LastSuccess, keeping a static node from going stale, but
// does not make the node static.
func (db *DB) RecordIncoming(n *enode.Node, now time.Time, success bool) *Record {
	db.mu.Lock()
	defer db.mu.Unlock()
	r := db.ensure(n, now, true)
	if success {
		r.LastSuccess = now
		if r.Static {
			db.fileStatic(r)
		}
	}
	return r
}

// IsStatic reports whether r is on the static list.
func (db *DB) IsStatic(r *Record) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return r.Static
}

func (db *DB) succeeded(r *Record, now time.Time) {
	r.LastSuccess = now
	r.SuccessCount++
	if !r.Static {
		r.Static = true
		db.staticLen++
	}
	db.fileStatic(r)
}

// fileStatic puts r at its place in the static ring: behind every
// record whose LastSuccess is no later — the back, unless the caller's
// clock stepped backwards. Caller holds db.mu.
func (db *DB) fileStatic(r *Record) {
	db.unlink(r)
	at := db.static.prev
	for at != &db.static && at.LastSuccess.After(r.LastSuccess) {
		at = at.prev
	}
	r.prev, r.next = at, at.next
	at.next.prev, at.next = r, r
}

func (db *DB) unlink(r *Record) {
	if r.next != nil {
		r.prev.next, r.next.prev = r.next, r.prev
		r.prev, r.next = nil, nil
	}
}

// StaticLen returns the size of the static list.
func (db *DB) StaticLen() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.staticLen
}

// StaticNodes returns the current static list, sorted by ID for
// determinism.
func (db *DB) StaticNodes() []*enode.Node {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*enode.Node, 0, db.staticLen)
	for r := db.static.next; r != &db.static; r = r.next {
		out = append(out, r.Node())
	}
	sort.Slice(out, func(i, j int) bool {
		return string(out[i].ID.Bytes()) < string(out[j].ID.Bytes())
	})
	return out
}

// ExpireStale demotes nodes whose last successful connection is older
// than maxAge (the paper uses 24 hours) and returns how many were
// removed from the static list.
func (db *DB) ExpireStale(now time.Time, maxAge time.Duration) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	removed := 0
	for r := db.static.next; r != &db.static && now.Sub(r.LastSuccess) > maxAge; r = db.static.next {
		db.unlink(r)
		r.Static = false
		removed++
	}
	db.staticLen -= removed
	return removed
}

// Save writes a JSON snapshot to path.
func (db *DB) Save(path string) error {
	db.mu.RLock()
	records := make([]*Record, 0, len(db.nodes))
	for _, r := range db.nodes {
		records = append(records, r)
	}
	sort.Slice(records, func(i, j int) bool { return records[i].IDx < records[j].IDx })
	data, err := json.MarshalIndent(records, "", " ") // reads every field: still under the lock
	db.mu.RUnlock()
	if err != nil {
		return fmt.Errorf("nodedb: marshal: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("nodedb: write: %w", err)
	}
	return os.Rename(tmp, path)
}

// Load reads a snapshot written by Save, replacing current contents.
func (db *DB) Load(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("nodedb: read: %w", err)
	}
	var records []*Record
	if err := json.Unmarshal(data, &records); err != nil {
		return fmt.Errorf("nodedb: unmarshal: %w", err)
	}
	nodes := make(map[enode.ID]*Record, len(records))
	for _, r := range records {
		id, err := enode.HexID(r.IDx)
		if err != nil {
			return fmt.Errorf("nodedb: record %q: %w", r.IDx, err)
		}
		r.ID = id
		nodes[id] = r
	}
	// Stalest first, so that every record files at the ring's back.
	sort.SliceStable(records, func(i, j int) bool { return records[i].LastSuccess.Before(records[j].LastSuccess) })
	db.mu.Lock()
	defer db.mu.Unlock()
	db.nodes, db.staticLen = nodes, 0
	db.static.prev, db.static.next = &db.static, &db.static
	for _, r := range records {
		if r.Static {
			db.fileStatic(r)
			db.staticLen++
		}
	}
	return nil
}

// All returns every record (copies of the pointers; treat as
// read-only), sorted by first-seen time then ID.
func (db *DB) All() []*Record {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*Record, 0, len(db.nodes))
	for _, r := range db.nodes {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].FirstSeen.Equal(out[j].FirstSeen) {
			return out[i].FirstSeen.Before(out[j].FirstSeen)
		}
		return out[i].IDx < out[j].IDx
	})
	return out
}
