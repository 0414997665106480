// Package nodedb is NodeFinder's node database (§4).
//
// The paper's crawler stores every address it has dialed together
// with last-dialed timestamps, and removes addresses whose last
// successful TCP connection is older than 24 hours from its
// StaticNodes list. This package implements that store in memory:
// one record per node, reached by a dense handle.
package nodedb

import (
	"net"
	"sync"
	"time"

	"repro/internal/enode"
)

// Record is the stored state for one node, guarded by the database's
// lock: holders of a *Record read ID, IDx and Handle freely (they
// never change) and go through DB methods for the rest.
type Record struct {
	ID  enode.ID
	IDx string // hex form: the log's nodeID
	IP  net.IP
	UDP uint16
	TCP uint16

	FirstSeen    time.Time
	LastDial     time.Time
	LastSuccess  time.Time // last successful TCP connection
	DialCount    int
	SuccessCount int
	Static       bool // member of the StaticNodes list

	// h is the record's handle. prev and next link the static records
	// in LastSuccess order, by handle; a record is on the ring exactly
	// while Static is set.
	h, prev, next uint32
}

// Handle is the record's dense number, from 1 and fixed for the
// database's lifetime, by which a caller indexes tables of its own.
func (r *Record) Handle() uint32 { return r.h }

// Records live by value in chunks of chunkSize that never move, so a
// *Record stays valid while the table grows.
const (
	chunkBits = 10
	chunkSize = 1 << chunkBits
)

// DB is the node database. Safe for concurrent use.
type DB struct {
	mu sync.RWMutex
	// index is the one ID-keyed map: ID to handle. It holds no
	// pointers, so the collector does not scan it.
	index map[enode.ID]uint32
	// chunks hold the records; handle h is chunks[h>>chunkBits][h%chunkSize].
	// Handle 0 is the sentinel of the ring of static records, stalest
	// LastSuccess first: a success is a move to the back, and
	// ExpireStale reads off the front instead of scanning the table.
	chunks    []*[chunkSize]Record
	staticLen int
}

// New creates an empty database.
func New() *DB {
	return &DB{index: make(map[enode.ID]uint32), chunks: []*[chunkSize]Record{new([chunkSize]Record)}}
}

// at returns the record with handle h. Caller holds db.mu.
func (db *DB) at(h uint32) *Record { return &db.chunks[h>>chunkBits][h%chunkSize] }

// ensure returns the record for a node, creating it on first sight;
// refresh makes a known record take n's endpoint. Caller holds db.mu.
func (db *DB) ensure(n *enode.Node, now time.Time, refresh bool) *Record {
	if h, ok := db.index[n.ID]; ok {
		r := db.at(h)
		if refresh {
			r.IP, r.UDP, r.TCP = n.IP, n.UDP, n.TCP
		}
		return r
	}
	// The census exists to record every distinct peer ID: growth is
	// bounded by the real network's size, and evicting entries would
	// erase the measurement.
	h := uint32(len(db.index) + 1)
	if int(h>>chunkBits) == len(db.chunks) {
		db.chunks = append(db.chunks, new([chunkSize]Record))
	}
	db.index[n.ID] = h
	r := db.at(h)
	*r = Record{ID: n.ID, IDx: n.ID.String(), IP: n.IP, UDP: n.UDP, TCP: n.TCP, FirstSeen: now, h: h}
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
	if h, ok := db.index[id]; ok {
		return db.at(h)
	}
	return nil
}

// Len returns the number of known nodes.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.index)
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
			db.unlink(r)
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

// succeeded notes a success at now and files r at its place in the
// static ring. Caller holds db.mu.
func (db *DB) succeeded(r *Record, now time.Time) {
	r.LastSuccess = now
	r.SuccessCount++
	if r.Static {
		db.unlink(r)
	} else {
		r.Static = true
		db.staticLen++
	}
	db.fileStatic(r)
}

// fileStatic links r, off the ring, in at its place: behind every
// record whose LastSuccess is no later — the back, unless the caller's
// clock stepped backwards. Caller holds db.mu.
func (db *DB) fileStatic(r *Record) {
	at := db.at(0).prev
	for at != 0 && db.at(at).LastSuccess.After(r.LastSuccess) {
		at = db.at(at).prev
	}
	prev := db.at(at)
	r.prev, r.next = at, prev.next
	db.at(prev.next).prev, prev.next = r.h, r.h
}

// unlink takes r off the static ring. Caller holds db.mu.
func (db *DB) unlink(r *Record) {
	db.at(r.prev).next, db.at(r.next).prev = r.next, r.prev
	r.prev, r.next = 0, 0
}

// StaticLen returns the size of the static list.
func (db *DB) StaticLen() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.staticLen
}

// ExpireStale demotes nodes whose last successful connection is older
// than maxAge (the paper uses 24 hours) and returns how many were
// removed from the static list.
func (db *DB) ExpireStale(now time.Time, maxAge time.Duration) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	removed := 0
	for h := db.at(0).next; h != 0; h = db.at(0).next {
		r := db.at(h)
		if now.Sub(r.LastSuccess) <= maxAge {
			break
		}
		db.unlink(r)
		r.Static = false
		removed++
	}
	db.staticLen -= removed
	return removed
}
