// Package bad holds mutexes across peer-controlled operations — the
// stall shapes locknet exists to catch.
package bad

import (
	"net"
	"sync"
)

// Peer serializes access with a mutex.
type Peer struct {
	mu   sync.Mutex
	conn net.Conn
	out  chan []byte
	seq  uint64
}

// Send writes to the conn while holding the lock: a slow peer blocks
// every other Send.
func (p *Peer) Send(msg []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seq++
	_, err := p.conn.Write(msg) // want "p.conn.Write on net.Conn while holding mutex p.mu"
	return err
}

// Queue performs a blocking channel send inside the critical section.
func (p *Peer) Queue(msg []byte) {
	p.mu.Lock()
	p.out <- msg // want "channel send while holding mutex p.mu"
	p.mu.Unlock()
}

// Wait blocks on a receive with the lock held.
func (p *Peer) Wait(ready chan struct{}) {
	p.mu.Lock()
	<-ready // want "channel receive while holding mutex p.mu"
	p.mu.Unlock()
}

// Hub guards its registry and its statistics with separate mutexes.
type Hub struct {
	regMu   sync.Mutex
	statsMu sync.Mutex
	events  chan string
}

// Announce sends with both locks held; the report names them in
// sorted order, whichever was taken first.
func (h *Hub) Announce(ev string) {
	h.statsMu.Lock()
	defer h.statsMu.Unlock()
	h.regMu.Lock()
	defer h.regMu.Unlock()
	h.events <- ev // want "channel send while holding mutex h.regMu, h.statsMu:"
}
