package faultnet

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// conn is a net.Conn that misbehaves according to one fault draw.
// All sleeps select against the done channel so Close always
// releases a blocked peer promptly — the fault layer must never be
// the thing that leaks a goroutine.
type conn struct {
	net.Conn
	plan *Plan
	kind Kind

	mu      sync.Mutex // guards rng and the fault state below
	rng     *rand.Rand
	moved   int    // total bytes read+written (Reset bookkeeping)
	stalled bool   // Stall fired already
	cut     bool   // Truncate fired already
	held    []byte // Reorder's withheld write

	closeOnce sync.Once
	done      chan struct{}
}

func newConn(fd net.Conn, p *Plan, kind Kind, seed int64) net.Conn {
	return &conn{
		Conn: fd,
		plan: p,
		kind: kind,
		rng:  rand.New(rand.NewSource(seed)),
		done: make(chan struct{}),
	}
}

// errInjected marks failures the fault layer itself manufactured.
type errInjected struct{ kind Kind }

func (e errInjected) Error() string {
	return fmt.Sprintf("faultnet: injected %s: connection reset", e.kind)
}

// sleep pauses for d but returns early (false) if the conn closes.
func (c *conn) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	// Wall time by design: the injected-latency timer emulates real
	// network delay on real sockets; tests keep it sub-millisecond.
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.done:
		return false
	}
}

// maybeStall freezes the first I/O operation of a Stall conn.
func (c *conn) maybeStall() bool {
	c.mu.Lock()
	fire := c.kind == Stall && !c.stalled
	c.stalled = true
	c.mu.Unlock()
	if fire {
		return c.sleep(c.plan.stallFor())
	}
	return true
}

// abort closes with SO_LINGER 0 when possible so the peer observes a
// genuine TCP RST, exactly what a crashing or firewalled remote
// produces.
func (c *conn) abort() {
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		tc.SetLinger(0) //nolint:errcheck
	}
	c.Close()
}

func (c *conn) Read(b []byte) (int, error) {
	switch c.kind {
	case Latency:
		if !c.sleep(c.plan.latency()) {
			return 0, net.ErrClosed
		}
	case Stall:
		if !c.maybeStall() {
			return 0, net.ErrClosed
		}
	}
	n, err := c.Conn.Read(b)
	if c.kind == Reset {
		c.mu.Lock()
		c.moved += n
		trip := c.moved >= c.plan.resetAfter()
		c.mu.Unlock()
		if trip {
			c.abort()
			return n, errInjected{Reset}
		}
	}
	return n, err
}

func (c *conn) Write(b []byte) (int, error) {
	switch c.kind {
	case None:
		return c.Conn.Write(b)
	case Latency:
		if !c.sleep(c.plan.latency()) {
			return 0, net.ErrClosed
		}
		return c.Conn.Write(b)
	case Stall:
		if !c.maybeStall() {
			return 0, net.ErrClosed
		}
		return c.Conn.Write(b)
	case Reset:
		c.mu.Lock()
		c.moved += len(b)
		trip := c.moved >= c.plan.resetAfter()
		c.mu.Unlock()
		if trip {
			c.abort()
			return 0, errInjected{Reset}
		}
		return c.Conn.Write(b)
	case SlowLoris:
		return c.writeLoris(b)
	case Truncate:
		return c.writeTruncate(b)
	case Corrupt:
		return c.writeCorrupt(b)
	case Duplicate:
		if n, err := c.Conn.Write(b); err != nil {
			return n, err
		}
		c.Conn.Write(b) //nolint:errcheck // best-effort duplicate
		return len(b), nil
	case Reorder:
		return c.writeReorder(b)
	default:
		return c.Conn.Write(b)
	}
}

// writeLoris trickles b out chunk by chunk.
func (c *conn) writeLoris(b []byte) (int, error) {
	chunk := c.plan.lorisChunk()
	written := 0
	for written < len(b) {
		end := written + chunk
		if end > len(b) {
			end = len(b)
		}
		n, err := c.Conn.Write(b[written:end])
		written += n
		if err != nil {
			return written, err
		}
		if written < len(b) && !c.sleep(c.plan.lorisDelay()) {
			return written, net.ErrClosed
		}
	}
	return written, nil
}

// writeTruncate picks one write, sends only half of it, and slams
// the connection shut — a mid-frame disappearance.
func (c *conn) writeTruncate(b []byte) (int, error) {
	c.mu.Lock()
	fire := !c.cut && c.rng.Intn(3) == 0
	if fire {
		c.cut = true
	}
	c.mu.Unlock()
	if !fire || len(b) < 2 {
		return c.Conn.Write(b)
	}
	c.Conn.Write(b[:len(b)/2]) //nolint:errcheck
	c.abort()
	return len(b) / 2, errInjected{Truncate}
}

// writeCorrupt flips one bit per write. The input is copied first:
// callers own their buffers.
func (c *conn) writeCorrupt(b []byte) (int, error) {
	if len(b) == 0 {
		return c.Conn.Write(b)
	}
	c.mu.Lock()
	i := c.rng.Intn(len(b))
	bit := byte(1 << c.rng.Intn(8))
	c.mu.Unlock()
	dirty := make([]byte, len(b))
	copy(dirty, b)
	dirty[i] ^= bit
	return c.Conn.Write(dirty)
}

// writeReorder withholds every other write and emits it after its
// successor — a stream-order violation no real TCP stack produces,
// which is exactly why the framing layer must catch it as MAC
// failure rather than trust it.
func (c *conn) writeReorder(b []byte) (int, error) {
	c.mu.Lock()
	if c.held == nil {
		c.held = make([]byte, len(b))
		copy(c.held, b)
		c.mu.Unlock()
		return len(b), nil
	}
	held := c.held
	c.held = nil
	c.mu.Unlock()
	if _, err := c.Conn.Write(b); err != nil {
		return 0, err
	}
	if _, err := c.Conn.Write(held); err != nil {
		return len(b), err
	}
	return len(b), nil
}

func (c *conn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.done)
		// Flush any withheld reorder bytes so a graceful close does
		// not silently swallow data the caller believes was sent.
		c.mu.Lock()
		held := c.held
		c.held = nil
		c.mu.Unlock()
		if held != nil {
			c.Conn.Write(held) //nolint:errcheck
		}
		err = c.Conn.Close()
	})
	return err
}
