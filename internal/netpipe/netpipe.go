// Package netpipe provides an in-memory, full-duplex net.Conn pair
// with buffered writes — loopback TCP semantics without sockets.
//
// net.Pipe is synchronous: every Write blocks until the far end
// Reads. Protocol handshakes where both sides send before receiving
// (DEVp2p HELLO, eth STATUS) deadlock on it, and hostile peers that
// talk out of turn deadlock even read-disciplined servers. A netpipe
// endpoint instead appends writes to the peer's receive buffer and
// returns immediately, the way a TCP socket's kernel buffer does, so
// message ordering between the two ends never matters.
//
// Deadlines are fully supported (the dial-budget machinery in
// nodefinder arms them on every promoted connection); an expired read
// or write returns os.ErrDeadlineExceeded, which prints as the same
// "i/o timeout" a real socket produces.
package netpipe

import (
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// Pair returns the two ends of a connected in-memory conn. The pair —
// both ends, both directions' queues and the arrays those start on —
// is one allocation.
func Pair() (net.Conn, net.Conn) {
	p := new(pair)
	p.a2b.init()
	p.b2a.init()
	p.a = conn{p: p, rd: &p.b2a, wr: &p.a2b, local: "netpipe-a", remote: "netpipe-b"}
	p.b = conn{p: p, rd: &p.a2b, wr: &p.b2a, local: "netpipe-b", remote: "netpipe-a"}
	return &p.a, &p.b
}

// pair is both ends of a connection and one deadline timer for both
// directions, made at the first read deadline and re-armed from then
// on (RLPx sets a fresh deadline before every message): a pair's
// deadlines cost two allocations in all.
type pair struct {
	a, b     conn
	a2b, b2a buffer

	tmu   sync.Mutex // guards timer; taken before either buffer's mu
	timer *time.Timer
}

// arm wakes the readers of each open buffer whose read deadline has
// passed and points the timer at the earliest deadline still ahead,
// or stops it: a closed pair leaves no timer armed, and a deadline set
// after Close arms none. The timer runs arm when it fires.
func (p *pair) arm() {
	p.tmu.Lock()
	defer p.tmu.Unlock()
	now := time.Now()
	var next time.Time
	for _, b := range [2]*buffer{&p.a2b, &p.b2a} {
		b.mu.Lock()
		switch d := b.readDeadline; {
		case b.closed || d.IsZero():
		case !d.After(now):
			b.cond.Broadcast()
		case next.IsZero() || d.Before(next):
			next = d
		}
		b.mu.Unlock()
	}
	switch {
	case next.IsZero():
		if p.timer != nil {
			p.timer.Stop()
		}
	case p.timer == nil:
		p.timer = time.AfterFunc(next.Sub(now), p.arm)
	default:
		p.timer.Reset(next.Sub(now))
	}
}

type addr string

func (a addr) Network() string { return "netpipe" }
func (a addr) String() string  { return string(a) }

// queueInline is the array each queue starts on: the most an honest
// RLPx session leaves unread in one direction (an auth packet, or a
// couple of frames) fits, so such a session grows no queue.
// maxKeepQueue caps the backing array a drained queue keeps; a
// larger one is dropped and the queue returns to its inline array.
const (
	queueInline  = 2048
	maxKeepQueue = 64 << 10
)

// buffer is one direction of the pipe: an unbounded byte queue with a
// condition variable for blocked readers and deadline wake-ups. The
// queued bytes are q[r:]; once a reader drains them the queue starts
// over at the front of the same backing array.
type buffer struct {
	mu     sync.Mutex
	cond   sync.Cond
	q      []byte
	r      int
	closed bool // write end closed: drain then EOF

	readDeadline time.Time

	inline [queueInline]byte
}

func (b *buffer) init() {
	b.cond.L = &b.mu
	b.q = b.inline[:0]
}

func (b *buffer) write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, io.ErrClosedPipe
	}
	if b.r > 0 && len(b.q)+len(p) > cap(b.q) {
		// Slide the unread bytes to the front before growing.
		n := copy(b.q, b.q[b.r:])
		b.q, b.r = b.q[:n], 0
	}
	b.q = append(b.q, p...)
	b.cond.Broadcast()
	return len(p), nil
}

func (b *buffer) read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if b.r < len(b.q) {
			n := copy(p, b.q[b.r:])
			b.r += n
			if b.r == len(b.q) {
				b.q, b.r = b.q[:0], 0
				if cap(b.q) > maxKeepQueue {
					b.q = b.inline[:0]
				}
			}
			return n, nil
		}
		if b.closed {
			return 0, io.EOF
		}
		if !b.readDeadline.IsZero() && !time.Now().Before(b.readDeadline) {
			return 0, os.ErrDeadlineExceeded
		}
		b.cond.Wait()
	}
}

// close marks the write end closed. Pending data stays readable; a
// reader that drains it then sees io.EOF, like a TCP FIN. A reader of
// a closed buffer never blocks again, so the pair's timer need not
// wake it.
func (b *buffer) close() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// conn is one endpoint.
type conn struct {
	p             *pair
	rd, wr        *buffer
	local, remote addr

	mu            sync.Mutex
	closed        bool
	writeDeadline time.Time
}

func (c *conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, io.ErrClosedPipe
	}
	c.mu.Unlock()
	return c.rd.read(p)
}

func (c *conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, io.ErrClosedPipe
	}
	// Writes never block (the buffer is unbounded), so the write
	// deadline only matters once already expired.
	if !c.writeDeadline.IsZero() && !time.Now().Before(c.writeDeadline) {
		c.mu.Unlock()
		return 0, os.ErrDeadlineExceeded
	}
	c.mu.Unlock()
	return c.wr.write(p)
}

// Close closes both directions: our readers unblock, and the peer
// drains what we already sent then sees EOF.
func (c *conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.rd.close()
	c.wr.close()
	c.p.arm()
	return nil
}

func (c *conn) LocalAddr() net.Addr  { return c.local }
func (c *conn) RemoteAddr() net.Addr { return c.remote }

func (c *conn) SetDeadline(t time.Time) error {
	c.SetReadDeadline(t)  //nolint:errcheck
	c.SetWriteDeadline(t) //nolint:errcheck
	return nil
}

func (c *conn) SetReadDeadline(t time.Time) error {
	c.rd.mu.Lock()
	c.rd.readDeadline = t
	c.rd.mu.Unlock()
	c.p.arm()
	return nil
}

func (c *conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDeadline = t
	c.mu.Unlock()
	return nil
}
