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

// Pair returns the two ends of a connected in-memory conn.
func Pair() (net.Conn, net.Conn) {
	a2b := newBuffer()
	b2a := newBuffer()
	a := &conn{rd: b2a, wr: a2b, local: addr("netpipe-a"), remote: addr("netpipe-b")}
	b := &conn{rd: a2b, wr: b2a, local: addr("netpipe-b"), remote: addr("netpipe-a")}
	return a, b
}

type addr string

func (a addr) Network() string { return "netpipe" }
func (a addr) String() string  { return string(a) }

// buffer is one direction of the pipe: an unbounded byte queue with a
// condition variable for blocked readers and deadline wake-ups.
type buffer struct {
	mu     sync.Mutex
	cond   *sync.Cond
	data   []byte
	closed bool // write end closed: drain then EOF

	readDeadline  time.Time
	deadlineTimer *time.Timer
}

func newBuffer() *buffer {
	b := &buffer{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *buffer) write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, io.ErrClosedPipe
	}
	b.data = append(b.data, p...)
	b.cond.Broadcast()
	return len(p), nil
}

func (b *buffer) read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if len(b.data) > 0 {
			n := copy(p, b.data)
			b.data = b.data[n:]
			if len(b.data) == 0 {
				b.data = nil // release the backing array
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
// reader that drains it then sees io.EOF, like a TCP FIN.
func (b *buffer) close() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// setReadDeadline arms a wake-up for readers blocked on the buffer.
// The buffer keeps one timer for its whole life and re-arms it: RLPx
// sets a fresh deadline before every message, and a new timer each
// time was two allocations per read. A wake-up left over from an
// earlier deadline is harmless — readers re-check the deadline.
func (b *buffer) setReadDeadline(t time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.readDeadline = t
	d := time.Until(t)
	if t.IsZero() || d <= 0 {
		if b.deadlineTimer != nil {
			b.deadlineTimer.Stop()
		}
		b.cond.Broadcast()
		return
	}
	if b.deadlineTimer == nil {
		b.deadlineTimer = time.AfterFunc(d, b.wake)
	} else {
		b.deadlineTimer.Reset(d)
	}
}

// wake rouses blocked readers so they notice an expired deadline.
func (b *buffer) wake() {
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}

// stopTimer releases the deadline timer; called on Close so a closed
// conn leaves no timer behind.
func (b *buffer) stopTimer() {
	b.mu.Lock()
	if b.deadlineTimer != nil {
		b.deadlineTimer.Stop()
		b.deadlineTimer = nil
	}
	b.mu.Unlock()
}

// conn is one endpoint.
type conn struct {
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
	c.rd.stopTimer()
	c.wr.close()
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
	c.rd.setReadDeadline(t)
	return nil
}

func (c *conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDeadline = t
	c.mu.Unlock()
	return nil
}
