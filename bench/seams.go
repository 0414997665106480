package bench

import (
	"net"
	"sync/atomic"
	"time"

	"repro/internal/enode"
	"repro/internal/nodefinder"
	"repro/internal/nodefinder/mlog"
	"repro/internal/simclock"
)

// The five seams. Each wrapper forwards every call unchanged and
// records a span around it, so a traced run does the same work as an
// untraced one plus the recording (trace.overhead_share prices it).

// Span names, one per boundary crossing. The prefix is the layer
// (package) whose code runs inside the span.
const (
	spanAdvance    = "simclock.advance"       // Clock.Advance; self = heap and timer bookkeeping
	spanTimer      = "nodefinder.timer"       // a Finder timer callback (lookup start, static re-dial, stale sweep)
	spanLookupDone = "nodefinder.lookup_done" // Finder.onLookupDone
	spanDialDone   = "nodefinder.dial_done"   // Finder.onDialDone
	spanLookup     = "simnet.lookup"          // Discovery.Lookup
	spanDial       = "simnet.dial"            // Dialer.Dial (analytic dialer)
	spanRecord     = "mlog.record"            // Sink.Record on the dial path
	spanFlush      = "mlog.flush"             // the underlying Writer.Record on the flusher goroutine
	spanHarness    = "harness"                // bench code between spans (Start, Stop, waiting for the flusher)

	spanWireDial   = "nodefinder.dial" // one whole staged dial, Dial call to done
	spanDialWire   = "simnet.dialwire" // DialFunc: promotion and pipe set-up
	spanReadWait   = "netpipe.read_wait"
	spanHandshake  = "rlpx.handshake"
	spanHello      = "devp2p.hello"
	spanStatus     = "eth.status"
	spanDAO        = "eth.dao_check"
	spanDisconnect = "devp2p.disconnect"

	spanCensusRecord  = "census.record"
	spanCensusPublish = "census.publish"
)

// tracedClock wraps a Clock: every callback it schedules runs inside
// a timer span.
type tracedClock struct {
	simclock.Clock
	sc     Scope
	kTimer Kind
}

func newTracedClock(inner simclock.Clock, t *Tracer, sc Scope) *tracedClock {
	return &tracedClock{Clock: inner, sc: sc, kTimer: t.Kind(spanTimer)}
}

func (c *tracedClock) AfterFunc(d time.Duration, fn func()) simclock.Timer {
	return c.Clock.AfterFunc(d, func() {
		s := c.sc.Begin(c.kTimer)
		fn()
		c.sc.End(c.kTimer, s)
	})
}

// tracedDiscovery wraps a Discovery: a span around Lookup and one
// around the Finder's completion callback.
type tracedDiscovery struct {
	inner          nodefinder.Discovery
	sc             Scope
	kLookup, kDone Kind
}

func newTracedDiscovery(inner nodefinder.Discovery, t *Tracer, sc Scope) *tracedDiscovery {
	return &tracedDiscovery{inner: inner, sc: sc, kLookup: t.Kind(spanLookup), kDone: t.Kind(spanLookupDone)}
}

func (d *tracedDiscovery) Self() enode.ID { return d.inner.Self() }

func (d *tracedDiscovery) Lookup(target enode.ID, done func([]*enode.Node)) {
	s := d.sc.Begin(d.kLookup)
	d.inner.Lookup(target, func(found []*enode.Node) {
		s := d.sc.Begin(d.kDone)
		done(found)
		d.sc.End(d.kDone, s)
	})
	d.sc.End(d.kLookup, s)
}

// tracedDialer wraps a Dialer whose calls and completions all run on
// one goroutine (the analytic dialer under Clock.Advance). Each dial
// gets an id so its spans can be sampled raw.
type tracedDialer struct {
	inner        nodefinder.Dialer
	th           *Thread
	kDial, kDone Kind
	next         uint64
}

func newTracedDialer(inner nodefinder.Dialer, t *Tracer, th *Thread) *tracedDialer {
	return &tracedDialer{inner: inner, th: th, kDial: t.Kind(spanDial), kDone: t.Kind(spanDialDone)}
}

func (d *tracedDialer) Dial(n *enode.Node, kind mlog.ConnType, done func(*nodefinder.DialResult)) {
	d.next++
	id := d.next
	d.th.BeginDial(d.kDial, id)
	d.inner.Dial(n, kind, func(res *nodefinder.DialResult) {
		d.th.BeginDial(d.kDone, id)
		done(res)
		d.th.Pop()
	})
	d.th.Pop()
}

// tracedSink wraps a Sink.
type tracedSink struct {
	inner mlog.Sink
	sc    Scope
	k     Kind
}

func newTracedSink(inner mlog.Sink, t *Tracer, sc Scope, span string) *tracedSink {
	return &tracedSink{inner: inner, sc: sc, k: t.Kind(span)}
}

func (s *tracedSink) Record(e *mlog.Entry) {
	st := s.sc.Begin(s.k)
	s.inner.Record(e)
	s.sc.End(s.k, st)
}

// tracedConn wraps the client end of a dialed connection: it counts
// the bytes that cross it and records the time the dial goroutine
// spends blocked in Read, which is the peer's work plus scheduling.
// It belongs to one dial and shares that dial's Thread.
type tracedConn struct {
	net.Conn
	th    *Thread
	kWait Kind
	bytes *atomic.Int64
}

func (c *tracedConn) Read(p []byte) (int, error) {
	c.th.Begin(c.kWait)
	n, err := c.Conn.Read(p)
	c.th.Pop()
	c.bytes.Add(int64(n))
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}
