package nodefinder

import (
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/nodedb"
	"repro/internal/nodefinder/mlog"
)

// finderMetrics holds the Finder's resolved instruments. It is always
// constructed (instruments are nil when no registry is configured),
// so scheduling code instruments unconditionally.
type finderMetrics struct {
	lookups     *metrics.Counter
	lookupNodes *metrics.Counter

	// conns counts every recorded connection result by
	// mlog.ConnType — by construction exactly one increment per mlog
	// entry, which is what lets an operator cross-check live
	// telemetry against the measurement log.
	conns       counterSlots
	connsOK     counterSlots
	connsFailed counterSlots
	// errors taxonomizes failed establishment attempts by Outcome
	// (tcp-refused, tcp-timeout, rlpx, too-many-peers, ...).
	errors counterSlots

	dialDuration *metrics.Histogram
	rtt          *metrics.Histogram
	staleExpired *metrics.Counter
	backoffSkips *metrics.Counter
	// queueDropped counts discovered candidates rejected because the
	// dial queue was full (bounded-queue overload shedding).
	queueDropped *metrics.Counter
}

// newFinderMetrics resolves the Finder's instruments against r (nil
// r disables them all) and registers DB-backed gauges.
func newFinderMetrics(r *metrics.Registry, db *nodedb.DB) *finderMetrics {
	if r != nil {
		r.GaugeFunc("finder.known_nodes", func() int64 { return int64(db.Len()) })
		r.GaugeFunc("finder.static_nodes", func() int64 { return int64(db.StaticLen()) })
	}
	return &finderMetrics{
		lookups:      r.Counter("finder.lookups"),
		lookupNodes:  r.Counter("finder.lookup_nodes"),
		conns:        newCounterSlots(r.CounterVec("finder.conns"), numConnSlots),
		connsOK:      newCounterSlots(r.CounterVec("finder.conns_ok"), numConnSlots),
		connsFailed:  newCounterSlots(r.CounterVec("finder.conns_failed"), numConnSlots),
		errors:       newCounterSlots(r.CounterVec("finder.conn_errors"), int(numOutcomes)),
		dialDuration: r.Histogram("finder.conn_duration_us"),
		rtt:          r.Histogram("finder.rtt_us"),
		staleExpired: r.Counter("finder.stale_expired"),
		backoffSkips: r.Counter("finder.backoff_suppressed"),
		queueDropped: r.Counter("finder.queue_dropped"),
	}
}

// observe records one finished connection attempt. Called from
// Finder.record, i.e. exactly once per mlog entry. With no registry
// it returns at once, without classifying.
func (m *finderMetrics) observe(res *DialResult) {
	if m.conns.vec == nil {
		return
	}
	kind, slot := string(res.Kind), connSlot(res.Kind)
	m.conns.inc(slot, kind)
	if res.Hello != nil {
		m.connsOK.inc(slot, kind)
	} else {
		m.connsFailed.inc(slot, kind)
	}
	// Taxonomize every attempt that ended in an error, including ones
	// where the peer completed HELLO and then turned hostile (snappy
	// bombs, giant frames) — those failures are exactly the ones an
	// operator needs to see.
	if res.Err != nil || res.Hello == nil {
		o := res.Outcome()
		m.errors.inc(int(o), o.String())
	}
	m.dialDuration.ObserveDuration(res.Duration)
	if res.RTT > 0 {
		m.rtt.ObserveDuration(res.RTT)
	}
}

// numConnSlots is the number of mlog.ConnType values connSlot knows.
const numConnSlots = 3

// connSlot is k's slot in a per-ConnType counterSlots, or -1 for a
// connection type it has none for.
func connSlot(k mlog.ConnType) int {
	switch k {
	case mlog.ConnDynamicDial:
		return 0
	case mlog.ConnStaticDial:
		return 1
	case mlog.ConnIncoming:
		return 2
	}
	return -1
}

// counterSlots is a CounterVec whose labels are each resolved once,
// into a fixed slot, the first time they are counted — so a label
// appears in a snapshot only after its first increment, as with
// CounterVec.Inc — and counted after that with no lock and no map
// lookup.
type counterSlots struct {
	vec   *metrics.CounterVec
	slots []atomic.Pointer[metrics.Counter]
}

func newCounterSlots(vec *metrics.CounterVec, n int) counterSlots {
	return counterSlots{vec: vec, slots: make([]atomic.Pointer[metrics.Counter], n)}
}

// inc counts one under label, whose slot is i; a negative i has no
// slot and takes CounterVec.Inc's locked lookup.
func (s *counterSlots) inc(i int, label string) {
	if i < 0 {
		s.vec.Inc(label)
		return
	}
	c := s.slots[i].Load()
	if c == nil {
		c = s.vec.WithLabel(label)
		s.slots[i].Store(c)
	}
	c.Inc()
}

// DialerMetrics instruments connection-establishment outcomes at the
// dialer level, shared verbatim by RealDialer and simnet's SimDialer
// so simulated 82-day runs emit the same counters as a real crawl.
// A nil *DialerMetrics (or one built from a nil registry) no-ops,
// and classifies nothing.
type DialerMetrics struct {
	outcomes   counterSlots
	daoChecked *metrics.Counter
}

// NewDialerMetrics resolves dialer instruments against r.
func NewDialerMetrics(r *metrics.Registry) *DialerMetrics {
	return &DialerMetrics{
		outcomes:   newCounterSlots(r.CounterVec("dialer.outcomes"), int(numOutcomes)),
		daoChecked: r.Counter("dialer.dao_checked"),
	}
}

// Observe records one finished dial attempt.
func (m *DialerMetrics) Observe(res *DialResult) {
	if m == nil || m.outcomes.vec == nil {
		return
	}
	o := res.Outcome()
	m.outcomes.inc(int(o), o.String())
	if res.DAOChecked {
		m.daoChecked.Inc()
	}
}
