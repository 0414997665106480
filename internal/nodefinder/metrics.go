package nodefinder

import (
	"errors"
	"strings"

	"repro/internal/devp2p"
	"repro/internal/eth"
	"repro/internal/metrics"
	"repro/internal/nodedb"
	"repro/internal/rlpx"
	"repro/internal/snappy"
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
	conns       *metrics.CounterVec
	connsOK     *metrics.CounterVec
	connsFailed *metrics.CounterVec
	// errors taxonomizes failed establishment attempts by stage
	// (tcp-refused, tcp-timeout, rlpx, too-many-peers, ...).
	errors *metrics.CounterVec

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
		conns:        r.CounterVec("finder.conns"),
		connsOK:      r.CounterVec("finder.conns_ok"),
		connsFailed:  r.CounterVec("finder.conns_failed"),
		errors:       r.CounterVec("finder.conn_errors"),
		dialDuration: r.Histogram("finder.conn_duration_us"),
		rtt:          r.Histogram("finder.rtt_us"),
		staleExpired: r.Counter("finder.stale_expired"),
		backoffSkips: r.Counter("finder.backoff_suppressed"),
		queueDropped: r.Counter("finder.queue_dropped"),
	}
}

// observe records one finished connection attempt. Called from
// Finder.record, i.e. exactly once per mlog entry.
func (m *finderMetrics) observe(res *DialResult) {
	kind := string(res.Kind)
	m.conns.Inc(kind)
	if res.Hello != nil {
		m.connsOK.Inc(kind)
	} else {
		m.connsFailed.Inc(kind)
	}
	// Taxonomize every attempt that ended in an error, including ones
	// where the peer completed HELLO and then turned hostile (snappy
	// bombs, giant frames) — those failures are exactly the ones an
	// operator needs to see.
	if res.Err != nil || res.Hello == nil {
		m.errors.Inc(OutcomeClass(res))
	}
	m.dialDuration.ObserveDuration(res.Duration)
	if res.RTT > 0 {
		m.rtt.ObserveDuration(res.RTT)
	}
}

// OutcomeClass buckets a connection result into the paper's failure
// taxonomy (§5.2: dead addresses, NAT timeouts, peer-limit
// rejections, non-eth services, productive handshakes), extended
// with the adversarial failure classes the hardened transport can
// now distinguish: forged frame MACs, oversized frames and messages,
// corrupt snappy payloads, stalled handshakes, and protocol-order
// violations. Both the real dialer and the simulated one classify
// through this single function, so their telemetry is comparable.
func OutcomeClass(res *DialResult) string {
	switch {
	case res.Err != nil:
		err := res.Err
		msg := err.Error()
		switch {
		case errors.Is(err, rlpx.ErrBadHeaderMAC) || errors.Is(err, rlpx.ErrBadFrameMAC):
			return "rlpx-bad-mac"
		case errors.Is(err, rlpx.ErrFrameTooBig):
			return "frame-oversize"
		case errors.Is(err, devp2p.ErrMsgTooBig) || errors.Is(err, eth.ErrMsgTooBig):
			return "msg-oversize"
		case errors.Is(err, snappy.ErrCorrupt) || errors.Is(err, snappy.ErrTooLarge):
			return "snappy-corrupt"
		case errors.Is(err, devp2p.ErrUnexpectedMessage) || errors.Is(err, eth.ErrNoStatus):
			return "protocol-violation"
		case errors.Is(err, devp2p.ErrNoCommonProtocol):
			return "no-common-caps"
		case errors.Is(err, eth.ErrNetworkMismatch) || errors.Is(err, eth.ErrGenesisMismatch) || errors.Is(err, eth.ErrProtocolMismatch):
			return "status-mismatch"
		case errors.Is(err, rlpx.ErrBadHandshake):
			return "rlpx-bad-handshake"
		case strings.Contains(msg, "rlpx") && strings.Contains(msg, "timeout"):
			return "handshake-timeout"
		case strings.Contains(msg, "timeout"):
			return "tcp-timeout"
		case strings.Contains(msg, "refused"):
			return "tcp-refused"
		case strings.Contains(msg, "reset"):
			return "tcp-reset"
		case strings.Contains(msg, "rlpx"):
			return "rlpx-error"
		case strings.Contains(msg, "decoding hello") || strings.Contains(msg, "rlp"):
			return "rlp-malformed"
		default:
			return "error-other"
		}
	case res.Disconnect != nil:
		if *res.Disconnect == devp2p.DiscTooManyPeers {
			return "too-many-peers"
		}
		return "disconnected"
	case res.Status != nil:
		return "eth-handshake"
	case res.Hello != nil:
		return "hello-no-eth"
	default:
		return "no-handshake"
	}
}

// DialerMetrics instruments connection-establishment outcomes at the
// dialer level, shared verbatim by RealDialer and simnet's SimDialer
// so simulated 82-day runs emit the same counters as a real crawl.
// A nil *DialerMetrics (or one built from a nil registry) no-ops.
type DialerMetrics struct {
	outcomes   *metrics.CounterVec
	daoChecked *metrics.Counter
}

// NewDialerMetrics resolves dialer instruments against r.
func NewDialerMetrics(r *metrics.Registry) *DialerMetrics {
	return &DialerMetrics{
		outcomes:   r.CounterVec("dialer.outcomes"),
		daoChecked: r.Counter("dialer.dao_checked"),
	}
}

// Observe records one finished dial attempt.
func (m *DialerMetrics) Observe(res *DialResult) {
	if m == nil {
		return
	}
	m.outcomes.Inc(OutcomeClass(res))
	if res.DAOChecked {
		m.daoChecked.Inc()
	}
}
