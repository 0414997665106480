package nodefinder

import (
	"math/rand"
	"time"

	"repro/internal/enode"
	"repro/internal/metrics"
	"repro/internal/nodedb"
	"repro/internal/nodefinder/mlog"
	"repro/internal/simclock"
)

// nodeState is the Finder's one record of a node, held by value in
// the Finder's table at the node's nodedb handle. Discovery finds it
// with a single ID-keyed lookup, nodedb's; from there it travels by
// pointer through the queue, the dial, its completion, the log record
// and the static re-arm, so nothing after discovery hashes a 64-byte
// ID again. The Finder's lock guards every field; node, ip and kind
// change only while no dial is in flight, so the dialing goroutine
// reads them without it. rec is nil until the Finder first meets the
// node.
type nodeState struct {
	node *enode.Node // endpoint discovery last handed over; what a dial targets
	ip   string      // node.IP.String(), rendered once per endpoint
	rec  *nodedb.Record

	// Admission state, shared by the dynamic and static dial paths.
	// failStreak counts consecutive failures; backoffUntil is the
	// jittered instant before which the node is not dynamically
	// re-dialed. Both reset on any success.
	dialing      bool
	kind         mlog.ConnType // of the dial in flight
	lastDial     time.Time
	failStreak   int
	backoffUntil time.Time

	timer    simclock.Timer    // the static re-dial, pending or fired; re-armed by Reset
	redial   func()            // what timer runs; bound once, like
	dialDone func(*DialResult) // the dial's completion callback
}

// dialScheduler is the central admission point of the crawl pipeline.
// Discovery workers feed candidates into one bounded FIFO; the
// scheduler dequeues, enforcing the global concurrent-dial budget, the
// redial-suppression window, and the per-node exponential backoff.
// Every method requires the Finder's lock (the *Locked suffix), which
// keeps admission serializable and the crawl deterministic under the
// simulated clock.
type dialScheduler struct {
	// queue is a ring of power-of-two length, doubled until it holds
	// queueCap; the queued candidates start at head.
	queue    []*nodeState
	head     int
	queued   int
	queueCap int
	depth    *metrics.Gauge

	maxActive int
	active    int // in-flight dynamic dials

	// lastSweep is the latest stale sweep. A node whose backoff window
	// had been over for a full maxDialBackoff by then starts its next
	// failure streak from zero: the sweep forgives without visiting.
	lastSweep time.Time

	rng *rand.Rand
	m   *finderMetrics
}

// DefaultQueueCap bounds the queue of discovered dial candidates;
// those beyond it are dropped (and counted in finder.queue_dropped)
// rather than growing memory without bound during a discovery burst.
const DefaultQueueCap = 4096

func newDialScheduler(queueCap, maxActive int, rng *rand.Rand, m *finderMetrics, r *metrics.Registry) *dialScheduler {
	return &dialScheduler{
		queueCap:  queueCap,
		depth:     r.Gauge("finder.queue_depth"),
		maxActive: maxActive,
		rng:       rng,
		m:         m,
	}
}

// admissibleLocked applies the per-node gates every dynamic dial must
// pass, in the original Finder's order: not already dialing, outside
// the redial-suppression window, outside the backoff window.
func (s *dialScheduler) admissibleLocked(nd *nodeState, now time.Time) bool {
	if nd.dialing {
		return false
	}
	if !nd.lastDial.IsZero() && now.Sub(nd.lastDial) < redialSuppression {
		return false
	}
	if now.Before(nd.backoffUntil) {
		s.m.backoffSkips.Inc()
		return false
	}
	return true
}

// enqueueLocked admits one discovered candidate. A full queue drops
// it (and counts the drop): discovery keeps returning live nodes, so
// dropping is cheaper than growing without bound during a burst.
func (s *dialScheduler) enqueueLocked(nd *nodeState) bool {
	if s.queued >= s.queueCap {
		s.m.queueDropped.Inc()
		return false
	}
	if s.queued == len(s.queue) {
		grown := make([]*nodeState, max(16, 2*len(s.queue)))
		n := copy(grown, s.queue[s.head:])
		copy(grown[n:], s.queue[:s.head])
		s.queue, s.head = grown, 0
	}
	s.queue[(s.head+s.queued)&(len(s.queue)-1)] = nd
	s.queued++
	s.depth.Set(int64(s.queued))
	return true
}

// fillLocked dequeues candidates up to the concurrency budget, marks
// them in flight, and appends to launch the nodes the caller must dial
// after releasing the lock.
func (s *dialScheduler) fillLocked(now time.Time, launch []*nodeState) []*nodeState {
	for s.active < s.maxActive && s.queued > 0 {
		nd := s.queue[s.head]
		s.queue[s.head] = nil
		s.head = (s.head + 1) & (len(s.queue) - 1)
		s.queued--
		if !s.admissibleLocked(nd, now) {
			continue
		}
		s.beginLocked(nd, mlog.ConnDynamicDial, now)
		s.active++
		launch = append(launch, nd)
	}
	s.depth.Set(int64(s.queued))
	return launch
}

// beginLocked marks a dial in flight. Static dials are paced by their
// own timers, not the dynamic budget, so they bypass the queue; the
// shared dialing flag still prevents a dynamic/static double-dial.
func (s *dialScheduler) beginLocked(nd *nodeState, kind mlog.ConnType, now time.Time) {
	nd.dialing, nd.kind, nd.lastDial = true, kind, now
}

// completeLocked records a finished outbound attempt and updates the
// backoff state: success resets the streak, failure doubles the
// suppression window (jittered, capped).
func (s *dialScheduler) completeLocked(nd *nodeState, success bool, now time.Time) {
	nd.dialing, nd.lastDial = false, now
	if nd.kind == mlog.ConnDynamicDial {
		s.active--
	}
	if success {
		nd.failStreak, nd.backoffUntil = 0, time.Time{}
		return
	}
	if nd.failStreak > 0 && s.lastSweep.Sub(nd.backoffUntil) > maxDialBackoff {
		nd.failStreak = 0 // forgiven by a sweep since the last failure
	}
	nd.failStreak++
	nd.backoffUntil = now.Add(s.backoffDelayLocked(nd.failStreak))
}

// backoffDelayLocked computes the jittered suppression window after
// the streak-th consecutive failure: redialSuppression doubled per
// failure beyond the first, capped at maxDialBackoff, with ±20%
// jitter so retries against a failing population do not synchronize.
func (s *dialScheduler) backoffDelayLocked(streak int) time.Duration {
	d := redialSuppression
	for i := 1; i < streak && d < maxDialBackoff; i++ {
		d *= 2
	}
	if d > maxDialBackoff {
		d = maxDialBackoff
	}
	return time.Duration(float64(d) * (0.8 + 0.4*s.rng.Float64()))
}
