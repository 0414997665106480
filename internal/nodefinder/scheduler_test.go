package nodefinder

import (
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/enode"
	"repro/internal/metrics"
	"repro/internal/nodedb"
	"repro/internal/nodefinder/mlog"
	"repro/internal/simclock"
)

func testScheduler(queueCap, maxActive int, reg *metrics.Registry) *dialScheduler {
	if reg == nil {
		reg = metrics.New()
	}
	return newDialScheduler(queueCap, maxActive,
		rand.New(rand.NewSource(1)), newFinderMetrics(reg, nodedb.New()), reg)
}

func testNode(i int) *nodeState {
	var id enode.ID
	id[0], id[1], id[31] = byte(i>>8), byte(i), 0xAA
	return &nodeState{node: enode.New(id, net.IP{127, 0, 0, 1}, uint16(30000+i%1000), uint16(30000+i%1000))}
}

// TestQueueBounded is the bounded-memory property: the queue never
// exceeds the cap no matter how many candidates discovery bursts in,
// every rejected candidate is counted, and what was admitted comes
// back out in arrival order — across ring growth and wrap-around.
func TestQueueBounded(t *testing.T) {
	const (
		queueCap = 24 // not a power of two: the ring is bigger than the bound
		burst    = 500
	)
	reg := metrics.New()
	s := testScheduler(queueCap, 1<<30, reg)
	now := time.Unix(0, 0)

	next, admitted := 0, 0 // next: the node the queue must yield next
	for round := 0; round < 5; round++ {
		for i := 0; i < burst; i++ {
			if s.enqueueLocked(testNode(admitted)) {
				admitted++
			}
			if s.queued > queueCap {
				t.Fatalf("queue depth %d exceeds cap %d", s.queued, queueCap)
			}
		}
		if s.queued != queueCap {
			t.Fatalf("round %d: %d queued after a burst, want the cap %d", round, s.queued, queueCap)
		}
		if got := reg.Snapshot().Gauges["finder.queue_depth"]; got != queueCap {
			t.Fatalf("finder.queue_depth %d, want %d", got, queueCap)
		}
		// Drain a different amount each round so head wraps at every
		// offset.
		s.maxActive = s.active + 7 + round
		for _, nd := range s.fillLocked(now, nil) {
			if want := testNode(next).node.ID; nd.node.ID != want {
				t.Fatalf("dequeued %x, want %x (arrival order)", nd.node.ID[:2], want[:2])
			}
			next++
		}
	}
	if want := 5*burst - admitted; reg.Snapshot().Counter("finder.queue_dropped") != uint64(want) {
		t.Fatalf("queue_dropped %d, want %d", reg.Snapshot().Counter("finder.queue_dropped"), want)
	}
	if len(s.queue) != 32 {
		t.Fatalf("ring grew to %d slots for a cap of %d, want 32", len(s.queue), queueCap)
	}
}

// TestFillRespectsBudget: fillLocked never exceeds the concurrency
// budget, marks launched nodes in-flight, and re-checks admission at
// dequeue time.
func TestFillRespectsBudget(t *testing.T) {
	s := testScheduler(DefaultQueueCap, 6, nil)
	now := time.Unix(0, 0)
	nodes := make([]*nodeState, 40)
	for i := range nodes {
		nodes[i] = testNode(i)
		s.enqueueLocked(nodes[i])
	}
	s.enqueueLocked(nodes[0]) // found twice before its first dial

	launch := s.fillLocked(now, nil)
	if len(launch) != 6 || s.active != 6 {
		t.Fatalf("launched %d active=%d, want budget 6", len(launch), s.active)
	}
	for i, nd := range launch {
		if nd != nodes[i] {
			t.Fatalf("launch %d is not the %d-th candidate enqueued", i, i)
		}
		if !nd.dialing || nd.kind != mlog.ConnDynamicDial || !nd.lastDial.Equal(now) {
			t.Fatalf("launched node %d not marked as a dynamic dial in flight: %+v", i, nd)
		}
	}
	// Nothing more launches until a slot frees.
	if extra := s.fillLocked(now, nil); len(extra) != 0 {
		t.Fatalf("over-budget launch of %d", len(extra))
	}
	s.completeLocked(launch[0], true, now)
	if refill := s.fillLocked(now, nil); len(refill) != 1 {
		t.Fatalf("freed one slot, refilled %d", len(refill))
	}
	// The duplicate of node 0 at the back is dropped at dequeue: it was
	// dialed a moment ago.
	s.maxActive = 100
	for _, nd := range s.fillLocked(now, nil) {
		if nd == nodes[0] {
			t.Fatal("a node inside its redial-suppression window was launched from the queue")
		}
	}
	if s.queued != 0 {
		t.Fatalf("%d candidates left queued under an ample budget", s.queued)
	}
}

// TestSchedulerAdmission pins the per-node gates in the original
// Finder's order: in-flight, redial suppression, backoff.
func TestSchedulerAdmission(t *testing.T) {
	s := testScheduler(DefaultQueueCap, 16, nil)
	now := time.Unix(1000, 0)
	nd := testNode(1)

	if !s.admissibleLocked(nd, now) {
		t.Fatal("fresh node not admissible")
	}
	s.beginLocked(nd, mlog.ConnStaticDial, now)
	if s.admissibleLocked(nd, now.Add(time.Hour)) {
		t.Fatal("in-flight node admissible")
	}

	// A successful dial suppresses redial for redialSuppression. It was
	// a static dial: the dynamic budget is not touched.
	s.completeLocked(nd, true, now)
	if s.active != 0 {
		t.Fatalf("a static dial's completion moved the dynamic budget to %d", s.active)
	}
	if s.admissibleLocked(nd, now.Add(redialSuppression-time.Second)) {
		t.Fatal("admissible inside the suppression window")
	}
	if !s.admissibleLocked(nd, now.Add(redialSuppression+time.Second)) {
		t.Fatal("not admissible after the suppression window")
	}

	// A failure adds backoff on top: at minimum 0.8×redialSuppression,
	// so just past suppression the node is still gated.
	s.beginLocked(nd, mlog.ConnStaticDial, now)
	s.completeLocked(nd, false, now)
	if s.admissibleLocked(nd, now.Add(redialSuppression+time.Second)) {
		t.Fatal("failed node admissible before backoff expires")
	}
	if !s.admissibleLocked(nd, now.Add(3*redialSuppression)) {
		t.Fatal("failed node still gated after backoff expired")
	}
}

// TestRedialSuppressionBoundary pins the window's end: a node dialed
// successfully at t is admissible again at exactly
// t+redialSuppression, and not 1 ns before.
func TestRedialSuppressionBoundary(t *testing.T) {
	s := testScheduler(DefaultQueueCap, 16, nil)
	now := time.Unix(1000, 0)
	nd := testNode(1)
	s.beginLocked(nd, mlog.ConnStaticDial, now)
	s.completeLocked(nd, true, now)
	if s.admissibleLocked(nd, now.Add(redialSuppression-time.Nanosecond)) {
		t.Error("admissible 1 ns before the suppression window ends")
	}
	if !s.admissibleLocked(nd, now.Add(redialSuppression)) {
		t.Error("not admissible exactly when the suppression window ends")
	}
}

// TestBackoffDelayTable pins the backoff policy to the pre-refactor
// Finder's exact shape: redialSuppression doubled per consecutive
// failure, capped at maxDialBackoff, with ±20% jitter.
func TestBackoffDelayTable(t *testing.T) {
	cases := []struct {
		streak int
		base   time.Duration
	}{
		{1, redialSuppression},
		{2, 2 * redialSuppression},
		{3, 4 * redialSuppression},
		{4, 8 * redialSuppression},
		{5, 16 * redialSuppression},
		{6, maxDialBackoff},  // 160m caps to 120m
		{7, maxDialBackoff},  // stays capped
		{20, maxDialBackoff}, // deep streaks cannot overflow
	}
	s := testScheduler(DefaultQueueCap, 16, nil)
	for _, tc := range cases {
		for trial := 0; trial < 200; trial++ {
			d := s.backoffDelayLocked(tc.streak)
			lo := time.Duration(0.8 * float64(tc.base))
			hi := time.Duration(1.2 * float64(tc.base))
			if d < lo || d > hi {
				t.Fatalf("streak %d: delay %v outside [%v, %v]", tc.streak, d, lo, hi)
			}
		}
	}
}

// refBackoff is the scheduler this one replaced, as far as failure
// streaks go: two maps keyed by node, and a sweep that visits every
// entry and deletes those whose window has been over for a full
// maxDialBackoff.
type refBackoff struct {
	streak map[int]int
	until  map[int]time.Time
}

func (r *refBackoff) complete(id int, success bool, until time.Time) {
	if success {
		delete(r.streak, id)
		delete(r.until, id)
		return
	}
	r.streak[id]++
	r.until[id] = until
}

func (r *refBackoff) prune(now time.Time) {
	for id, until := range r.until {
		if now.Sub(until) > maxDialBackoff {
			delete(r.until, id)
			delete(r.streak, id)
		}
	}
}

// TestBackoffPrune: forgiving a long-quiet node lazily — at its next
// failure, against the instant of the last sweep — restarts its streak
// exactly when the old full-table prune would have: iff some sweep fell
// more than maxDialBackoff after its backoffUntil. Differential, over a
// random schedule of completions and sweeps.
func TestBackoffPrune(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := testScheduler(DefaultQueueCap, 16, nil)
	ref := &refBackoff{streak: map[int]int{}, until: map[int]time.Time{}}
	nodes := make([]*nodeState, 50)
	for i := range nodes {
		nodes[i] = testNode(i)
	}
	now := time.Unix(0, 0)
	restarts := 0
	for step := 0; step < 20000; step++ {
		now = now.Add(time.Duration(rng.Int63n(int64(4 * time.Minute))))
		if rng.Intn(20) == 0 {
			s.lastSweep = now
			ref.prune(now)
			continue
		}
		i := rng.Intn(len(nodes))
		nd, success := nodes[i], rng.Intn(8) == 0
		before := nd.failStreak
		s.beginLocked(nd, mlog.ConnStaticDial, now)
		s.completeLocked(nd, success, now)
		ref.complete(i, success, nd.backoffUntil)
		if nd.failStreak != ref.streak[i] {
			t.Fatalf("step %d node %d: streak %d, the pruned maps say %d", step, i, nd.failStreak, ref.streak[i])
		}
		if !success && before > 1 && nd.failStreak == 1 {
			restarts++
		}
	}
	if restarts == 0 {
		t.Fatal("the schedule never let a sweep forgive a streak: the test exercised nothing")
	}

	// The two boundary cases by hand: a sweep exactly maxDialBackoff
	// after the window's end forgives nothing, a nanosecond later it does.
	nd := testNode(99)
	nd.failStreak, nd.backoffUntil = 3, now
	s.lastSweep = now.Add(maxDialBackoff)
	s.completeLocked(nd, false, now.Add(3*maxDialBackoff))
	if nd.failStreak != 4 {
		t.Fatalf("streak %d after a sweep exactly maxDialBackoff past the window, want 4", nd.failStreak)
	}
	nd.failStreak, nd.backoffUntil = 3, now
	s.lastSweep = now.Add(maxDialBackoff + 1)
	s.completeLocked(nd, false, now.Add(3*maxDialBackoff))
	if nd.failStreak != 1 {
		t.Fatalf("streak %d after a sweep more than maxDialBackoff past the window, want 1", nd.failStreak)
	}
}

// TestMultiWorkerFinderDeterministic: the full Finder with several
// lookup workers feeding a queue tight enough to shed load is still a
// pure function of its seed under the simulated clock.
func TestMultiWorkerFinderDeterministic(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		clk := simclock.NewSimulated(t0)
		w := newFakeWorld(clk, 200)
		reg := metrics.New()
		f, err := New(Config{
			Clock:         clk,
			Discovery:     w,
			Dialer:        w,
			Metrics:       reg,
			Seed:          7,
			LookupWorkers: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.sched.queueCap = 16
		f.Start()
		clk.Advance(2 * time.Hour)
		f.Stop()
		st := f.Stats()
		return st.DynamicDials, st.SuccessfulConns, reg.Snapshot().Counter("finder.queue_dropped")
	}
	d1, s1, q1 := run()
	d2, s2, q2 := run()
	if d1 != d2 || s1 != s2 || q1 != q2 {
		t.Fatalf("multi-worker crawl not deterministic: (%d,%d,%d) vs (%d,%d,%d)", d1, s1, q1, d2, s2, q2)
	}
	if d1 == 0 || s1 == 0 {
		t.Fatalf("multi-worker crawl did nothing: dials=%d successes=%d", d1, s1)
	}
	if q1 == 0 {
		t.Fatal("the 16-slot queue never shed a candidate")
	}
}
