// Package simclock provides an injectable clock abstraction with a
// deterministic simulated implementation.
//
// The paper's measurements span 82 days of wall time. To reproduce
// their shape without waiting 82 days, every time-dependent component
// in this repository (dial schedulers, peer churn, version lifecycle)
// takes a Clock. Production code passes System; experiments pass a
// Simulated clock and advance it explicitly, processing timer
// callbacks in strict timestamp order, which also makes every
// experiment deterministic.
package simclock

import (
	"math"
	"sync"
	"time"
)

// Clock abstracts time for simulation.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// AfterFunc schedules fn to run after d and returns a Timer that
	// can cancel it.
	AfterFunc(d time.Duration, fn func()) Timer
	// Since returns the elapsed time since t.
	Since(t time.Time) time.Duration
}

// Timer is a cancellable scheduled callback.
type Timer interface {
	// Stop cancels the timer; it reports whether the call prevented
	// the callback from firing.
	Stop() bool
	// Reset re-arms the timer to run its callback after d, whether it
	// is pending, stopped or already fired; it reports whether it was
	// pending. A periodic callback re-armed this way costs no new
	// timer.
	Reset(d time.Duration) bool
}

// System is the real-time clock backed by the time package.
type System struct{}

// Now implements Clock.
func (System) Now() time.Time { return time.Now() }

// Since implements Clock.
func (System) Since(t time.Time) time.Duration { return time.Since(t) }

// AfterFunc implements Clock.
func (System) AfterFunc(d time.Duration, fn func()) Timer {
	return systemTimer{time.AfterFunc(d, fn)}
}

// Stopwatch measures what an operation cost in real time. Behaviour
// (when a timer fires, which window an entry falls in) runs on an
// injected Clock so that it can be simulated; cost does not, because
// an operation scheduled on a simulated clock takes real time and no
// virtual time at all. Code in clocked packages reads the wall clock
// for cost through this type only.
type Stopwatch struct{ began time.Time }

// StartStopwatch starts timing on the wall clock.
func StartStopwatch() Stopwatch { return Stopwatch{began: time.Now()} }

// Elapsed returns the real time since the stopwatch started.
func (s Stopwatch) Elapsed() time.Duration { return time.Since(s.began) }

type systemTimer struct{ t *time.Timer }

func (t systemTimer) Stop() bool { return t.t.Stop() }

func (t systemTimer) Reset(d time.Duration) bool { return t.t.Reset(d) }

// Event is a callback scheduled on a Simulated clock with Schedule.
// A type that carries its own state can be its own Event, so that
// scheduling it allocates nothing.
type Event interface{ Fire() }

// funcEvent adapts a plain function to Event; a func value fits in an
// interface without an allocation.
type funcEvent func()

func (f funcEvent) Fire() { f() }

// Simulated is a virtual clock. Time only moves when Advance or Run
// is called; due callbacks execute on the advancing goroutine in
// timestamp order (ties broken by scheduling order), giving fully
// deterministic executions.
type Simulated struct {
	mu    sync.Mutex
	start time.Time
	now   time.Duration // virtual time elapsed since start
	seq   uint64
	// heap is a min-heap by (at, seq) of the live events only, held by
	// value: a fired or stopped timer leaves it at once, so a crawl that
	// re-arms 100k static timers every half hour does not sift through
	// the cancelled ones.
	heap []event
}

// event is one heap slot. t is the stoppable handle AfterFunc returned
// for it, kept told of the slot's position; nil for a Schedule call.
type event struct {
	at  time.Duration // deadline, as virtual time since the clock's start
	seq uint64
	ev  Event
	t   *simTimer
}

func (e *event) before(u *event) bool {
	return e.at < u.at || e.at == u.at && e.seq < u.seq
}

// NewSimulated creates a simulated clock starting at the given time.
func NewSimulated(start time.Time) *Simulated {
	return &Simulated{start: start}
}

// Now implements Clock.
func (c *Simulated) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.start.Add(c.now)
}

// Since implements Clock.
func (c *Simulated) Since(t time.Time) time.Duration {
	return c.Now().Sub(t)
}

// Schedule arranges for ev.Fire to run after d, synchronously inside a
// future Advance/Run call, in the same (deadline, scheduling) order as
// AfterFunc callbacks. It is for callbacks nobody stops: there is no
// handle, and nothing is allocated beyond the heap's own growth.
func (c *Simulated) Schedule(d time.Duration, ev Event) {
	c.mu.Lock()
	c.push(d, ev, nil)
	c.mu.Unlock()
}

// AfterFunc implements Clock: Schedule with a handle that can stop it.
func (c *Simulated) AfterFunc(d time.Duration, fn func()) Timer {
	t := &simTimer{clock: c, ev: funcEvent(fn)}
	c.mu.Lock()
	c.push(d, t.ev, t)
	c.mu.Unlock()
	return t
}

// push adds an event due d from now. Caller holds c.mu.
func (c *Simulated) push(d time.Duration, ev Event, t *simTimer) {
	if d < 0 {
		d = 0
	}
	c.heap = append(c.heap, event{at: c.now + d, seq: c.seq, ev: ev, t: t})
	c.seq++
	c.up(len(c.heap) - 1)
}

// Advance moves the clock forward by d, firing all callbacks due in
// the interval in order. It returns the number of callbacks fired.
func (c *Simulated) Advance(d time.Duration) int {
	return c.runUntil(c.Now().Add(d))
}

// runUntil fires callbacks in order until the queue holds nothing due
// at or before target, then sets the clock to target.
func (c *Simulated) runUntil(target time.Time) int {
	fired := 0
	for c.fireNext(target.Sub(c.start), true) {
		fired++
	}
	return fired
}

// RunAll fires every pending callback (including ones scheduled by
// earlier callbacks) up to the limit, returning the count fired. It
// guards against runaway self-rescheduling loops.
func (c *Simulated) RunAll(limit int) int {
	fired := 0
	for fired < limit && c.fireNext(math.MaxInt64, false) {
		fired++
	}
	return fired
}

// fireNext runs the earliest event due at or before limit, with the
// clock moved to its deadline, and reports whether there was one. With
// nothing due and settle set, the clock moves on to limit.
func (c *Simulated) fireNext(limit time.Duration, settle bool) bool {
	c.mu.Lock()
	if len(c.heap) == 0 || c.heap[0].at > limit {
		if settle && limit > c.now {
			c.now = limit
		}
		c.mu.Unlock()
		return false
	}
	at, ev := c.heap[0].at, c.heap[0].ev
	c.remove(0)
	if at > c.now {
		c.now = at
	}
	c.mu.Unlock()
	ev.Fire()
	return true
}

// PendingCount returns the number of live timers.
func (c *Simulated) PendingCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.heap)
}

// NextDeadline returns the time of the earliest live timer, and false
// if none are scheduled.
func (c *Simulated) NextDeadline() (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.heap) == 0 {
		return time.Time{}, false
	}
	return c.start.Add(c.heap[0].at), true
}

// simTimer is AfterFunc's handle on its heap slot.
type simTimer struct {
	clock *Simulated
	ev    Event // the callback, kept for Reset after it fired
	index int   // position in clock.heap; -1 once fired or stopped
}

// Reset implements Timer. The event gets the deadline and the place in
// the scheduling order a fresh AfterFunc would give it, so a run that
// re-arms with Reset fires exactly as one that stops and re-creates;
// a pending event is re-keyed and sifted where it stands.
func (t *simTimer) Reset(d time.Duration) bool {
	c := t.clock
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.index < 0 {
		c.push(d, t.ev, t)
		return false
	}
	if d < 0 {
		d = 0
	}
	e := &c.heap[t.index]
	e.at, e.seq = c.now+d, c.seq
	c.seq++
	c.up(c.down(t.index))
	return true
}

// Stop implements Timer.
func (t *simTimer) Stop() bool {
	c := t.clock
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.index < 0 {
		return false
	}
	c.remove(t.index)
	return true
}

// remove takes the event at heap position i out. Caller holds c.mu.
func (c *Simulated) remove(i int) {
	h, last := c.heap, len(c.heap)-1
	if t := h[i].t; t != nil {
		t.index = -1
	}
	moved := h[last]
	h[last] = event{}
	c.heap = h[:last]
	if i != last {
		h[i] = moved
		c.up(c.down(i))
	}
}

// place puts e at heap position i and tells its handle. Caller holds
// c.mu.
func (c *Simulated) place(i int, e event) {
	c.heap[i] = e
	if e.t != nil {
		e.t.index = i
	}
}

// up and down sift the event at heap position i into place; down
// returns where it came to rest.
func (c *Simulated) up(i int) {
	h, e := c.heap, c.heap[i]
	for parent := (i - 1) / 2; i > 0 && e.before(&h[parent]); i, parent = parent, (parent-1)/2 {
		c.place(i, h[parent])
	}
	c.place(i, e)
}

func (c *Simulated) down(i int) int {
	h, e := c.heap, c.heap[i]
	for child := 2*i + 1; child < len(h); i, child = child, 2*child+1 {
		if r := child + 1; r < len(h) && h[r].before(&h[child]) {
			child = r
		}
		if !h[child].before(&e) {
			break
		}
		c.place(i, h[child])
	}
	c.place(i, e)
	return i
}
