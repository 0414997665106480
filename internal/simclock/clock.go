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
	"container/heap"
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

// Simulated is a virtual clock. Time only moves when Advance or Run
// is called; due callbacks execute on the advancing goroutine in
// timestamp order (ties broken by scheduling order), giving fully
// deterministic executions.
type Simulated struct {
	mu     sync.Mutex
	now    time.Time
	seq    uint64
	queue  eventQueue
	active map[*simTimer]struct{}
}

// NewSimulated creates a simulated clock starting at the given time.
func NewSimulated(start time.Time) *Simulated {
	return &Simulated{now: start, active: make(map[*simTimer]struct{})}
}

// Now implements Clock.
func (c *Simulated) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Since implements Clock.
func (c *Simulated) Since(t time.Time) time.Duration {
	return c.Now().Sub(t)
}

// AfterFunc implements Clock. The callback runs synchronously inside
// a future Advance/Run call.
func (c *Simulated) AfterFunc(d time.Duration, fn func()) Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d < 0 {
		d = 0
	}
	t := &simTimer{clock: c, when: c.now.Add(d), fn: fn, seq: c.seq}
	c.seq++
	heap.Push(&c.queue, t)
	c.active[t] = struct{}{}
	return t
}

// Advance moves the clock forward by d, firing all callbacks due in
// the interval in order. It returns the number of callbacks fired.
func (c *Simulated) Advance(d time.Duration) int {
	c.mu.Lock()
	target := c.now.Add(d)
	c.mu.Unlock()
	return c.RunUntil(target)
}

// RunUntil fires callbacks in order until the queue holds nothing due
// at or before target, then sets the clock to target.
func (c *Simulated) RunUntil(target time.Time) int {
	fired := 0
	for {
		c.mu.Lock()
		if len(c.queue) == 0 || c.queue[0].when.After(target) {
			if target.After(c.now) {
				c.now = target
			}
			c.mu.Unlock()
			return fired
		}
		t := heap.Pop(&c.queue).(*simTimer)
		if _, ok := c.active[t]; !ok {
			c.mu.Unlock()
			continue // cancelled
		}
		delete(c.active, t)
		if t.when.After(c.now) {
			c.now = t.when
		}
		fn := t.fn
		c.mu.Unlock()
		fn()
		fired++
	}
}

// RunAll fires every pending callback (including ones scheduled by
// earlier callbacks) up to the limit, returning the count fired. It
// guards against runaway self-rescheduling loops.
func (c *Simulated) RunAll(limit int) int {
	fired := 0
	for fired < limit {
		c.mu.Lock()
		if len(c.queue) == 0 {
			c.mu.Unlock()
			return fired
		}
		t := heap.Pop(&c.queue).(*simTimer)
		if _, ok := c.active[t]; !ok {
			c.mu.Unlock()
			continue
		}
		delete(c.active, t)
		if t.when.After(c.now) {
			c.now = t.when
		}
		fn := t.fn
		c.mu.Unlock()
		fn()
		fired++
	}
	return fired
}

// PendingCount returns the number of live timers.
func (c *Simulated) PendingCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.active)
}

// NextDeadline returns the time of the earliest live timer, and false
// if none are scheduled.
func (c *Simulated) NextDeadline() (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.queue) > 0 {
		if _, ok := c.active[c.queue[0]]; ok {
			return c.queue[0].when, true
		}
		heap.Pop(&c.queue)
	}
	return time.Time{}, false
}

type simTimer struct {
	clock *Simulated
	when  time.Time
	fn    func()
	seq   uint64
	index int
}

// Stop implements Timer.
func (t *simTimer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	if _, ok := t.clock.active[t]; ok {
		delete(t.clock.active, t)
		return true
	}
	return false
}

// eventQueue is a min-heap of timers by (when, seq).
type eventQueue []*simTimer

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].when.Equal(q[j].when) {
		return q[i].seq < q[j].seq
	}
	return q[i].when.Before(q[j].when)
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	t := x.(*simTimer)
	t.index = len(*q)
	*q = append(*q, t)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return t
}
