package simclock

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

var epoch = time.Date(2018, 4, 18, 0, 0, 0, 0, time.UTC)

func TestSimulatedNow(t *testing.T) {
	c := NewSimulated(epoch)
	if !c.Now().Equal(epoch) {
		t.Fatal("start time wrong")
	}
	c.Advance(3 * time.Hour)
	if got := c.Now(); !got.Equal(epoch.Add(3 * time.Hour)) {
		t.Fatalf("now = %v", got)
	}
	if c.Since(epoch) != 3*time.Hour {
		t.Fatal("Since wrong")
	}
}

func TestAfterFuncFiresInOrder(t *testing.T) {
	c := NewSimulated(epoch)
	var order []int
	c.AfterFunc(2*time.Second, func() { order = append(order, 2) })
	c.AfterFunc(1*time.Second, func() { order = append(order, 1) })
	c.AfterFunc(3*time.Second, func() { order = append(order, 3) })
	n := c.Advance(10 * time.Second)
	if n != 3 {
		t.Fatalf("fired %d", n)
	}
	if order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order %v", order)
	}
}

func TestAfterFuncTieBreak(t *testing.T) {
	c := NewSimulated(epoch)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.AfterFunc(time.Second, func() { order = append(order, i) })
	}
	c.Advance(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("ties not FIFO: %v", order)
		}
	}
}

func TestTimerStop(t *testing.T) {
	c := NewSimulated(epoch)
	fired := false
	timer := c.AfterFunc(time.Second, func() { fired = true })
	if !timer.Stop() {
		t.Fatal("Stop reported already fired")
	}
	if timer.Stop() {
		t.Fatal("second Stop reported success")
	}
	c.Advance(2 * time.Second)
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestCallbackTimeIsDeadline(t *testing.T) {
	c := NewSimulated(epoch)
	var at time.Time
	c.AfterFunc(90*time.Second, func() { at = c.Now() })
	c.Advance(time.Hour)
	if !at.Equal(epoch.Add(90 * time.Second)) {
		t.Fatalf("callback saw %v", at)
	}
	// After the advance, time is at the full hour.
	if !c.Now().Equal(epoch.Add(time.Hour)) {
		t.Fatal("clock not at target after advance")
	}
}

func TestReschedulingCallback(t *testing.T) {
	c := NewSimulated(epoch)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			c.AfterFunc(time.Minute, tick)
		}
	}
	c.AfterFunc(time.Minute, tick)
	c.Advance(time.Hour)
	if count != 5 {
		t.Fatalf("count = %d", count)
	}
}

func TestRunAllLimit(t *testing.T) {
	c := NewSimulated(epoch)
	count := 0
	var loop func()
	loop = func() {
		count++
		c.AfterFunc(time.Second, loop)
	}
	c.AfterFunc(time.Second, loop)
	fired := c.RunAll(100)
	if fired != 100 || count != 100 {
		t.Fatalf("fired %d count %d", fired, count)
	}
}

func TestNextDeadline(t *testing.T) {
	c := NewSimulated(epoch)
	if _, ok := c.NextDeadline(); ok {
		t.Fatal("deadline on empty clock")
	}
	tm := c.AfterFunc(5*time.Second, func() {})
	c.AfterFunc(9*time.Second, func() {})
	if d, ok := c.NextDeadline(); !ok || !d.Equal(epoch.Add(5*time.Second)) {
		t.Fatalf("deadline %v %v", d, ok)
	}
	tm.Stop()
	if d, ok := c.NextDeadline(); !ok || !d.Equal(epoch.Add(9*time.Second)) {
		t.Fatalf("after cancel: %v %v", d, ok)
	}
}

func TestPendingCount(t *testing.T) {
	c := NewSimulated(epoch)
	t1 := c.AfterFunc(time.Second, func() {})
	c.AfterFunc(2*time.Second, func() {})
	if c.PendingCount() != 2 {
		t.Fatal("want 2 pending")
	}
	t1.Stop()
	if c.PendingCount() != 1 {
		t.Fatal("want 1 pending after stop")
	}
	c.Advance(time.Minute)
	if c.PendingCount() != 0 {
		t.Fatal("want 0 pending after advance")
	}
}

func TestSystemClock(t *testing.T) {
	var c Clock = System{}
	start := c.Now()
	var fired atomic.Bool
	timer := c.AfterFunc(time.Millisecond, func() { fired.Store(true) })
	deadline := time.Now().Add(2 * time.Second)
	for !fired.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !fired.Load() {
		t.Fatal("system AfterFunc never fired")
	}
	timer.Stop()
	if c.Since(start) <= 0 {
		t.Fatal("Since not positive")
	}
}

func TestAdvanceWithNoTimers(t *testing.T) {
	c := NewSimulated(epoch)
	if n := c.Advance(time.Hour); n != 0 {
		t.Fatalf("fired %d", n)
	}
	if !c.Now().Equal(epoch.Add(time.Hour)) {
		t.Fatal("time did not advance")
	}
}

func TestNegativeDelay(t *testing.T) {
	c := NewSimulated(epoch)
	fired := false
	c.AfterFunc(-time.Second, func() { fired = true })
	c.Advance(0)
	if !fired {
		t.Fatal("negative-delay timer should fire immediately on advance")
	}
}

// checkHeap: every heap slot holds an event, a slot with a handle sits
// where the handle says, and no event is due before its parent.
func checkHeap(t *testing.T, c *Simulated) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.heap {
		e := &c.heap[i]
		if e.ev == nil {
			t.Fatalf("heap[%d] has no event", i)
		}
		if e.t != nil && e.t.index != i {
			t.Fatalf("heap[%d] believes it is at %d", i, e.t.index)
		}
		if i > 0 && e.before(&c.heap[(i-1)/2]) {
			t.Fatalf("heap[%d] is due before its parent", i)
		}
	}
}

// probe is a test event: it logs itself when it fires. tm is its
// handle when it was armed with AfterFunc, nil after Schedule.
type probe struct {
	tm      Timer
	at      time.Duration
	seq     int
	stopped bool
	log     *[]*probe
}

func (p *probe) Fire() { *p.log = append(*p.log, p) }

// TestStopRemovesFromHeap: a stopped timer leaves the heap at once —
// it is not left to be skipped when its deadline comes up — while
// handle-less Schedule events push the timers about, and everything
// around it still fires in (deadline, scheduling) order.
func TestStopRemovesFromHeap(t *testing.T) {
	c := NewSimulated(epoch)
	rng := rand.New(rand.NewSource(3))
	var all, timers, fired []*probe
	for i := 0; i < 3000; i++ {
		a := &probe{at: time.Duration(rng.Intn(500)) * time.Second, seq: i, log: &fired}
		if i%3 == 0 {
			c.Schedule(a.at, a)
		} else {
			a.tm = c.AfterFunc(a.at, a.Fire)
			timers = append(timers, a)
		}
		all = append(all, a)
	}
	live := len(all)
	for _, i := range rng.Perm(len(timers))[:1200] {
		if !timers[i].tm.Stop() {
			t.Fatal("Stop on an armed timer reported false")
		}
		timers[i].stopped = true
		live--
		if c.PendingCount() != live {
			t.Fatalf("PendingCount %d after a Stop, want %d", c.PendingCount(), live)
		}
		if i%100 == 0 {
			checkHeap(t, c)
		}
	}
	checkHeap(t, c)
	for _, a := range timers {
		if a.stopped && a.tm.(*simTimer).index != -1 {
			t.Fatal("a stopped timer is still in the heap")
		}
	}
	// NextDeadline is the earliest live event's, with no stopped one
	// in the way.
	want := time.Duration(-1)
	for _, a := range all {
		if !a.stopped && (want < 0 || a.at < want) {
			want = a.at
		}
	}
	if d, ok := c.NextDeadline(); !ok || !d.Equal(epoch.Add(want)) {
		t.Fatalf("NextDeadline %v %v, want %v", d, ok, epoch.Add(want))
	}

	if n := c.Advance(time.Hour); n != live {
		t.Fatalf("fired %d, want the %d live events", n, live)
	}
	for i, a := range fired {
		if a.stopped {
			t.Fatal("a stopped timer fired")
		}
		if i > 0 && (fired[i-1].at > a.at || fired[i-1].at == a.at && fired[i-1].seq > a.seq) {
			t.Fatalf("fired out of order: (%v, #%d) before (%v, #%d)", fired[i-1].at, fired[i-1].seq, a.at, a.seq)
		}
		if a.tm != nil && a.tm.Stop() {
			t.Fatal("Stop after firing reported true")
		}
	}
	if c.PendingCount() != 0 {
		t.Fatalf("%d timers pending after everything fired", c.PendingCount())
	}
	if _, ok := c.NextDeadline(); ok {
		t.Fatal("NextDeadline on a drained clock")
	}
}

// TestStopFromCallback: a callback may stop a timer due at the same
// instant but scheduled after it, and may find its own timer already
// spent.
func TestStopFromCallback(t *testing.T) {
	c := NewSimulated(epoch)
	var first, second Timer
	secondFired := false
	first = c.AfterFunc(time.Second, func() {
		if first.Stop() {
			t.Error("a running callback's own timer still stoppable")
		}
		if !second.Stop() {
			t.Error("could not stop a same-instant timer scheduled later")
		}
	})
	second = c.AfterFunc(time.Second, func() { secondFired = true })
	if n := c.Advance(time.Minute); n != 1 || secondFired {
		t.Fatalf("fired %d callbacks, second fired: %v", n, secondFired)
	}
}

// TestScheduleAndAfterFuncShareOrder: Schedule and AfterFunc feed one
// queue, so at equal deadlines they fire in the order they were
// scheduled, whichever call scheduled them.
func TestScheduleAndAfterFuncShareOrder(t *testing.T) {
	c := NewSimulated(epoch)
	var fired []*probe
	early := &probe{seq: -1, log: &fired}
	for i := 0; i < 12; i++ {
		p := &probe{seq: i, log: &fired}
		if i%2 == 0 {
			c.Schedule(time.Second, p)
		} else {
			c.AfterFunc(time.Second, p.Fire)
		}
	}
	c.Schedule(-time.Second, early) // clamped to now: fires first
	if n := c.Advance(time.Second); n != 13 {
		t.Fatalf("fired %d, want 13", n)
	}
	for i, p := range fired {
		if p.seq != i-1 {
			t.Fatalf("#%d fired in place %d, want -1, 0, 1, …, 11 in order", p.seq, i)
		}
	}
}

// TestScheduleAllocatesNothing: once the heap has grown, scheduling an
// Event and firing it costs no allocation.
func TestScheduleAllocatesNothing(t *testing.T) {
	c := NewSimulated(epoch)
	fired := make([]*probe, 0, 1024)
	p := &probe{log: &fired}
	for i := 0; i < 64; i++ {
		c.Schedule(time.Second, p)
	}
	c.Advance(time.Second)
	n := testing.AllocsPerRun(100, func() {
		c.Schedule(time.Second, p)
		c.Schedule(2*time.Second, p)
		c.Advance(2 * time.Second)
	})
	if n != 0 {
		t.Fatalf("Schedule and fire allocate %.1f objects, want 0", n)
	}
}

// TestResetMatchesStopAndAfterFunc is a differential test of Reset:
// random schedules of re-arms (negative, zero and positive delays, on
// pending, stopped and fired timers, some from inside a callback),
// stops, handle-less events and advances, driven once through Reset
// and once through Stop plus a fresh AfterFunc, must fire the same
// callbacks at the same instants in the same order, and report the
// same pending states.
func TestResetMatchesStopAndAfterFunc(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		reset := rearmSchedule(t, seed, true)
		recreate := rearmSchedule(t, seed, false)
		if len(reset) != len(recreate) {
			t.Fatalf("seed %d: %d events through Reset, %d through Stop+AfterFunc", seed, len(reset), len(recreate))
		}
		for i := range reset {
			if reset[i] != recreate[i] {
				t.Fatalf("seed %d, event %d: %q through Reset, %q through Stop+AfterFunc", seed, i, reset[i], recreate[i])
			}
		}
	}
}

// rearmSchedule runs seed's schedule and returns what happened, in
// order.
func rearmSchedule(t *testing.T, seed int64, useReset bool) []string {
	c := NewSimulated(epoch)
	rng := rand.New(rand.NewSource(seed))
	const n = 40
	timers := make([]Timer, n)
	fires := make([]int, n)
	var log []string
	var rearm func(i int, d time.Duration) bool
	rearm = func(i int, d time.Duration) bool {
		if useReset && timers[i] != nil {
			return timers[i].Reset(d)
		}
		pending := timers[i] != nil && timers[i].Stop()
		timers[i] = c.AfterFunc(d, func() {
			fires[i]++
			log = append(log, fmt.Sprintf("fire %d at %v", i, c.Now().Sub(epoch)))
			// Every third firing re-arms from inside the callback, as a
			// static re-dial that finds its node busy does.
			if fires[i]%3 == 0 {
				rearm(i, time.Duration(i%4)*time.Second)
			}
		})
		return pending
	}
	for step := 0; step < 3000; step++ {
		i := rng.Intn(n)
		switch op := rng.Intn(20); {
		case op < 10:
			d := time.Duration(rng.Intn(120)-10) * time.Second
			log = append(log, fmt.Sprintf("rearm %d by %v: %v", i, d, rearm(i, d)))
		case op < 13:
			if timers[i] != nil {
				log = append(log, fmt.Sprintf("stop %d: %v", i, timers[i].Stop()))
			}
		case op < 15:
			k := step
			c.Schedule(time.Duration(rng.Intn(60))*time.Second, funcEvent(func() {
				log = append(log, fmt.Sprintf("event %d at %v", k, c.Now().Sub(epoch)))
			}))
		default:
			log = append(log, fmt.Sprintf("advance: %d fired", c.Advance(time.Duration(rng.Intn(30))*time.Second)))
		}
		if step%250 == 0 {
			checkHeap(t, c)
		}
	}
	log = append(log, fmt.Sprintf("drain: %d fired", c.RunAll(1<<20)))
	return log
}

// TestResetAllocatesNothing: re-arming a pending or a fired timer
// reuses its handle and its heap slot.
func TestResetAllocatesNothing(t *testing.T) {
	c := NewSimulated(epoch)
	tm := c.AfterFunc(time.Second, func() {})
	n := testing.AllocsPerRun(100, func() {
		tm.Reset(2 * time.Second)
		c.Advance(3 * time.Second)
		tm.Reset(time.Second)
	})
	if n != 0 {
		t.Fatalf("Reset allocates %.1f objects, want 0", n)
	}
}
