package mlog

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBatcherDrainsInOrder: everything recorded before Close reaches
// the underlying sink, in arrival order.
func TestBatcherDrainsInOrder(t *testing.T) {
	col := NewCollector()
	b := NewBatcher(col)
	const n = 5000
	for i := 0; i < n; i++ {
		b.Record(&Entry{NodeID: fmt.Sprintf("node-%06d", i)})
	}
	b.Close()
	got := col.Entries()
	if len(got) != n {
		t.Fatalf("flushed %d entries, want %d", len(got), n)
	}
	for i, e := range got {
		if want := fmt.Sprintf("node-%06d", i); e.NodeID != want {
			t.Fatalf("entry %d out of order: got %s want %s", i, e.NodeID, want)
		}
	}
}

// TestBatcherConcurrentRecord: concurrent recorders race the flusher
// without loss (run under -race in CI).
func TestBatcherConcurrentRecord(t *testing.T) {
	col := NewCollector()
	b := NewBatcher(col)
	const writers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b.Record(&Entry{NodeID: fmt.Sprintf("w%d-%d", w, i)})
			}
		}(w)
	}
	wg.Wait()
	b.Close()
	if got := col.Len(); got != writers*per {
		t.Fatalf("flushed %d entries, want %d", got, writers*per)
	}
	if b.Pending() != 0 {
		t.Fatalf("pending %d after Close", b.Pending())
	}
}

// TestBatcherCloseIdempotent: double Close neither panics nor hangs,
// and records after Close are dropped rather than leaking a buffer.
func TestBatcherCloseIdempotent(t *testing.T) {
	col := NewCollector()
	b := NewBatcher(col)
	b.Record(&Entry{NodeID: "a"})
	b.Close()
	b.Record(&Entry{NodeID: "late"})
	b.Close()
	if got := col.Len(); got != 1 {
		t.Fatalf("flushed %d entries, want 1", got)
	}
}

// TestBatcherCloseDrainsPartialBatch: fewer than wakeBatch records
// do not wake a sleeping flusher on their own; Close must still
// deliver them, in order.
func TestBatcherCloseDrainsPartialBatch(t *testing.T) {
	col := NewCollector()
	b := NewBatcher(col)
	const n = wakeBatch - 1
	for i := 0; i < n; i++ {
		b.Record(&Entry{Port: uint16(i)})
	}
	b.Close()
	got := col.Entries()
	if len(got) != n || b.Pending() != 0 {
		t.Fatalf("flushed %d, pending %d after Close; want %d and 0", len(got), b.Pending(), n)
	}
	for i, e := range got {
		if e.Port != uint16(i) {
			t.Fatalf("entry %d out of order: %d", i, e.Port)
		}
	}
}

// gatedSink forgets what it is given — so that nothing but the
// Batcher could be keeping an entry alive — and holds the flusher up
// until the gate opens.
type gatedSink struct {
	started sync.Once
	waiting chan struct{} // closed when the flusher first arrives
	gate    chan struct{}
	n       atomic.Int64
}

func (g *gatedSink) Record(*Entry) {
	g.started.Do(func() { close(g.waiting) })
	<-g.gate
	g.n.Add(1)
}

// TestBatcherDropsFlushedEntries: the two buffers are reused, so a
// drained one must be cleared — otherwise up to a buffer's worth of
// entries (and everything they point at) stays reachable from the
// Batcher for as long as the crawl runs.
func TestBatcherDropsFlushedEntries(t *testing.T) {
	sink := &gatedSink{waiting: make(chan struct{}), gate: make(chan struct{})}
	b := NewBatcher(sink)
	var collected atomic.Int64
	record := func(n int) {
		for i := 0; i < n; i++ {
			e := &Entry{Port: uint16(i)}
			runtime.SetFinalizer(e, func(*Entry) { collected.Add(1) })
			b.Record(e)
		}
	}
	// With the flusher stuck on the first batch the rest lands in the
	// other buffer, so both are in use when the gate opens.
	record(wakeBatch)
	select {
	case <-sink.waiting:
	case <-time.After(5 * time.Second):
		t.Fatal("a full batch did not wake the flusher")
	}
	record(wakeBatch + 7)
	close(sink.gate)
	b.Close()
	const n = 2*wakeBatch + 7
	if got := sink.n.Load(); got != n {
		t.Fatalf("flusher delivered %d of %d entries", got, n)
	}
	for deadline := time.Now().Add(5 * time.Second); collected.Load() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d flushed entries still reachable from the Batcher", n-collected.Load(), n)
		}
		runtime.GC()
	}
	runtime.KeepAlive(b)
}
