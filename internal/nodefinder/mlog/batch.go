package mlog

import "sync"

// Batcher is a Sink decorator that takes record construction off the
// dial path. Record only appends to an in-memory buffer under a
// mutex; a single background goroutine drains the buffer into the
// underlying sink (typically a JSON Writer) in batches. At 100k-node
// crawl rates the JSON encode + write of a synchronous Writer
// dominates the dial callback; batching moves that cost off the
// Finder's scheduling path entirely.
//
// Ordering is preserved: the flusher drains whole buffers in arrival
// order, and Close hands back only after everything recorded before
// the call has reached the underlying sink. No timers are involved, so
// the Batcher is safe under the simulated clock: the flusher sleeps
// on a condition variable while the buffer is empty, and the record
// that completes a batch of wakeBatch wakes it. (Woken per record it
// outruns the dial path and is asleep again before the next one, so
// every Record pays a futex call.) Fewer than wakeBatch records can
// therefore sit in memory until Close — like the last lines in a
// Writer's buffer until Flush.
type Batcher struct {
	sink Sink

	mu     sync.Mutex
	cond   *sync.Cond
	buf    []*Entry
	closed bool
	done   chan struct{}
}

const wakeBatch = 1024

// NewBatcher wraps sink with an asynchronous buffer and starts the
// flusher goroutine. Callers must Close the Batcher to drain it.
func NewBatcher(sink Sink) *Batcher {
	b := &Batcher{sink: sink, done: make(chan struct{})}
	b.cond = sync.NewCond(&b.mu)
	go b.flushLoop()
	return b
}

// Record implements Sink. It never blocks on the underlying sink.
// Records after Close are dropped (the crawler is shutting down).
func (b *Batcher) Record(e *Entry) {
	b.mu.Lock()
	if !b.closed {
		b.buf = append(b.buf, e)
		if len(b.buf) == wakeBatch {
			b.cond.Signal()
		}
	}
	b.mu.Unlock()
}

// Pending returns the number of buffered, not-yet-flushed entries.
func (b *Batcher) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.buf)
}

// Close drains every buffered entry into the underlying sink, stops
// the flusher goroutine, and returns. Safe to call more than once.
func (b *Batcher) Close() {
	b.mu.Lock()
	b.closed = true
	b.cond.Signal()
	b.mu.Unlock()
	<-b.done
}

// flushLoop swaps the shared buffer for a drained spare and writes
// the batch outside the lock, so recorders are never blocked by the
// underlying sink's encode/write latency. The two buffers take turns
// and keep their capacity; a drained one is cleared of its entries.
func (b *Batcher) flushLoop() {
	defer close(b.done)
	var batch []*Entry
	for {
		b.mu.Lock()
		for len(b.buf) == 0 && !b.closed {
			b.cond.Wait()
		}
		batch, b.buf = b.buf, batch[:0]
		closed := b.closed
		b.mu.Unlock()

		for _, e := range batch {
			b.sink.Record(e)
		}
		clear(batch)
		if closed {
			return // nothing is admitted once closed is set
		}
	}
}
