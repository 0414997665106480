package netpipe

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil/leakcheck"
)

// TestBufferedWritesDoNotBlock: both ends write before either reads —
// the pattern that deadlocks net.Pipe.
func TestBufferedWritesDoNotBlock(t *testing.T) {
	leakcheck.Check(t)
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	msgA := []byte("hello-from-a")
	msgB := []byte("hello-from-b")
	if _, err := a.Write(msgA); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(msgB); err != nil {
		t.Fatal(err)
	}
	gotB := make([]byte, len(msgA))
	if _, err := io.ReadFull(b, gotB); err != nil || !bytes.Equal(gotB, msgA) {
		t.Fatalf("b read %q err %v", gotB, err)
	}
	gotA := make([]byte, len(msgB))
	if _, err := io.ReadFull(a, gotA); err != nil || !bytes.Equal(gotA, msgB) {
		t.Fatalf("a read %q err %v", gotA, err)
	}
}

// TestCloseSemantics: the peer drains buffered data then sees EOF;
// writes to a closed peer fail.
func TestCloseSemantics(t *testing.T) {
	leakcheck.Check(t)
	a, b := Pair()
	a.Write([]byte("tail")) //nolint:errcheck
	a.Close()
	got := make([]byte, 4)
	if _, err := io.ReadFull(b, got); err != nil || string(got) != "tail" {
		t.Fatalf("drain after close: %q err %v", got, err)
	}
	if _, err := b.Read(got); err != io.EOF {
		t.Fatalf("want EOF after drain, got %v", err)
	}
	if _, err := b.Write([]byte("x")); err != io.ErrClosedPipe {
		t.Fatalf("write to closed peer: %v", err)
	}
	b.Close()
}

// TestReadDeadline: a blocked read wakes at the deadline with the
// same "i/o timeout" a socket produces.
func TestReadDeadline(t *testing.T) {
	leakcheck.Check(t)
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	a.SetReadDeadline(time.Now().Add(30 * time.Millisecond)) //nolint:errcheck
	start := time.Now()
	_, err := a.Read(make([]byte, 1))
	if err != os.ErrDeadlineExceeded {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline did not fire promptly")
	}
	// Clearing the deadline makes reads block again; Close unblocks.
	a.SetReadDeadline(time.Time{}) //nolint:errcheck
	done := make(chan error, 1)
	go func() {
		_, err := a.Read(make([]byte, 1))
		done <- err
	}()
	b.Close()
	if err := <-done; err != io.EOF {
		t.Fatalf("read after peer close: %v", err)
	}
}

// TestInterleavedPartialReads: reads that stop mid-message while more
// is written, and queues that drain and start over on the same
// array, hand out each byte once and in order — never a stale byte
// of an earlier message.
func TestInterleavedPartialReads(t *testing.T) {
	leakcheck.Check(t)
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	rng := rand.New(rand.NewSource(1))
	var sent []byte // written and not yet read
	buf := make([]byte, 4096)
	for i := 0; i < 2000; i++ {
		msg := make([]byte, rng.Intn(3*queueInline))
		for j := range msg {
			msg[j] = byte(i) ^ byte(j>>3)
		}
		if _, err := a.Write(msg); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, msg...)
		// Read a random part of what is queued, sometimes all of it.
		for len(sent) > 0 && rng.Intn(3) != 0 {
			n, err := b.Read(buf[:1+rng.Intn(min(len(sent), len(buf)))])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf[:n], sent[:n]) {
				t.Fatalf("message %d: read %d bytes that diverge from what was written", i, n)
			}
			sent = sent[n:]
		}
	}
}

// TestDrainedQueueReleasesLargeArray: a 1 MiB write grows the queue,
// but once read the queue is back on its inline array, so the pair
// does not pin the megabyte for the rest of its life.
func TestDrainedQueueReleasesLargeArray(t *testing.T) {
	leakcheck.Check(t)
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	a2b := a.(*conn).wr
	big := bytes.Repeat([]byte{0xAB}, 1<<20)
	if _, err := a.Write(big); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(big))
	if _, err := io.ReadFull(b, got); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("reading the 1 MiB message back: %v", err)
	}
	a2b.mu.Lock()
	kept := cap(a2b.q)
	a2b.mu.Unlock()
	if kept > maxKeepQueue {
		t.Errorf("drained queue keeps a %d-byte array, cap %d", kept, maxKeepQueue)
	}
}

// TestCloseLeavesNoTimer: closing the ends wakes their blocked readers
// (no goroutine outlives the test) and stops the pair's deadline
// timer, and a deadline set after Close arms none.
func TestCloseLeavesNoTimer(t *testing.T) {
	leakcheck.Check(t)
	a, b := Pair()
	far := time.Now().Add(time.Hour)
	a.SetReadDeadline(far) //nolint:errcheck
	b.SetReadDeadline(far) //nolint:errcheck
	done := make(chan error, 2)
	for _, c := range []net.Conn{a, b} {
		go func() {
			_, err := c.Read(make([]byte, 1))
			done <- err
		}()
	}
	a.Close()
	b.Close()
	for range 2 {
		if err := <-done; err == nil {
			t.Error("a blocked read returned data after Close")
		}
	}
	a.SetReadDeadline(far) //nolint:errcheck
	b.SetReadDeadline(far) //nolint:errcheck
	p := a.(*conn).p
	p.tmu.Lock()
	if p.timer != nil && p.timer.Stop() {
		t.Error("a closed pair still holds an armed deadline timer")
	}
	p.tmu.Unlock()
}

// TestConcurrentDeadlines: deadlines moved from other goroutines while
// readers are blocked race with neither the readers nor the timer's
// wake-up (run it under -race), and every reader ends with the
// deadline error once one passes.
func TestConcurrentDeadlines(t *testing.T) {
	leakcheck.Check(t)
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	var readers, setters sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			if _, err := a.Read(make([]byte, 1)); err != os.ErrDeadlineExceeded {
				t.Errorf("blocked read: %v, want the deadline error", err)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		setters.Add(1)
		go func() {
			defer setters.Done()
			for j := 0; j < 50; j++ {
				a.SetReadDeadline(time.Now().Add(time.Duration(1+j%5) * time.Millisecond)) //nolint:errcheck
			}
		}()
	}
	setters.Wait()
	a.SetReadDeadline(time.Now().Add(5 * time.Millisecond)) //nolint:errcheck
	readers.Wait()
}

// TestPairAllocs: a pair is one allocation, its deadlines — both
// directions' — two more in all, and a message through it, queue and
// deadline re-arming included, none.
func TestPairAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() { Pair() }); got != 1 {
		t.Errorf("Pair allocates %.0f objects, want 1", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		a, b := Pair()
		far := time.Now().Add(time.Minute)
		a.SetReadDeadline(far)                  //nolint:errcheck
		b.SetReadDeadline(far.Add(time.Second)) //nolint:errcheck
		a.SetDeadline(far.Add(time.Minute))     //nolint:errcheck
		a.Close()
		b.Close()
	}); got > 3 {
		t.Errorf("a pair with deadlines on both ends allocates %.0f objects, want at most 1 + 2", got)
	}
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	b.SetReadDeadline(time.Now().Add(time.Minute)) //nolint:errcheck
	msg, buf := make([]byte, 600), make([]byte, 600)
	got := testing.AllocsPerRun(100, func() {
		b.SetReadDeadline(time.Now().Add(time.Minute)) //nolint:errcheck
		a.Write(msg)                                   //nolint:errcheck
		io.ReadFull(b, buf)                            //nolint:errcheck
	})
	if got != 0 {
		t.Errorf("a message through the pair allocates %.1f objects, want 0", got)
	}
}
