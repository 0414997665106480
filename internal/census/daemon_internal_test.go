package census

import (
	"testing"
	"time"

	"repro/internal/nodefinder/mlog"
	"repro/internal/simclock"
)

// TestRecordDoesNotWaitForPublish: the crawler's log sink takes the
// intake lock only, so an entry is accepted while a publish holds the
// publish lock, and the next publish picks it up.
func TestRecordDoesNotWaitForPublish(t *testing.T) {
	start := time.Date(2018, 4, 18, 0, 0, 0, 0, time.UTC)
	d := NewDaemon(DaemonConfig{Clock: simclock.NewSimulated(start)})

	d.pubMu.Lock() // a publish is under way
	recorded := make(chan struct{})
	go func() {
		d.Record(&mlog.Entry{Time: start, NodeID: "aa", IP: "52.1.2.3"})
		close(recorded)
	}()
	select {
	case <-recorded:
	case <-time.After(10 * time.Second):
		t.Fatal("Record is blocked behind a publish")
	}
	d.pubMu.Unlock()

	snap := d.Publish()
	if got := snap.Totals.Identities; got != 1 {
		t.Errorf("%d identities after the publish, want the 1 recorded meanwhile", got)
	}
	if !snap.Start.Equal(start) {
		t.Errorf("a publish before Start anchored the grid at %v, want the clock's %v", snap.Start, start)
	}
}
