package analysis

import (
	"testing"
	"time"

	"repro/internal/nodefinder/mlog"
)

const epochInterval = 30 * time.Minute

func disconnectEntry(id, ip string, at time.Time) *mlog.Entry {
	e := entry(id, ip, at)
	reason := uint64(0x04)
	e.DisconnectReason = &reason
	return e
}

// TestEpochSeriesEmptyFirstSnapshot: a series whose opening window has
// no responsive entries yields an all-zero first point, and the first
// populated window counts everything as arrivals.
func TestEpochSeriesEmptyFirstSnapshot(t *testing.T) {
	caps := []string{"eth/63"}
	entries := []*mlog.Entry{
		helloEntry("a", "1.0.0.1", "Geth/v1", caps, t0.Add(epochInterval+time.Minute)),
		helloEntry("b", "1.0.0.2", "Geth/v1", caps, t0.Add(epochInterval+2*time.Minute)),
	}
	points := EpochSeries(entries, t0, epochInterval, 2)
	if len(points) != 2 {
		t.Fatalf("%d points, want 2", len(points))
	}
	if p := points[0]; p.Alive != 0 || p.Arrived != 0 || p.Departed != 0 || p.Changed != 0 {
		t.Errorf("empty first window not all-zero: %+v", p)
	}
	if p := points[1]; p.Alive != 2 || p.Arrived != 2 || p.Departed != 0 {
		t.Errorf("first populated window: %+v, want 2 alive / 2 arrived", p)
	}
}

// TestEpochSeriesFlapping: a node that flaps — responds, disappears,
// responds again all inside one interval — is live exactly once in
// that window (no double count), and a node whose whole life fits in
// one window arrives and departs in consecutive points.
func TestEpochSeriesFlapping(t *testing.T) {
	caps := []string{"eth/63"}
	var entries []*mlog.Entry
	// f flaps within window 0: hello at +1m, failed dial at +10m,
	// hello again at +20m.
	entries = append(entries, helloEntry("f", "1.0.0.9", "Geth/v1", caps, t0.Add(time.Minute)))
	failed := entry("f", "1.0.0.9", t0.Add(10*time.Minute))
	failed.Err = "connection refused"
	entries = append(entries, failed)
	entries = append(entries, helloEntry("f", "1.0.0.9", "Geth/v1", caps, t0.Add(20*time.Minute)))
	// s is a steady node live in both windows.
	entries = append(entries, helloEntry("s", "1.0.0.8", "Geth/v1", caps, t0.Add(2*time.Minute)))
	entries = append(entries, helloEntry("s", "1.0.0.8", "Geth/v1", caps, t0.Add(epochInterval+2*time.Minute)))

	points := EpochSeries(entries, t0, epochInterval, 2)
	if p := points[0]; p.Alive != 2 || p.Arrived != 2 {
		t.Errorf("window 0: %+v, want 2 alive / 2 arrived (flapper counted once)", p)
	}
	if p := points[1]; p.Alive != 1 || p.Departed != 1 || p.Arrived != 0 {
		t.Errorf("window 1: %+v, want 1 alive / 1 departed", p)
	}
}

// TestEpochSeriesIdentityReuse: the same node ID re-appearing with a
// changed client version or from a new IP is a "changed" identity,
// not an arrival or departure — the daemon must not count an upgrade
// as churn.
func TestEpochSeriesIdentityReuse(t *testing.T) {
	caps := []string{"eth/63"}
	entries := []*mlog.Entry{
		// u upgrades its client between windows.
		helloEntry("u", "1.0.0.1", "Geth/v1.8.10-stable", caps, t0.Add(time.Minute)),
		helloEntry("u", "1.0.0.1", "Geth/v1.8.11-stable", caps, t0.Add(epochInterval+time.Minute)),
		// m moves to a new IP (ENR change) between windows.
		helloEntry("m", "1.0.0.2", "Parity/v1.10.6", caps, t0.Add(time.Minute)),
		helloEntry("m", "9.9.9.9", "Parity/v1.10.6", caps, t0.Add(epochInterval+time.Minute)),
		// k keeps the same fingerprint.
		helloEntry("k", "1.0.0.3", "Geth/v1.8.11-stable", caps, t0.Add(time.Minute)),
		helloEntry("k", "1.0.0.3", "Geth/v1.8.11-stable", caps, t0.Add(epochInterval+time.Minute)),
	}
	points := EpochSeries(entries, t0, epochInterval, 2)
	if p := points[1]; p.Changed != 2 || p.Arrived != 0 || p.Departed != 0 || p.Alive != 3 {
		t.Errorf("window 1: %+v, want 2 changed / 0 arrived / 0 departed / 3 alive", p)
	}
}

// TestLiveFingerprintsLatestWins: within one window the latest entry
// defines the fingerprint; DISCONNECT-only entries are responsive but
// carry no client name, and entries outside the window are ignored.
func TestLiveFingerprintsLatestWins(t *testing.T) {
	caps := []string{"eth/63"}
	entries := []*mlog.Entry{
		helloEntry("a", "1.0.0.1", "Geth/v1.8.10", caps, t0.Add(1*time.Minute)),
		helloEntry("a", "1.0.0.1", "Geth/v1.8.11", caps, t0.Add(5*time.Minute)),
		disconnectEntry("d", "1.0.0.2", t0.Add(2*time.Minute)),
		helloEntry("late", "1.0.0.3", "Geth/v1", caps, t0.Add(epochInterval)), // at `until`: excluded
		// Equal timestamps: the later record wins, and an earlier
		// timestamp arriving after both changes nothing.
		helloEntry("tie", "1.0.0.4", "Geth/v1.8.10", caps, t0.Add(3*time.Minute)),
		helloEntry("tie", "1.0.0.5", "Geth/v1.8.11", caps, t0.Add(3*time.Minute)),
		helloEntry("tie", "1.0.0.6", "Geth/v1.8.9", caps, t0.Add(2*time.Minute)),
	}
	live := LiveFingerprints(entries, t0, t0.Add(epochInterval))
	if len(live) != 3 {
		t.Fatalf("%d live, want 3: %v", len(live), live)
	}
	if live["tie"] != "1.0.0.5|Geth/v1.8.11" {
		t.Errorf("tie = %q, want the later of two records with equal timestamps", live["tie"])
	}
	if live["a"] != "1.0.0.1|Geth/v1.8.11" {
		t.Errorf("a = %q, want latest hello fingerprint", live["a"])
	}
	if live["d"] != "1.0.0.2" {
		t.Errorf("d = %q, want bare-IP fingerprint for DISCONNECT-only", live["d"])
	}
}

// TestDiffEpochDegenerate pins the boundary diffs the daemon hits on
// its first and last ticks.
func TestDiffEpochDegenerate(t *testing.T) {
	a, d, c := DiffEpoch(map[string]string{}, map[string]string{"x": "1"})
	if a != 1 || d != 0 || c != 0 {
		t.Errorf("empty prev: %d/%d/%d", a, d, c)
	}
	a, d, c = DiffEpoch(map[string]string{"x": "1"}, map[string]string{})
	if a != 0 || d != 1 || c != 0 {
		t.Errorf("empty cur: %d/%d/%d", a, d, c)
	}
	if pts := EpochSeries(nil, t0, epochInterval, 0); pts != nil {
		t.Errorf("zero epochs: %v", pts)
	}
}
