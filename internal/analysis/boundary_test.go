package analysis

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/nodefinder/mlog"
)

// Boundary pins for the figure builders: the first instant of the
// window, the last one, and the horizon just past it; a session gap of
// exactly SessionGap; two-part client names; and Fig. 12's top eight.

func TestDailySeriesWindowEdges(t *testing.T) {
	const days = 2
	horizon := t0.Add(days * 24 * time.Hour)
	js := []string{"eth/63"}
	entries := []*mlog.Entry{
		helloEntry("first", "1.0.0.1", "Geth/v1.8.0", js, t0),
		helloEntry("last", "1.0.0.2", "Geth/v1.8.0", js, horizon.Add(-time.Nanosecond)),
		helloEntry("late", "1.0.0.3", "Geth/v1.8.0", js, horizon), // past the window: dropped
	}
	want := []float64{1, 1}
	dialed, responded := DialSeries(entries, t0, days)
	dynamic, static := DialAttemptSeries(entries, t0, days)
	for name, got := range map[string][]float64{
		"dialed (Fig. 6)": dialed.Days, "responded (Fig. 7)": responded.Days, "dynamic dials (Fig. 5)": dynamic.Days,
		"versions (Fig. 10)": VersionAdoption(entries, "Geth", t0, days).Counts["v1.8.0"],
	} {
		if !slices.Equal(got, want) {
			t.Errorf("%s: %v, want %v", name, got, want)
		}
	}
	if !slices.Equal(static.Days, []float64{0, 0}) {
		t.Errorf("static dials: %v", static.Days)
	}
}

func TestOlderThanShareTwoPartNames(t *testing.T) {
	js := []string{"eth/63"}
	entries := []*mlog.Entry{
		helloEntry("old", "1.0.0.1", "Geth/v1.7.0", js, t0),
		helloEntry("new", "1.0.0.2", "Geth/v1.8.0", js, t0),
	}
	if got := OlderThanShare(entries, "Geth", []string{"v1.7.0", "v1.8.0"}, "v1.8.0", t0); got != 0.5 {
		t.Errorf("share %v, want 0.5 (one of two nodes older)", got)
	}
}

func TestChurnSessionGapBoundary(t *testing.T) {
	js := []string{"eth/63"}
	for _, tc := range []struct {
		gap      time.Duration
		sessions int
	}{{SessionGap, 1}, {SessionGap + time.Nanosecond, 2}} {
		res := Churn(Aggregate([]*mlog.Entry{
			helloEntry("a", "1.0.0.1", "Geth/v1", js, t0),
			helloEntry("a", "1.0.0.1", "Geth/v1", js, t0.Add(tc.gap)),
		}))
		if got := res.SessionCDF.Len(); got != tc.sessions {
			t.Errorf("gap %v: %d sessions, want %d", tc.gap, got, tc.sessions)
		}
	}
}

func TestGeoCensusTop8ASShare(t *testing.T) {
	// OTHER ranks first and is skipped; AS1..AS10 hold 10..1 nodes.
	ases := map[string]int{"OTHER": 100}
	for i := 1; i <= 10; i++ {
		ases[fmt.Sprintf("AS%d", i)] = 11 - i
	}
	gc := GeoCensusOf(map[string]int{"US": 155}, ases, map[string]int{})
	if want := 52.0 / 155; math.Abs(gc.Top8ASShare-want) > 1e-12 {
		t.Errorf("Top8ASShare %v, want %v (AS1..AS8)", gc.Top8ASShare, want)
	}
	if gc.Top8AllCloud {
		t.Error("no cloud AS, yet Top8AllCloud")
	}
}
