package analysis

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/nodefinder/mlog"
)

// definitionSeries is the churn series as it is defined: every
// window's live set by a LiveFingerprints scan of the whole log,
// consecutive sets compared by DiffEpoch. EpochSeries must equal it.
func definitionSeries(entries []*mlog.Entry, start time.Time, interval time.Duration, epochs int) []EpochPoint {
	var points []EpochPoint
	prev := map[string]string{}
	for i := 0; i < epochs; i++ {
		since := start.Add(time.Duration(i) * interval)
		until := start.Add(time.Duration(i+1) * interval)
		cur := LiveFingerprints(entries, since, until)
		arrived, departed, changed := DiffEpoch(prev, cur)
		points = append(points, EpochPoint{Epoch: i, Start: since, End: until,
			Alive: len(cur), Arrived: arrived, Departed: departed, Changed: changed})
		prev = cur
	}
	return points
}

// randomLog is a log with everything the fold has to get right: few
// identities and coarse timestamps (so equal times and repeats are
// common), IP and client changes, DISCONNECT-only and failed entries,
// entries before the series start and past its end, a window nothing
// happens in, and entries without a node ID.
func randomLog(rng *rand.Rand, n, epochs int) []*mlog.Entry {
	clients := []string{"Geth/v1.8.10", "Geth/v1.8.11", "Parity/v1.10.6"}
	var entries []*mlog.Entry
	for len(entries) < n {
		w := rng.Intn(epochs+2) - 1
		if w == 3 {
			continue // window 3 stays empty
		}
		at := t0.Add(time.Duration(w)*epochInterval + time.Duration(rng.Intn(6))*5*time.Minute)
		id := fmt.Sprintf("n%02d", rng.Intn(25))
		ip := fmt.Sprintf("10.0.%d.%d", rng.Intn(2), rng.Intn(25))
		var e *mlog.Entry
		switch rng.Intn(5) {
		case 0:
			e = entry(id, ip, at)
			e.Err = "connection refused"
		case 1:
			e = disconnectEntry(id, ip, at)
		case 2:
			e = helloEntry("", ip, clients[0], nil, at)
		default:
			e = helloEntry(id, ip, clients[rng.Intn(len(clients))], []string{"eth/63"}, at)
		}
		entries = append(entries, e)
	}
	return entries
}

// TestEpochSeriesEqualsDefinition: the one-pass series equals the
// window-by-window definition on logs in arbitrary order.
func TestEpochSeriesEqualsDefinition(t *testing.T) {
	const epochs = 8
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		entries := randomLog(rng, 400, epochs)
		for shuffle := 0; shuffle < 3; shuffle++ {
			got := EpochSeries(entries, t0, epochInterval, epochs)
			want := definitionSeries(entries, t0, epochInterval, epochs)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d shuffle %d:\n got %+v\nwant %+v", seed, shuffle, got, want)
			}
			if got[3].Alive != 0 {
				t.Fatalf("seed %d: the empty window has %d alive", seed, got[3].Alive)
			}
			rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
		}
	}
}

// TestEpochFoldSealsInOrder: the fold fed tick by tick, the way the
// census daemon feeds it, produces the series EpochSeries produces
// from the whole log, and refuses entries for windows it has sealed.
func TestEpochFoldSealsInOrder(t *testing.T) {
	const epochs = 8
	entries := randomLog(rand.New(rand.NewSource(7)), 400, epochs)
	byWindow := map[int][]*mlog.Entry{}
	for _, e := range entries {
		w := int(e.Time.Sub(t0.Add(-epochInterval))/epochInterval) - 1
		byWindow[w] = append(byWindow[w], e)
	}
	f := NewEpochFold(t0, epochInterval)
	var points []EpochPoint
	for w := -1; w <= epochs; w++ {
		for _, e := range byWindow[w] {
			if !f.Add(e) {
				t.Fatalf("entry in open window %d reported late", w)
			}
		}
		points = f.Seal(w, points) // one window behind, as the daemon is
	}
	points = f.Seal(epochs, points)
	if want := EpochSeries(entries, t0, epochInterval, epochs); !reflect.DeepEqual(points, want) {
		t.Errorf("tick-by-tick fold:\n got %+v\nwant %+v", points, want)
	}

	if f.Add(helloEntry("zz", "10.9.9.9", "Geth/v1", nil, t0.Add(time.Minute))) {
		t.Error("an entry for sealed window 0 was not reported late")
	}
	if !f.Add(helloEntry("zz", "10.9.9.9", "Geth/v1", nil, t0.Add(-time.Minute))) {
		t.Error("an entry from before the series start was reported late; it is outside the grid")
	}
	if again := f.Seal(epochs-2, nil); again != nil {
		t.Errorf("re-sealing sealed windows produced %+v", again)
	}
	if open := len(f.open); open > 1 {
		t.Errorf("%d windows still open after sealing %d; only the one past the end may be", open, epochs)
	}
}

// TestAggregatorRetainsNoEntries: the fold's observations equal
// Aggregate's field for field, except that only Aggregate keeps the
// entries themselves.
func TestAggregatorRetainsNoEntries(t *testing.T) {
	entries := randomLog(rand.New(rand.NewSource(3)), 500, 8)
	a := NewAggregator()
	for _, e := range entries {
		a.Add(e)
	}
	want := Aggregate(entries)
	if len(a.Nodes()) != len(want) {
		t.Fatalf("%d identities folded, Aggregate has %d", len(a.Nodes()), len(want))
	}
	for id, o := range a.Nodes() {
		w := *want[id]
		if o.Entries != nil {
			t.Fatalf("%s: the fold retained %d entries", id, len(o.Entries))
		}
		if o.EntryCount != len(w.Entries) {
			t.Errorf("%s: EntryCount = %d, Aggregate kept %d entries", id, o.EntryCount, len(w.Entries))
		}
		w.Entries = nil
		if !reflect.DeepEqual(*o, w) {
			t.Errorf("%s:\n fold %+v\n want %+v", id, *o, w)
		}
	}
}
