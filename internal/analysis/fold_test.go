package analysis

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/nodefinder/mlog"
)

// LiveFingerprints is the live-fingerprint rule by definition: the
// fingerprint of every identity live in [since, until), from a scan of
// the whole log. An entry with a responsive record (HELLO or
// DISCONNECT) makes its identity live, with the fingerprint
// "ip|clientName" when a HELLO was decoded and bare "ip" otherwise.
// Later entries win; among equal timestamps, later log order wins.
func LiveFingerprints(entries []*mlog.Entry, since, until time.Time) map[string]string {
	fps := map[string]string{}
	latest := map[string]time.Time{}
	for _, e := range entries {
		if e.NodeID == "" || !answered(e) || e.Time.Before(since) || !e.Time.Before(until) {
			continue
		}
		if t, ok := latest[e.NodeID]; ok && e.Time.Before(t) {
			continue
		}
		latest[e.NodeID] = e.Time
		fp := e.IP
		if e.Hello != nil {
			fp += "|" + e.Hello.ClientName
		}
		fps[e.NodeID] = fp
	}
	return fps
}

// DiffEpoch compares consecutive live-fingerprint sets: identities in
// cur but not prev arrived, identities in prev but not cur departed,
// and identities in both whose fingerprint differs changed.
func DiffEpoch(prev, cur map[string]string) (arrived, departed, changed int) {
	for id, fp := range cur {
		pfp, ok := prev[id]
		switch {
		case !ok:
			arrived++
		case pfp != fp:
			changed++
		}
	}
	for id := range prev {
		if _, ok := cur[id]; !ok {
			departed++
		}
	}
	return arrived, departed, changed
}

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

// idNumbers numbers node IDs in first-seen order, as the census does
// (NodeObservation.Seq), for feeding an EpochFold.
type idNumbers map[string]int

func (n idNumbers) of(e *mlog.Entry) int {
	id, ok := n[e.NodeID]
	if !ok {
		id = len(n)
		n[e.NodeID] = id
	}
	return id
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

// fingerprintCases are logs over windows 0 and 1, by name, on which a
// fingerprint comparison or the latest-wins rule is easy to get wrong.
func fingerprintCases() map[string][]*mlog.Entry {
	in := func(w int, minutes time.Duration) time.Time {
		return t0.Add(time.Duration(w)*epochInterval + minutes*time.Minute)
	}
	caps := []string{"eth/63"}
	return map[string][]*mlog.Entry{
		// "10.0.0.1|Geth/v1" both times: unchanged.
		"ip-spells-hello": {
			disconnectEntry("p", "10.0.0.1|Geth/v1", in(0, 1)),
			helloEntry("p", "10.0.0.1", "Geth/v1", caps, in(1, 1)),
		},
		"hello-spells-ip": {
			helloEntry("p", "10.0.0.1", "Geth/v1", caps, in(0, 1)),
			disconnectEntry("p", "10.0.0.1|Geth/v1", in(1, 1)),
		},
		"hellos-split-differently": {
			helloEntry("p", "10.0.0.1|a", "b", caps, in(0, 1)),
			helloEntry("p", "10.0.0.1", "a|b", caps, in(1, 1)),
		},
		"hello-appears-at-same-ip": {
			disconnectEntry("h", "10.0.0.2", in(0, 1)),
			helloEntry("h", "10.0.0.2", "Geth/v1", caps, in(1, 1)),
		},
		"hello-disappears-at-same-ip": {
			helloEntry("h", "10.0.0.2", "", caps, in(0, 1)),
			disconnectEntry("h", "10.0.0.2", in(1, 1)),
		},
		"client-and-ip-change": {
			helloEntry("c", "10.0.0.3", "Geth/v1", caps, in(0, 1)),
			helloEntry("c", "10.0.0.4", "Geth/v2", caps, in(1, 1)),
			helloEntry("k", "10.0.0.5", "Geth/v1", caps, in(0, 1)),
			helloEntry("k", "10.0.0.5", "Geth/v2", caps, in(1, 1)),
			helloEntry("m", "10.0.0.6", "Geth/v1", caps, in(0, 1)),
			helloEntry("m", "10.0.0.7", "Geth/v1", caps, in(1, 1)),
		},
		// Equal timestamps in window 0: the later record's fingerprint
		// is the one window 1 is compared with, and an earlier
		// timestamp logged after both changes nothing.
		"equal-times-later-wins": {
			helloEntry("t", "10.0.0.8", "Geth/v1", caps, in(0, 5)),
			helloEntry("t", "10.0.0.9", "Geth/v2", caps, in(0, 5)),
			helloEntry("t", "10.0.0.8", "Geth/v1", caps, in(0, 2)),
			helloEntry("t", "10.0.0.9", "Geth/v2", caps, in(1, 1)),
		},
		"equal-times-earlier-loses": {
			helloEntry("u", "10.0.0.10", "Geth/v1", caps, in(0, 5)),
			helloEntry("u", "10.0.0.11", "Geth/v2", caps, in(0, 5)),
			helloEntry("u", "10.0.0.10", "Geth/v1", caps, in(1, 1)),
		},
	}
}

// TestEpochSeriesEqualsDefinition: the one-pass series equals the
// window-by-window definition on logs in arbitrary order, and on the
// fingerprint edge cases.
func TestEpochSeriesEqualsDefinition(t *testing.T) {
	for name, entries := range fingerprintCases() {
		got := EpochSeries(entries, t0, epochInterval, 3)
		if want := definitionSeries(entries, t0, epochInterval, 3); !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got, want)
		}
	}
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
	ids := idNumbers{}
	var points []EpochPoint
	for w := -1; w <= epochs; w++ {
		for _, e := range byWindow[w] {
			if !f.Add(e, ids.of(e)) {
				t.Fatalf("entry in open window %d reported late", w)
			}
		}
		points = f.Seal(w, points) // one window behind, as the daemon is
	}
	points = f.Seal(epochs, points)
	if want := EpochSeries(entries, t0, epochInterval, epochs); !reflect.DeepEqual(points, want) {
		t.Errorf("tick-by-tick fold:\n got %+v\nwant %+v", points, want)
	}

	if e := helloEntry("zz", "10.9.9.9", "Geth/v1", nil, t0.Add(time.Minute)); f.Add(e, ids.of(e)) {
		t.Error("an entry for sealed window 0 was not reported late")
	}
	if e := helloEntry("zz", "10.9.9.9", "Geth/v1", nil, t0.Add(-time.Minute)); !f.Add(e, ids.of(e)) {
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

// TestEpochFoldSteadyStateAllocs: once the fold's sets have grown to
// the population, re-observing known identities in a window (half of
// them with a new client, so both diff outcomes run) and sealing it
// allocate nothing.
func TestEpochFoldSteadyStateAllocs(t *testing.T) {
	const population = 64
	clients := []string{"Geth/v1.8.10", "Geth/v1.8.11"}
	entries := make([]*mlog.Entry, population)
	for i := range entries {
		entries[i] = helloEntry(fmt.Sprintf("n%02d", i), fmt.Sprintf("10.0.0.%d", i), clients[0], nil, t0)
	}
	f := NewEpochFold(t0, epochInterval)
	points := make([]EpochPoint, 0, 1)
	w := 0
	window := func() {
		for id, e := range entries {
			e.Time = t0.Add(time.Duration(w)*epochInterval + time.Duration(id)*time.Second)
			if id%2 == 0 {
				e.Hello.ClientName = clients[w%2]
			}
			f.Add(e, id)
		}
		w++
		points = f.Seal(w, points[:0])
	}
	for i := 0; i < 3; i++ {
		window()
	}
	if allocs := testing.AllocsPerRun(50, window); allocs != 0 {
		t.Errorf("%.1f allocations per window of %d known identities, want 0", allocs, population)
	}
	if p := points[0]; p.Alive != population || p.Arrived != 0 || p.Departed != 0 || p.Changed != population/2 {
		t.Errorf("last window %+v, want %d alive, %d changed", p, population, population/2)
	}
}

// TestAggregateSortsAsBefore: Aggregate, which sorts only the nodes
// whose entries arrived out of time order, equals sorting every node's
// entries, order of Entries included, on shuffled and on time-sorted
// logs with ties.
func TestAggregateSortsAsBefore(t *testing.T) {
	reference := func(entries []*mlog.Entry) map[string]*NodeObservation {
		a := NewAggregator()
		for _, e := range entries {
			if o := a.Add(e); o != nil {
				o.Entries = append(o.Entries, e)
			}
		}
		for _, o := range a.nodes {
			sort.Slice(o.Entries, func(i, j int) bool { return o.Entries[i].Time.Before(o.Entries[j].Time) })
		}
		return a.nodes
	}
	for seed := int64(1); seed <= 10; seed++ {
		entries := randomLog(rand.New(rand.NewSource(seed)), 600, 8)
		sorted := slices.Clone(entries)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time.Before(sorted[j].Time) })
		for name, log := range map[string][]*mlog.Entry{"shuffled": entries, "sorted": sorted} {
			if got, want := Aggregate(log), reference(log); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %s log: Aggregate differs from sorting every node", seed, name)
			}
		}
	}
}
