package analysis

import (
	"time"

	"repro/internal/nodefinder/mlog"
)

// Epoch snapshot-diff logic: the longitudinal census daemon
// (internal/census) slices the measurement log into fixed intervals
// ("epochs") and diffs consecutive intervals' live-identity sets into
// arrival/departure/change series. The functions here are pure over
// mlog entries, so a served series can be reconciled bit-for-bit
// against the raw log: the daemon and the auditor run the same code
// over the same records.

// EpochPoint is one finalized interval of the churn series.
type EpochPoint struct {
	// Epoch is the zero-based window index from the series start.
	Epoch int `json:"epoch"`
	// Start/End bound the window: [Start, End).
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Alive is the number of identities responsive in the window.
	Alive int `json:"alive"`
	// Arrived counts identities responsive in this window but not the
	// previous one (for epoch 0: all live identities).
	Arrived int `json:"arrived"`
	// Departed counts identities responsive in the previous window
	// but silent in this one.
	Departed int `json:"departed"`
	// Changed counts identities live in both windows whose observable
	// fingerprint (IP or client version) changed between them —
	// identity reuse with a new ENR address or an upgraded client.
	Changed int `json:"changed"`
}

// liveSet is one window's live identities: how each last presented
// itself, and when.
type liveSet struct {
	fp     map[string]string
	latest map[string]time.Time
}

func newLiveSet() *liveSet {
	return &liveSet{fp: map[string]string{}, latest: map[string]time.Time{}}
}

func (l *liveSet) reset() {
	clear(l.fp)
	clear(l.latest)
}

// observe is the live-fingerprint rule. An entry with a responsive
// record (HELLO or DISCONNECT, the paper's "responding" criterion)
// makes its identity live in the entry's window, with a fingerprint of
// how it presented itself: "ip|clientName" when a HELLO was decoded,
// bare "ip" otherwise. Later entries win; among equal timestamps,
// later log order wins, so the result is deterministic for a fixed
// entry sequence.
func (l *liveSet) observe(e *mlog.Entry) {
	if e.NodeID == "" || !answered(e) {
		return
	}
	if t, ok := l.latest[e.NodeID]; ok && e.Time.Before(t) {
		return
	}
	l.latest[e.NodeID] = e.Time
	fp := e.IP
	if e.Hello != nil {
		fp += "|" + e.Hello.ClientName
	}
	l.fp[e.NodeID] = fp
}

// LiveFingerprints returns the fingerprint (see liveSet.observe) of
// every identity live in [since, until).
func LiveFingerprints(entries []*mlog.Entry, since, until time.Time) map[string]string {
	live := newLiveSet()
	for _, e := range entries {
		if !e.Time.Before(since) && e.Time.Before(until) {
			live.observe(e)
		}
	}
	return live.fp
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

// EpochFold computes the churn series incrementally. Add files an
// entry under its window; Seal closes windows in order, diffing each
// against its predecessor. Only the last sealed window's live set and
// the still-open windows stay in memory, so the fold's footprint
// follows the live population, not the length of the log.
//
// Window i covers [start+i*interval, start+(i+1)*interval). The first
// window diffs against an empty set, so a crawl's opening burst shows
// up as arrivals; a window nothing answered in yields an all-zero
// Alive, not an error.
type EpochFold struct {
	start    time.Time
	interval time.Duration
	sealed   int              // windows [0, sealed) are closed
	prev     *liveSet         // window sealed-1
	open     map[int]*liveSet // windows >= sealed that have entries
	spare    *liveSet         // an emptied set, for the next window opened
}

// NewEpochFold starts a series at start with the given window width,
// which must be positive.
func NewEpochFold(start time.Time, interval time.Duration) *EpochFold {
	return &EpochFold{start: start, interval: interval, prev: newLiveSet(), open: map[int]*liveSet{}}
}

// window returns the index of the window e falls in; ok is false for
// an entry from before the series start.
func (f *EpochFold) window(e *mlog.Entry) (w int, ok bool) {
	if e.Time.Before(f.start) {
		return 0, false
	}
	return int(e.Time.Sub(f.start) / f.interval), true
}

// Add files e under its window. It reports false when that window is
// already sealed: its published point stands, and e is left out of the
// series.
func (f *EpochFold) Add(e *mlog.Entry) bool {
	w, ok := f.window(e)
	if !ok {
		return true
	}
	if w < f.sealed {
		return false
	}
	live := f.open[w]
	if live == nil {
		live = f.emptySet()
		f.open[w] = live
	}
	live.observe(e)
	return true
}

// emptySet hands out the spare set if there is one, else a new one.
func (f *EpochFold) emptySet() *liveSet {
	if s := f.spare; s != nil {
		f.spare = nil
		return s
	}
	return newLiveSet()
}

// Seal closes, in order, every window below n that is not yet sealed
// and appends their points to points. Sealing fewer windows than are
// already sealed is a no-op.
func (f *EpochFold) Seal(n int, points []EpochPoint) []EpochPoint {
	for ; f.sealed < n; f.sealed++ {
		cur := f.open[f.sealed]
		delete(f.open, f.sealed)
		if cur == nil {
			cur = f.emptySet()
		}
		arrived, departed, changed := DiffEpoch(f.prev.fp, cur.fp)
		points = append(points, EpochPoint{
			Epoch:    f.sealed,
			Start:    f.start.Add(time.Duration(f.sealed) * f.interval),
			End:      f.start.Add(time.Duration(f.sealed+1) * f.interval),
			Alive:    len(cur.fp),
			Arrived:  arrived,
			Departed: departed,
			Changed:  changed,
		})
		f.prev.reset()
		f.spare, f.prev = f.prev, cur
	}
	return points
}

// EpochSeries slices entries into `epochs` fixed intervals from start
// and produces the full churn series: the EpochFold run from scratch.
// Entries are first bucketed by window (one pass, log order kept
// within a window) and then folded one window at a time, so the whole
// series costs one pass over the log and two live sets of memory.
func EpochSeries(entries []*mlog.Entry, start time.Time, interval time.Duration, epochs int) []EpochPoint {
	if epochs <= 0 || interval <= 0 {
		return nil
	}
	f := NewEpochFold(start, interval)
	// Counting sort by window; ends[w] becomes the end of window w's
	// run in byWindow.
	ends := make([]int, epochs)
	for _, e := range entries {
		if w, ok := f.window(e); ok && w < epochs {
			ends[w]++
		}
	}
	total := 0
	for w, n := range ends {
		ends[w] = total // the run's start, until the fill below advances it
		total += n
	}
	byWindow := make([]*mlog.Entry, total)
	for _, e := range entries {
		if w, ok := f.window(e); ok && w < epochs {
			byWindow[ends[w]] = e
			ends[w]++
		}
	}
	points := make([]EpochPoint, 0, epochs)
	from := 0
	for w, end := range ends {
		for _, e := range byWindow[from:end] {
			f.Add(e)
		}
		from = end
		points = f.Seal(w+1, points)
	}
	return points
}
