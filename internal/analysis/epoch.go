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

// member is one identity live in a window: how it last presented
// itself, and when.
type member struct {
	at     time.Time
	ip     string
	client string // the HELLO's client name; "" without one
	id     int32
	hello  bool
}

// fingerprint is how m presented itself: "ip|clientName" when a HELLO
// was decoded, bare "ip" otherwise.
func (m *member) fingerprint() string {
	if m.hello {
		return m.ip + "|" + m.client
	}
	return m.ip
}

// sameFingerprint reports m.fingerprint() == o.fingerprint(). With the
// '|' at the same offset in both, that is field equality; an IP
// containing '|' can spell another member's HELLO fingerprint, so
// otherwise, if the lengths agree, the strings are built and compared.
func (m *member) sameFingerprint(o *member) bool {
	if m.hello == o.hello && len(m.ip) == len(o.ip) {
		return m.ip == o.ip && m.client == o.client
	}
	return m.fingerprintLen() == o.fingerprintLen() && m.fingerprint() == o.fingerprint()
}

func (m *member) fingerprintLen() int {
	if m.hello {
		return len(m.ip) + 1 + len(m.client)
	}
	return len(m.ip)
}

// liveSet is one window's live identities, in the order they went
// live. pos[id] is 1 + identity id's index in members, 0 if it is not
// live here; reset clears it member by member, so a reused set
// observes and resets without hashing or allocating.
type liveSet struct {
	members []member
	pos     []int32
}

func (l *liveSet) reset() {
	for i := range l.members {
		l.pos[l.members[i].id] = 0
	}
	clear(l.members) // drop the strings
	l.members = l.members[:0]
}

// lookup returns identity id's member, or nil if it is not live here.
func (l *liveSet) lookup(id int32) *member {
	if int(id) >= len(l.pos) || l.pos[id] == 0 {
		return nil
	}
	return &l.members[l.pos[id]-1]
}

// observe is the live-fingerprint rule for an answered entry (HELLO or
// DISCONNECT, the paper's "responding" criterion) of identity id: it
// makes id live in the set, with the fingerprint of e. Later entries
// win; among equal timestamps, later log order wins, so the result is
// deterministic for a fixed entry sequence.
func (l *liveSet) observe(e *mlog.Entry, id int32) {
	if int(id) >= len(l.pos) {
		l.pos = append(l.pos, make([]int32, int(id)+1-len(l.pos))...)
	}
	m := l.lookup(id)
	switch {
	case m == nil:
		l.members = append(l.members, member{id: id})
		l.pos[id] = int32(len(l.members))
		m = &l.members[len(l.members)-1]
	case e.Time.Before(m.at):
		return
	}
	m.at, m.ip, m.hello, m.client = e.Time, e.IP, e.Hello != nil, ""
	if m.hello {
		m.client = e.Hello.ClientName
	}
}

// EpochFold computes the churn series incrementally. Add files an
// entry under its window; Seal closes windows in order, diffing each
// against its predecessor. The caller numbers identities densely, one
// number per node ID for the fold's lifetime (the census passes
// NodeObservation.Seq). Only the last sealed window's live set, the
// still-open windows' and one spare stay in memory, each costing a
// 64-byte member per identity live in it plus 4 bytes per identity
// number up to the highest it has seen: the live population, and 4
// bytes per identity ever numbered for each of those few sets.
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
	return &EpochFold{start: start, interval: interval, prev: &liveSet{}, open: map[int]*liveSet{}}
}

// window returns the index of the window t falls in; ok is false
// before the series start.
func (f *EpochFold) window(t time.Time) (w int, ok bool) {
	d := t.Sub(f.start)
	if d < 0 {
		return 0, false
	}
	return int(d / f.interval), true
}

// Add files e, the entry of identity number id, under its window; id
// is ignored for an entry without a node ID. It reports false when
// that window is already sealed: its published point stands, and e is
// left out of the series.
func (f *EpochFold) Add(e *mlog.Entry, id int) bool {
	w, ok := f.window(e.Time)
	if !ok {
		return true
	}
	if w < f.sealed {
		return false
	}
	if e.NodeID != "" && answered(e) {
		f.set(w).observe(e, int32(id))
	}
	return true
}

// set returns window w's live set, opening it, from the spare set if
// there is one, on first use.
func (f *EpochFold) set(w int) *liveSet {
	live := f.open[w]
	if live == nil {
		if live, f.spare = f.spare, nil; live == nil {
			live = &liveSet{}
		}
		f.open[w] = live
	}
	return live
}

// Seal closes, in order, every window below n that is not yet sealed
// and appends their points to points. Sealing fewer windows than are
// already sealed is a no-op.
func (f *EpochFold) Seal(n int, points []EpochPoint) []EpochPoint {
	for ; f.sealed < n; f.sealed++ {
		cur := f.set(f.sealed)
		delete(f.open, f.sealed)
		arrived, changed := 0, 0
		for i := range cur.members {
			m := &cur.members[i]
			switch p := f.prev.lookup(m.id); {
			case p == nil:
				arrived++
			case !m.sameFingerprint(p):
				changed++
			}
		}
		points = append(points, EpochPoint{
			Epoch:    f.sealed,
			Start:    f.start.Add(time.Duration(f.sealed) * f.interval),
			End:      f.start.Add(time.Duration(f.sealed+1) * f.interval),
			Alive:    len(cur.members),
			Arrived:  arrived,
			Departed: len(f.prev.members) - (len(cur.members) - arrived), // prev's members that did not stay
			Changed:  changed,
		})
		f.prev.reset()
		f.spare, f.prev = f.prev, cur
	}
	return points
}

// EpochSeries slices entries into `epochs` fixed intervals from start
// and produces the full churn series: the EpochFold run from scratch.
// One pass numbers the answered entries' identities and counts them by
// window, a second buckets them by window (log order kept within one),
// and the windows are folded one at a time: one map lookup per
// answered entry, 12 bytes per entry and two live sets of memory.
func EpochSeries(entries []*mlog.Entry, start time.Time, interval time.Duration, epochs int) []EpochPoint {
	if epochs <= 0 || interval <= 0 {
		return nil
	}
	f := NewEpochFold(start, interval)
	// filing[i] is entries[i]'s identity number and window; w < 0
	// leaves it out.
	type filed struct{ id, w int32 }
	filing := make([]filed, len(entries))
	ids := map[string]int32{}
	// Counting sort by window; ends[w] becomes the end of window w's
	// run in byWindow.
	ends := make([]int, epochs)
	for i, e := range entries {
		filing[i].w = -1
		if e.NodeID == "" || !answered(e) {
			continue
		}
		w, ok := f.window(e.Time)
		if !ok || w >= epochs {
			continue
		}
		id, seen := ids[e.NodeID]
		if !seen {
			id = int32(len(ids))
			ids[e.NodeID] = id
		}
		filing[i] = filed{id: id, w: int32(w)}
		ends[w]++
	}
	total := 0
	for w, n := range ends {
		ends[w] = total // the run's start, until the fill below advances it
		total += n
	}
	byWindow := make([]int32, total) // indexes into entries
	for i, fl := range filing {
		if fl.w >= 0 {
			byWindow[ends[fl.w]] = int32(i)
			ends[fl.w]++
		}
	}
	points := make([]EpochPoint, 0, epochs)
	from := 0
	for w, end := range ends {
		live := f.set(w)
		for _, i := range byWindow[from:end] {
			live.observe(entries[i], filing[i].id)
		}
		from = end
		points = f.Seal(w+1, points)
	}
	return points
}
