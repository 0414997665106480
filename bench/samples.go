package bench

import (
	"math"
	"slices"
)

// Samples is an exact latency recorder: every observation is kept (as
// nanoseconds in a uint32, saturating at ~4.29 s), so a percentile is
// a real sample rather than a histogram bucket's upper bound. One
// Samples belongs to one goroutine; Merge joins them after the run.
// Preallocate with the expected count so recording never allocates on
// the measured path; observations beyond the capacity are counted in
// Dropped instead of growing the slice.
type Samples struct {
	v       []uint32
	sorted  bool
	Dropped int
}

// NewSamples preallocates room for n observations.
func NewSamples(n int) *Samples { return &Samples{v: make([]uint32, 0, n)} }

// Add records one duration in nanoseconds.
func (s *Samples) Add(ns int64) {
	if len(s.v) == cap(s.v) {
		s.Dropped++
		return
	}
	switch {
	case ns < 0:
		ns = 0
	case ns > math.MaxUint32:
		ns = math.MaxUint32
	}
	s.v = append(s.v, uint32(ns))
	s.sorted = false
}

// Len is the number of recorded observations.
func (s *Samples) Len() int { return len(s.v) }

// MergeSamples concatenates per-goroutine recorders into one.
func MergeSamples(parts ...*Samples) *Samples {
	n := 0
	for _, p := range parts {
		n += len(p.v)
	}
	out := &Samples{v: make([]uint32, 0, n)}
	for _, p := range parts {
		out.v = append(out.v, p.v...)
		out.Dropped += p.Dropped
	}
	return out
}

func (s *Samples) sort() {
	if !s.sorted {
		slices.Sort(s.v)
		s.sorted = true
	}
}

// Quantile returns the q-quantile in nanoseconds by linear
// interpolation between the two nearest order statistics (0 when
// empty).
func (s *Samples) Quantile(q float64) float64 {
	n := len(s.v)
	if n == 0 {
		return 0
	}
	s.sort()
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(s.v[lo])*(1-frac) + float64(s.v[hi])*frac
}

// MidMean is the mean of the observations between the 45th and 55th
// percentile: a median estimate that stays continuous when many
// observations share one clock tick, which a sub-microsecond
// operation's exact median does not.
func (s *Samples) MidMean() float64 {
	n := len(s.v)
	if n == 0 {
		return 0
	}
	s.sort()
	lo, hi := n*45/100, n*55/100
	if hi <= lo {
		return float64(s.v[n/2])
	}
	var sum float64
	for _, x := range s.v[lo:hi] {
		sum += float64(x)
	}
	return sum / float64(hi-lo)
}

// tailLadder is the fixed set of upper percentiles the bench reports.
var tailLadder = []float64{0.90, 0.99, 0.999, 0.9999}

// TopQuantile returns the highest percentile of the ladder (p90, p99,
// p99.9, p99.99) that still has at least ten samples beyond it, and
// ok=false when even p90 does not. The rule comes from the metrics
// guide: a tail with fewer than ten samples behind it is one outlier,
// not a measurement.
func (s *Samples) TopQuantile() (q float64, ok bool) {
	n := float64(len(s.v))
	for _, c := range tailLadder {
		if n*(1-c) >= 10 {
			q, ok = c, true
		}
	}
	return q, ok
}
