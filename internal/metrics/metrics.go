// Package metrics is a small, dependency-free, allocation-light
// instrumentation library for the crawler's hot paths.
//
// Design constraints, in order:
//
//  1. Race-free under `go test -race`: every instrument is built on
//     sync/atomic; the only locks are the registry's (taken at
//     registration and snapshot time, never per-observation) and the
//     CounterVec label map's RWMutex (read-locked per lookup, but
//     callers are expected to resolve labels once and hold the
//     *Counter).
//  2. Near-zero cost when disabled: every instrument method is
//     nil-receiver-safe, and a nil *Registry hands out nil
//     instruments, so `counter.Inc()` on an unconfigured crawler is a
//     single predictable branch. Call sites never need to check.
//  3. No dependencies beyond the standard library, and no
//     allocations on the observation path.
//
// Instruments: Counter (monotonic), Gauge (settable), Histogram
// (fixed power-of-two buckets, suited to microsecond latencies
// spanning seven orders of magnitude), and CounterVec (a counter per
// label value, e.g. per mlog.ConnType).
package metrics

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero
// value is ready to use; a nil *Counter no-ops.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value that can go up and down. The zero
// value is ready to use; a nil *Gauge no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the value by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is one bucket per possible bit length of a uint64
// (bucket 0 holds exact zeros), giving fixed log-scale (power-of-two)
// bucket boundaries with no configuration and O(1) lock-free inserts.
const histBuckets = 65

// Histogram counts observations in fixed power-of-two buckets:
// bucket i (i ≥ 1) holds values v with 2^(i-1) ≤ v < 2^i; bucket 0
// holds v == 0. The observation count is the buckets' sum, so an
// Observe is two atomic adds. The zero value is ready to use; nil
// no-ops.
type Histogram struct {
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// ObserveDuration records a duration in microseconds (negative
// durations clamp to zero).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d.Microseconds()))
}

// Count returns the number of observations: the sum of the buckets.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Snapshot captures the histogram's current state. Under concurrent
// writers the bucket counts are each individually atomic and Count is
// their sum, so the two always agree; Sum may be mid-update, which is
// fine for telemetry.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{Sum: h.sum.Load()}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		s.Count += n
		s.Buckets = append(s.Buckets, Bucket{Le: bucketUpper(i), Count: n})
	}
	s.Quantiles = s.Summary()
	return s
}

// bucketUpper is the inclusive upper bound of bucket i.
func bucketUpper(i int) uint64 {
	if i == 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// HistogramSnapshot is a point-in-time copy of a Histogram. Only
// non-empty buckets are materialized. Quantiles carries the standard
// p50/p90/p99 summary so JSON consumers (the census /metrics
// endpoint) never re-derive bucket arithmetic.
type HistogramSnapshot struct {
	Count     uint64          `json:"count"`
	Sum       uint64          `json:"sum"`
	Quantiles QuantileSummary `json:"quantiles"`
	Buckets   []Bucket        `json:"buckets,omitempty"`
}

// QuantileSummary is the marshalable p50/p90/p99 digest of a
// histogram, in the histogram's native unit (microseconds for
// latency histograms).
type QuantileSummary struct {
	P50 uint64 `json:"p50"`
	P90 uint64 `json:"p90"`
	P99 uint64 `json:"p99"`
}

// Summary computes the standard quantile digest from the buckets.
func (s HistogramSnapshot) Summary() QuantileSummary {
	return QuantileSummary{
		P50: s.Quantile(0.50),
		P90: s.Quantile(0.90),
		P99: s.Quantile(0.99),
	}
}

// Bucket is one non-empty histogram bucket: Count observations with
// value ≤ Le (and greater than the previous bucket's bound).
type Bucket struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// Mean returns the arithmetic mean of all observations (0 if none).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) as the upper bound
// of the bucket where the cumulative count crosses q·Count. With
// power-of-two buckets the estimate is within 2× of the true value,
// which is enough to tell a 300 µs RTT from a 15 s timeout.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	// Nearest-rank: the smallest bucket whose cumulative count
	// reaches ceil(q·Count).
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= rank {
			return b.Le
		}
	}
	return s.Buckets[len(s.Buckets)-1].Le
}

// CounterVec is a family of counters keyed by one label value (for
// example, dial counts by mlog.ConnType). Resolve the label once
// with WithLabel and hold the *Counter on hot paths; Inc is the
// convenience form. A nil *CounterVec no-ops.
type CounterVec struct {
	mu sync.RWMutex
	m  map[string]*Counter
}

// WithLabel returns the counter for label, creating it on first use.
func (v *CounterVec) WithLabel(label string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	c := v.m[label]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c := v.m[label]; c != nil {
		return c
	}
	if v.m == nil {
		v.m = make(map[string]*Counter)
	}
	c = &Counter{}
	v.m[label] = c
	return c
}

// Inc adds one to the counter for label.
func (v *CounterVec) Inc(label string) { v.WithLabel(label).Inc() }

// Add adds n to the counter for label.
func (v *CounterVec) Add(label string, n uint64) { v.WithLabel(label).Add(n) }

// Values returns a copy of the current per-label counts.
func (v *CounterVec) Values() map[string]uint64 {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]uint64, len(v.m))
	for label, c := range v.m {
		out[label] = c.Value()
	}
	return out
}
