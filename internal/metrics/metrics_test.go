package metrics

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentHammer drives every instrument kind from many
// goroutines; run under -race this is the package's primary
// correctness gate, and the final values check that no increment is
// lost.
func TestConcurrentHammer(t *testing.T) {
	const (
		workers = 16
		rounds  = 2000
	)
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hammer.counter")
			g := r.Gauge("hammer.gauge")
			h := r.Histogram("hammer.hist")
			v := r.CounterVec("hammer.vec")
			for i := 0; i < rounds; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(uint64(i))
				if w%2 == 0 {
					v.Inc("even")
				} else {
					v.WithLabel("odd").Inc()
				}
				// Interleave snapshots to race reads against writes.
				if i%500 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()

	want := uint64(workers * rounds)
	if got := r.Counter("hammer.counter").Value(); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got := r.Gauge("hammer.gauge").Value(); got != int64(want) {
		t.Errorf("gauge = %d, want %d", got, want)
	}
	if got := r.Histogram("hammer.hist").Count(); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
	vec := r.CounterVec("hammer.vec").Values()
	if got := vec["even"] + vec["odd"]; got != want {
		t.Errorf("vec sum = %d, want %d", got, want)
	}
}

// TestSnapshotDeterminism checks that snapshots taken with no
// intervening writes are identical, both structurally and as encoded
// JSON bytes.
func TestSnapshotDeterminism(t *testing.T) {
	r := New()
	r.Counter("a").Add(3)
	r.CounterVec("dials").Add("static-dial", 7)
	r.CounterVec("dials").Add("dynamic-dial", 9)
	r.Gauge("known").Set(-4)
	r.GaugeFunc("computed", func() int64 { return 42 })
	h := r.Histogram("lat")
	h.Observe(0)
	h.Observe(100)
	h.Observe(100000)

	s1, s2 := r.Snapshot(), r.Snapshot()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("snapshots differ:\n%#v\n%#v", s1, s2)
	}
	j1, err := json.Marshal(s1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(s2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("JSON encodings differ:\n%s\n%s", j1, j2)
	}

	var buf1, buf2 bytes.Buffer
	if _, err := s1.WriteTo(&buf1); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf1.String() != buf2.String() {
		t.Fatalf("human encodings differ:\n%s\n%s", buf1.String(), buf2.String())
	}
	if !strings.Contains(buf1.String(), "dials{static-dial}") {
		t.Errorf("human output missing vec member:\n%s", buf1.String())
	}
}

// TestJSONRoundTrip encodes a snapshot and decodes it back into an
// identical structure.
func TestJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("conns").Add(123)
	r.CounterVec("errs").Add("tcp-timeout", 5)
	r.Gauge("table").Set(256)
	h := r.Histogram("rtt_us")
	for _, v := range []uint64{1, 2, 3, 500, 80000, 15_000_000} {
		h.Observe(v)
	}
	orig := r.Snapshot()

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, &decoded) {
		t.Fatalf("round trip mismatch:\norig    %#v\ndecoded %#v", orig, &decoded)
	}
}

// TestNilSafety exercises the disabled path: a nil registry hands
// out nil instruments whose methods all no-op.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(10)
	if c.Value() != 0 {
		t.Error("nil counter retained a value")
	}
	g := r.Gauge("y")
	g.Set(5)
	g.Add(1)
	if g.Value() != 0 {
		t.Error("nil gauge retained a value")
	}
	h := r.Histogram("z")
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if h.Count() != 0 || h.Snapshot().Count != 0 {
		t.Error("nil histogram retained observations")
	}
	v := r.CounterVec("w")
	v.Inc("a")
	v.WithLabel("b").Add(2)
	if v.Values() != nil {
		t.Error("nil vec retained values")
	}
	r.GaugeFunc("f", func() int64 { return 1 })
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Errorf("nil registry snapshot not empty: %#v", s)
	}
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil registry wrote output: %q", buf.String())
	}
}

// TestHistogramShape checks bucket boundaries, mean, and quantile
// estimates against known observations.
func TestHistogramShape(t *testing.T) {
	var h Histogram
	h.Observe(0)    // bucket 0 (le 0)
	h.Observe(1)    // bucket 1 (le 1)
	h.Observe(7)    // bucket 3 (le 7)
	h.Observe(1000) // bucket 10 (le 1023)
	s := h.Snapshot()
	if s.Count != 4 || s.Sum != 1008 {
		t.Fatalf("count=%d sum=%d, want 4/1008", s.Count, s.Sum)
	}
	wantBuckets := []Bucket{{0, 1}, {1, 1}, {7, 1}, {1023, 1}}
	if !reflect.DeepEqual(s.Buckets, wantBuckets) {
		t.Fatalf("buckets = %v, want %v", s.Buckets, wantBuckets)
	}
	if m := s.Mean(); m != 252 {
		t.Errorf("mean = %v, want 252", m)
	}
	if q := s.Quantile(0); q != 0 {
		t.Errorf("p0 = %d, want 0", q)
	}
	if q := s.Quantile(0.99); q != 1023 {
		t.Errorf("p99 = %d, want 1023", q)
	}
	if q := s.Quantile(0.5); q != 1 {
		t.Errorf("p50 = %d, want 1", q)
	}
}

// TestHistogramCountIsBucketSum takes snapshots while writers observe:
// every snapshot's Count must equal the sum of its buckets, mid-update
// or not, and the final count must lose no observation.
func TestHistogramCountIsBucketSum(t *testing.T) {
	const (
		writers = 4
		rounds  = 5000
	)
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				h.Observe(uint64(i))
			}
		}()
	}
	check := func(s HistogramSnapshot) {
		var sum uint64
		for _, b := range s.Buckets {
			sum += b.Count
		}
		if s.Count != sum {
			t.Fatalf("snapshot count %d, bucket sum %d", s.Count, sum)
		}
	}
	for i := 0; i < 200; i++ {
		check(h.Snapshot())
	}
	wg.Wait()
	s := h.Snapshot()
	check(s)
	if s.Count != writers*rounds || h.Count() != writers*rounds {
		t.Fatalf("count %d (Count() %d), want %d", s.Count, h.Count(), writers*rounds)
	}
}

// TestCounterSum checks vec-family addressing in snapshots.
func TestCounterSum(t *testing.T) {
	r := New()
	r.CounterVec("finder.conns").Add("dynamic-dial", 10)
	r.CounterVec("finder.conns").Add("static-dial", 5)
	r.CounterVec("finder.conns").Add("incoming", 2)
	r.Counter("finder.connsX").Add(100) // must NOT match the family
	s := r.Snapshot()
	if got := s.CounterSum("finder.conns"); got != 17 {
		t.Errorf("CounterSum = %d, want 17", got)
	}
	if got := s.Counter("finder.conns{static-dial}"); got != 5 {
		t.Errorf("member lookup = %d, want 5", got)
	}
}

// TestRegistryIdentity confirms the registry hands back the same
// instrument for the same name.
func TestRegistryIdentity(t *testing.T) {
	r := New()
	if r.Counter("c") != r.Counter("c") {
		t.Error("Counter not idempotent")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("Gauge not idempotent")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Error("Histogram not idempotent")
	}
	if r.CounterVec("v") != r.CounterVec("v") {
		t.Error("CounterVec not idempotent")
	}
	v := r.CounterVec("v")
	if v.WithLabel("l") != v.WithLabel("l") {
		t.Error("WithLabel not idempotent")
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkCounterIncDisabled(b *testing.B) {
	var c *Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.RunParallel(func(pb *testing.PB) {
		i := uint64(0)
		for pb.Next() {
			h.Observe(i)
			i++
		}
	})
}

func BenchmarkVecResolvedInc(b *testing.B) {
	r := New()
	c := r.CounterVec("v").WithLabel("dynamic-dial")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}
