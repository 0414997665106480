package bench

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Boundary tracing. The benchmark measures the layers from outside the
// program: it wraps the seams the Finder is built from (Clock,
// Discovery, Dialer, Sink, DialFunc) and records a span around every
// call that crosses one. A span's self time is its duration minus the
// part covered by its child spans, so on a single-goroutine workload
// the self times of all span kinds partition the wall clock exactly.
//
// Two recording modes share one Tracer:
//
//   - a Thread is one goroutine's span stack. Children are by
//     construction nested inside their parent on the same goroutine,
//     so self time is computed incrementally and a 5-million-span
//     crawl costs two clock reads and a slice push per span;
//   - Flat records a duration with no parent, for callbacks that run
//     on goroutines the bench does not own (system-clock timers).
//
// Raw spans (name, start, end, parent, dial id) are kept only for a
// 1-in-sampleEvery sample of dials, which bounds memory at any crawl
// length; SelfTimes recomputes self time from raw spans by interval
// union, which also covers children recorded on other goroutines.

// Kind is an interned span name.
type Kind int

// sampleEvery is the dial sampling rate for raw spans.
const sampleEvery = 100

// Tracer aggregates spans from any number of threads.
type Tracer struct {
	// clock returns nanoseconds since the tracer was created; tests
	// replace it to make span arithmetic exact.
	clock func() int64

	mu     sync.Mutex
	names  []string
	byName map[string]Kind
	stats  []kindStats
	raw    []RawSpan
	nextTh int
}

type kindStats struct {
	count   int64
	totalNS int64
	selfNS  int64
	samples []uint32
}

func (k *kindStats) add(o *kindStats) {
	k.count += o.count
	k.totalNS += o.totalNS
	k.selfNS += o.selfNS
	k.samples = append(k.samples, o.samples...)
}

func (k *kindStats) observe(dur, self int64) {
	k.count++
	k.totalNS += dur
	k.selfNS += self
	if dur > 1<<32-1 {
		dur = 1<<32 - 1
	}
	k.samples = append(k.samples, uint32(dur))
}

// RawSpan is one recorded span of a sampled dial.
type RawSpan struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Thread int    `json:"thread"`
	Dial   uint64 `json:"dial"`
	// StartNS and EndNS are nanoseconds since the tracer was created.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// NewTracer creates an empty tracer; its clock starts now.
func NewTracer() *Tracer {
	epoch := time.Now()
	return &Tracer{clock: func() int64 { return int64(time.Since(epoch)) }, byName: map[string]Kind{}}
}

// Kind interns a span name. Resolve kinds once, outside hot paths.
//
// A nil *Tracer and the nil *Thread it hands out are valid and record
// nothing, so a workload's measured loop is written once for the traced
// and the untraced run.
func (t *Tracer) Kind(name string) Kind {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if k, ok := t.byName[name]; ok {
		return k
	}
	k := Kind(len(t.names))
	t.names = append(t.names, name)
	t.byName[name] = k
	t.stats = append(t.stats, kindStats{})
	return k
}

func (t *Tracer) now() int64 { return t.clock() }

// Scope is where a seam wrapper records its spans: a Thread when the
// wrapper always runs on one known goroutine, Flat otherwise.
type Scope interface {
	// Begin opens a span and returns its start time.
	Begin(k Kind) int64
	// End closes the span Begin opened; start is Begin's result.
	End(k Kind, start int64)
}

// Flat records parentless durations; safe for concurrent use.
type Flat struct{ t *Tracer }

// Flat returns the tracer's concurrent, non-nesting scope.
func (t *Tracer) Flat() Flat { return Flat{t} }

// Begin implements Scope.
func (f Flat) Begin(Kind) int64 { return f.t.now() }

// End implements Scope.
func (f Flat) End(k Kind, start int64) {
	d := f.t.now() - start
	f.t.mu.Lock()
	f.t.stats[k].observe(d, d)
	f.t.mu.Unlock()
}

// Thread is one goroutine's span stack. It may be handed from one
// goroutine to another but is used by one at a time. Close merges its
// statistics into the tracer.
type Thread struct {
	t     *Tracer
	id    int
	stack []frame
	stats []kindStats
	raw   []RawSpan
	// dial is the dial the innermost open span belongs to (0: none);
	// spans of sampled dials are also kept raw.
	dial uint64
	seq  uint64
}

type frame struct {
	kind     Kind
	start    int64
	childNS  int64
	id       uint64 // raw span id, 0 when not sampled
	prevDial uint64
}

// NewThread creates a span stack.
func (t *Tracer) NewThread() *Thread {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextTh++
	th := &Thread{t: t, id: t.nextTh, stats: make([]kindStats, len(t.names))}
	t.mu.Unlock()
	return th
}

// Begin implements Scope: it opens a span nested in the innermost open
// one.
func (th *Thread) Begin(k Kind) int64 {
	if th == nil {
		return 0
	}
	return th.begin(k, th.t.now(), th.dial)
}

// BeginDial opens a span that belongs to dial id (and makes its
// children belong to it too).
func (th *Thread) BeginDial(k Kind, dial uint64) {
	th.begin(k, th.t.now(), dial)
}

// BeginAt opens a span whose start was stamped earlier, typically on
// the goroutine that launched this one.
func (th *Thread) BeginAt(k Kind, start int64, dial uint64) {
	th.begin(k, start, dial)
}

func (th *Thread) begin(k Kind, start int64, dial uint64) int64 {
	f := frame{kind: k, start: start, prevDial: th.dial}
	th.dial = dial
	if dial != 0 && dial%sampleEvery == 0 {
		th.seq++
		f.id = uint64(th.id)<<40 | th.seq
	}
	th.stack = append(th.stack, f)
	return start
}

// End implements Scope: it closes the innermost open span.
func (th *Thread) End(Kind, int64) { th.Pop() }

// Pop closes the innermost open span and returns its duration.
func (th *Thread) Pop() int64 {
	if th == nil {
		return 0
	}
	end := th.t.now()
	n := len(th.stack) - 1
	f := th.stack[n]
	th.stack = th.stack[:n]
	dur := end - f.start
	if int(f.kind) >= len(th.stats) {
		th.stats = append(th.stats, make([]kindStats, int(f.kind)+1-len(th.stats))...)
	}
	th.stats[f.kind].observe(dur, dur-f.childNS)
	var parent uint64
	if n > 0 {
		th.stack[n-1].childNS += dur
		parent = th.stack[n-1].id
	}
	if f.id != 0 {
		th.raw = append(th.raw, RawSpan{
			Name: th.t.name(f.kind), ID: f.id, Parent: parent, Thread: th.id,
			Dial: th.dial, StartNS: f.start, EndNS: end,
		})
	}
	th.dial = f.prevDial
	return dur
}

func (t *Tracer) name(k Kind) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.names[k]
}

// Close merges the thread into its tracer. The thread must have no
// open spans.
func (th *Thread) Close() {
	if th == nil {
		return
	}
	t := th.t
	t.mu.Lock()
	for k := range th.stats {
		if th.stats[k].count > 0 {
			t.stats[k].add(&th.stats[k])
		}
	}
	t.raw = append(t.raw, th.raw...)
	t.mu.Unlock()
	th.stats, th.raw = nil, nil
}

// SpanStats is the aggregate of one span kind.
type SpanStats struct {
	Count  int64   `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
	P50US  float64 `json:"p50_us"`
	P99US  float64 `json:"p99_us"`
}

// Stats returns the per-name aggregates of every closed thread and
// flat observation.
func (t *Tracer) Stats() map[string]SpanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]SpanStats, len(t.names))
	for k, name := range t.names {
		st := &t.stats[k]
		if st.count == 0 {
			continue
		}
		s := &Samples{v: st.samples}
		out[name] = SpanStats{
			Count:  st.count,
			TotalS: float64(st.totalNS) / 1e9,
			SelfS:  float64(st.selfNS) / 1e9,
			P50US:  s.Quantile(0.50) / 1e3,
			P99US:  s.Quantile(0.99) / 1e3,
		}
	}
	return out
}

// Spans is the number of spans recorded so far.
func (t *Tracer) Spans() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for k := range t.stats {
		n += t.stats[k].count
	}
	return n
}

// TraceFile is the schema of bench/out/trace-<workload>.json.
type TraceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// WallS is the traced measured phase's wall time.
	WallS float64 `json:"wall_s"`
	// Spans aggregates every span by name; Raw holds the spans of one
	// dial in every SampleEvery, sorted by start time.
	Spans       map[string]SpanStats `json:"spans"`
	SampleEvery int                  `json:"sample_every"`
	Raw         []RawSpan            `json:"raw"`
}

// WriteFile writes the trace to path.
func (t *Tracer) WriteFile(path, workload string, seed int64, wallS float64) error {
	t.mu.Lock()
	raw := append([]RawSpan(nil), t.raw...)
	t.mu.Unlock()
	sort.Slice(raw, func(i, j int) bool { return raw[i].StartNS < raw[j].StartNS })
	buf, err := json.MarshalIndent(TraceFile{
		Workload: workload, Seed: seed, WallS: wallS,
		Spans: t.Stats(), SampleEvery: sampleEvery, Raw: raw,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// SelfTimes computes every raw span's self time in nanoseconds: its
// duration minus the union of its children's intervals, clipped to the
// span. Unlike a thread's running total it makes no assumption about
// where the children ran, so children on other goroutines that overlap
// each other are not counted twice.
func SelfTimes(spans []RawSpan) map[uint64]int64 {
	type iv struct{ a, b int64 }
	kids := map[uint64][]iv{}
	byID := map[uint64]RawSpan{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		a, b := max(s.StartNS, p.StartNS), min(s.EndNS, p.EndNS)
		if b > a {
			kids[p.ID] = append(kids[p.ID], iv{a, b})
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, end int64
		end = s.StartNS
		for _, c := range ivs {
			if c.b <= end {
				continue
			}
			covered += c.b - max(c.a, end)
			end = c.b
		}
		out[s.ID] = s.EndNS - s.StartNS - covered
	}
	return out
}
