package census

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/nodefinder/mlog"
	"repro/internal/simclock"
)

// DefaultInterval is the paper's census cadence: the crawler's
// liveness analysis works on 30-minute windows.
const DefaultInterval = 30 * time.Minute

// DaemonConfig configures a census Daemon.
type DaemonConfig struct {
	// Clock drives the publish schedule. On a simulated clock the
	// daemon ticks in virtual time, which makes whole-crawl soak tests
	// deterministic.
	Clock simclock.Clock
	// Interval is the epoch width; 0 means DefaultInterval.
	Interval time.Duration
	// Geo resolves node IPs for the geography census; nil disables it.
	Geo *geo.DB
	// Metrics receives the daemon's own instruments; nil disables.
	Metrics *metrics.Registry
	// MaxPoints, when positive, bounds the served churn series to the
	// most recent windows.
	MaxPoints int
}

// Daemon ingests measurement-log entries (it is an mlog.Sink, meant
// to sit in a Tee next to the persistent log writer) and publishes an
// immutable Snapshot every interval. Publication is a single atomic
// pointer swap: readers calling Current never contend with the
// builder, and a reader holding an old snapshot keeps a fully
// consistent view until it drops it.
//
// The daemon keeps no log. Each publish folds the entries recorded
// since the previous one into its fold and lets them go, so a publish
// costs the new entries, one record per identity they name and the
// distinct census keys, and memory follows the population, however
// long the crawl runs.
type Daemon struct {
	cfg DaemonConfig

	// mu guards what Record and the lifecycle calls touch. It is never
	// held while a snapshot is built, so the crawler's log sink does not
	// wait for a publish.
	mu      sync.Mutex
	pending []*mlog.Entry
	start   time.Time // the epoch grid's origin; set once
	timer   simclock.Timer
	started bool
	stopped bool

	// pubMu serializes publishes (the tick against an out-of-band
	// Publish) and guards the state only a publish touches. Lock order:
	// pubMu, then mu.
	pubMu sync.Mutex
	epoch uint64
	fold  *fold
	spare []*mlog.Entry // the emptied batch buffer pending swaps with

	cur atomic.Pointer[Snapshot]

	recorded  *metrics.Counter
	late      *metrics.Counter
	published *metrics.Counter
	buildUS   *metrics.Histogram
	// Why a publish cost what it did: records rebuilt per publish, and
	// how many rebuilds moved a tally.
	touched *metrics.Histogram
	moved   *metrics.Counter
}

// NewDaemon creates a daemon; call Start to begin the tick schedule.
func NewDaemon(cfg DaemonConfig) *Daemon {
	if cfg.Clock == nil {
		cfg.Clock = simclock.System{}
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	d := &Daemon{
		cfg:       cfg,
		recorded:  cfg.Metrics.Counter("census.entries_recorded"),
		late:      cfg.Metrics.Counter("census.entries_late"),
		published: cfg.Metrics.Counter("census.snapshots_published"),
		buildUS:   cfg.Metrics.Histogram("census.build_us"),
		touched:   cfg.Metrics.Histogram("census.publish_touched"),
		moved:     cfg.Metrics.Counter("census.contributions_changed"),
	}
	cfg.Metrics.GaugeFunc("census.epoch", func() int64 {
		if s := d.Current(); s != nil {
			return int64(s.Epoch)
		}
		return -1
	})
	cfg.Metrics.GaugeFunc("census.identities", func() int64 {
		if s := d.Current(); s != nil {
			return int64(s.Totals.Identities)
		}
		return 0
	})
	return d
}

// Record implements mlog.Sink. Entries recorded before Start are
// buffered and included from the first snapshot onwards.
func (d *Daemon) Record(e *mlog.Entry) {
	d.mu.Lock()
	d.pending = append(d.pending, e)
	d.mu.Unlock()
	d.recorded.Inc()
}

// Start anchors the epoch grid at the clock's current time, publishes
// the epoch-0 snapshot immediately, and schedules the periodic ticks.
// Starting twice is a no-op; starting again after Stop resumes the
// ticks on the original grid, because sealed windows cannot be re-cut.
func (d *Daemon) Start() {
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		return
	}
	d.started = true
	d.stopped = false
	if d.start.IsZero() {
		d.start = d.cfg.Clock.Now()
	}
	d.timer = d.cfg.Clock.AfterFunc(d.cfg.Interval, d.tick)
	d.mu.Unlock()
	d.publish()
}

// Stop cancels the tick schedule. The last published snapshot stays
// current; Publish may still be called for a final out-of-band one.
func (d *Daemon) Stop() {
	d.mu.Lock()
	d.stopped = true
	d.started = false
	t := d.timer
	d.timer = nil
	d.mu.Unlock()
	if t != nil {
		t.Stop()
	}
}

// Current returns the latest snapshot, or nil before the first
// publish. It never blocks.
func (d *Daemon) Current() *Snapshot { return d.cur.Load() }

// Publish forces an out-of-band snapshot (the next epoch number) and
// returns it.
func (d *Daemon) Publish() *Snapshot {
	d.publish()
	return d.Current()
}

func (d *Daemon) tick() {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return
	}
	d.timer = d.cfg.Clock.AfterFunc(d.cfg.Interval, d.tick)
	d.mu.Unlock()
	d.publish()
}

func (d *Daemon) publish() {
	d.pubMu.Lock()
	defer d.pubMu.Unlock()

	d.mu.Lock()
	if d.start.IsZero() {
		// Publish before Start: anchor the grid here.
		d.start = d.cfg.Clock.Now()
	}
	batch := d.pending
	d.pending = d.spare
	start := d.start
	d.mu.Unlock()

	// now is behavioural time, on the injected clock: it decides which
	// windows are final. What the build cost is real time, whatever the
	// clock.
	now := d.cfg.Clock.Now()
	cost := simclock.StartStopwatch()
	if d.fold == nil {
		d.fold = newFold(start, d.cfg.Interval, d.cfg.Geo, d.cfg.MaxPoints)
	}
	for _, e := range batch {
		if !d.fold.add(e) {
			d.late.Inc()
		}
	}
	// Drop the entries: the buffer is reused, and must not pin them.
	clear(batch)
	d.spare = batch[:0]
	snap, touched, moved := d.fold.snapshot(d.epoch, now)
	d.epoch++
	d.buildUS.Observe(uint64(cost.Elapsed() / time.Microsecond))
	d.touched.Observe(uint64(touched))
	d.moved.Add(uint64(moved))
	d.cur.Store(snap)
	d.published.Inc()
}
