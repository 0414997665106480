package nodefinder

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/devp2p"
	"repro/internal/eth"
	"repro/internal/metrics"
	"repro/internal/nodefinder/mlog"
	"repro/internal/rlpx"
	"repro/internal/simclock"
	"repro/internal/snappy"
)

// counterRow builds a result of one outcome class, with or without a
// HELLO. want is the class it lands in without and with the HELLO:
// only the handshake classes depend on it.
type counterRow struct {
	err    error
	disc   *devp2p.DisconnectReason
	status bool
	want   [2]string
}

// counterRows has one row per Outcome.
func counterRows() []counterRow {
	same := func(class string) [2]string { return [2]string{class, class} }
	tooMany, requested := devp2p.DiscTooManyPeers, devp2p.DiscRequested
	return []counterRow{
		{err: rlpx.ErrBadHeaderMAC, want: same("rlpx-bad-mac")},
		{err: rlpx.ErrFrameTooBig, want: same("frame-oversize")},
		{err: devp2p.ErrMsgTooBig, want: same("msg-oversize")},
		{err: snappy.ErrCorrupt, want: same("snappy-corrupt")},
		{err: eth.ErrNoStatus, want: same("protocol-violation")},
		{err: devp2p.ErrNoCommonProtocol, want: same("no-common-caps")},
		{err: eth.ErrNetworkMismatch, want: same("status-mismatch")},
		{err: rlpx.ErrBadHandshake, want: same("rlpx-bad-handshake")},
		{err: errors.New("rlpx: reading handshake size: i/o timeout"), want: same("handshake-timeout")},
		{err: errors.New("read: i/o timeout"), want: same("tcp-timeout")},
		{err: errors.New("connect: connection refused"), want: same("tcp-refused")},
		{err: errors.New("read: connection reset by peer"), want: same("tcp-reset")},
		{err: errors.New("rlpx: short ack"), want: same("rlpx-error")},
		{err: errors.New("devp2p: decoding hello: bad list"), want: same("rlp-malformed")},
		{err: errors.New("something else"), want: same("error-other")},
		{disc: &tooMany, want: same("too-many-peers")},
		{disc: &requested, want: same("disconnected")},
		{status: true, want: same("eth-handshake")},
		{want: [2]string{"no-handshake", "hello-no-eth"}},
	}
}

func (r counterRow) result(kind mlog.ConnType, hello bool) *DialResult {
	res := &DialResult{Kind: kind, Err: r.err, Disconnect: r.disc}
	if r.status {
		res.Status = &eth.Status{}
	}
	if hello {
		res.Hello = &devp2p.Hello{}
	}
	return res
}

// counterKinds are mlog's connection types plus one no slot is
// resolved for, which takes the CounterVec's own path.
var counterKinds = []mlog.ConnType{mlog.ConnDynamicDial, mlog.ConnStaticDial, mlog.ConnIncoming, "unlisted"}

// counterOracle counts a result the way the instruments are specified
// to, in a plain map keyed like a snapshot's counters.
type counterOracle map[string]uint64

func (o counterOracle) count(res *DialResult, class string) {
	kind := string(res.Kind)
	o["finder.conns{"+kind+"}"]++
	if res.Hello != nil {
		o["finder.conns_ok{"+kind+"}"]++
	} else {
		o["finder.conns_failed{"+kind+"}"]++
	}
	if res.Err != nil || res.Hello == nil {
		o["finder.conn_errors{"+class+"}"]++
	}
	if res.Kind != mlog.ConnIncoming {
		o["dialer.outcomes{"+class+"}"]++
	}
}

// diff lists the counters where got departs from the oracle, a label
// present in one and not the other included, or returns "".
func (o counterOracle) diff(got counterOracle) string {
	var names []string
	for name := range o {
		names = append(names, name)
	}
	for name := range got {
		if _, ok := o[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var out []string
	for _, name := range names {
		g, inGot := got[name]
		w, inWant := o[name]
		if g != w || inGot != inWant {
			out = append(out, fmt.Sprintf("%s = %d (shown %v), want %d (shown %v)", name, g, inGot, w, inWant))
		}
	}
	return strings.Join(out, "; ")
}

// connCounters is the part of a snapshot the oracle models: every
// label of the four per-connection families and dialer.outcomes.
func connCounters(reg *metrics.Registry) counterOracle {
	got := counterOracle{}
	for name, n := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, "finder.conn") || strings.HasPrefix(name, "dialer.outcomes{") {
			got[name] = n
		}
	}
	return got
}

// counterFinder is a Finder and a DialerMetrics on one registry.
func counterFinder(t *testing.T, reg *metrics.Registry) (*Finder, *DialerMetrics) {
	w := newFakeWorld(simclock.NewSimulated(t0), 0)
	f, err := New(Config{Clock: w.clock, Discovery: w, Dialer: w, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	return f, NewDialerMetrics(reg)
}

// observeAs feeds res to the instruments the way the crawler does: an
// outbound dial through the dialer's Observe and then the Finder's
// record, on the dialing goroutine; an incoming one through
// HandleIncoming.
func observeAs(f *Finder, dm *DialerMetrics, res *DialResult) {
	if res.Kind == mlog.ConnIncoming {
		f.HandleIncoming(res)
		return
	}
	dm.Observe(res)
	f.record(res, "", "")
}

// TestConnCountersMatchOracle holds finder.conns, conns_ok,
// conns_failed, conn_errors and dialer.outcomes to their rules for
// every ConnType × Outcome × HELLO present or absent: after each
// result the snapshot equals a plain-map count of the same results,
// label for label, so a label appears exactly when it is first
// counted, and no two labels share a counter.
func TestConnCountersMatchOracle(t *testing.T) {
	rows := counterRows()
	classes := map[string]bool{}
	for _, row := range rows {
		classes[row.want[0]], classes[row.want[1]] = true, true
	}
	for o := Outcome(1); o < numOutcomes; o++ {
		if !classes[o.String()] {
			t.Errorf("no row lands in %v", o)
		}
	}
	reg := metrics.New()
	f, dm := counterFinder(t, reg)
	want := counterOracle{}
	for _, kind := range counterKinds {
		for _, row := range rows {
			for hello := 0; hello < 2; hello++ {
				res := row.result(kind, hello == 1)
				observeAs(f, dm, res)
				want.count(res, row.want[hello])
				if diff := want.diff(connCounters(reg)); diff != "" {
					t.Fatalf("after a result of kind %s, class %s, HELLO %v: %s", kind, row.want[hello], hello == 1, diff)
				}
			}
		}
	}
}

// TestConnCountersConcurrent runs the oracle's results from several
// dialing goroutines, an inbound one and a snapshot reader at once.
// Under the race detector it is the proof that the counters resolved
// on first use are published safely; in any mode the totals must
// equal the oracle's.
func TestConnCountersConcurrent(t *testing.T) {
	const dialers, rounds = 4, 20
	rows := counterRows()
	reg := metrics.New()
	f, dm := counterFinder(t, reg)
	feed := func(kinds []mlog.ConnType) {
		for i := 0; i < rounds; i++ {
			for _, kind := range kinds {
				for _, row := range rows {
					observeAs(f, dm, row.result(kind, i%2 == 1))
				}
			}
		}
	}
	outbound := []mlog.ConnType{mlog.ConnDynamicDial, mlog.ConnStaticDial}
	var wg sync.WaitGroup
	for g := 0; g < dialers; g++ {
		wg.Add(1)
		go func() { defer wg.Done(); feed(outbound) }()
	}
	wg.Add(1)
	go func() { defer wg.Done(); feed([]mlog.ConnType{mlog.ConnIncoming}) }()
	stop := make(chan struct{})
	snapped := make(chan struct{})
	go func() {
		defer close(snapped)
		for {
			select {
			case <-stop:
				return
			default:
				reg.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-snapped

	want := counterOracle{}
	for i := 0; i < rounds; i++ {
		for _, kind := range append(outbound, mlog.ConnIncoming) {
			times := dialers
			if kind == mlog.ConnIncoming {
				times = 1
			}
			for _, row := range rows {
				for n := 0; n < times; n++ {
					res := row.result(kind, i%2 == 1)
					want.count(res, row.want[i%2])
				}
			}
		}
	}
	if diff := want.diff(connCounters(reg)); diff != "" {
		t.Fatalf("after concurrent observation: %s", diff)
	}
}

// TestNilInstrumentsDoNotClassify: with no registry neither the
// dialer's instruments nor the Finder's classify a result.
func TestNilInstrumentsDoNotClassify(t *testing.T) {
	f, dm := counterFinder(t, nil)
	for _, kind := range counterKinds {
		for _, row := range counterRows() {
			res := row.result(kind, false)
			observeAs(f, dm, res)
			if res.outcome != 0 {
				t.Fatalf("%s result of class %s classified as %v with no registry", kind, row.want[0], res.outcome)
			}
		}
	}
	var nilMetrics *DialerMetrics
	res := &DialResult{Err: fmt.Errorf("x")}
	nilMetrics.Observe(res)
	if res.outcome != 0 {
		t.Fatalf("a nil DialerMetrics classified a result as %v", res.outcome)
	}
}
