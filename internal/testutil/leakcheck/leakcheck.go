// Package leakcheck provides a goroutine-leak checker for integration
// tests: it snapshots the goroutines alive when a test starts and, at
// cleanup, fails the test if new ones are still running after a retry
// window.
//
// The crawler's robustness story depends on this: a hostile peer that
// stalls a handshake or trickles bytes must cost the crawler a
// bounded amount of time, never a leaked goroutine. Every integration
// test that opens sockets (nodefinder, rlpx, simnet, faultnet, and
// the commands and examples that crawl) installs the checker so a regression in any teardown path
// is caught where it is introduced.
//
// The comparison is a snapshot diff of runtime stacks keyed by
// creation site, filtered against an allowlist of runtime- and
// testing-owned goroutines that come and go on their own. Goroutines
// need time to unwind after Close, so the checker polls until the
// diff is empty or the retry window (default 5 s) elapses.
package leakcheck

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"
)

// ignoredSubstrings mark goroutine stacks that are not leaks: the
// runtime's own workers, the testing framework, and net pollers that
// the runtime parks lazily.
var ignoredSubstrings = []string{
	"testing.(*T).Run",
	"testing.(*M).",
	"testing.runTests",
	"testing.runFuzzing",
	"testing.tRunner",
	"runtime.goexit",
	"runtime.gc",
	"runtime.MHeap_Scavenger",
	"runtime/trace.Start",
	"signal.signal_recv",
	"created by runtime.gc",
	"created by testing.RunTests",
}

// interestingGoroutines returns the stack header line ("goroutine N
// [state]:" stripped to the creation identity) of every goroutine
// that is not on the allowlist, keyed so identical stacks compare
// equal across snapshots.
func interestingGoroutines() []string {
	buf := make([]byte, 2<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
nextG:
	for _, g := range strings.Split(string(buf), "\n\n") {
		stack := strings.TrimSpace(g)
		if stack == "" {
			continue
		}
		for _, ignore := range ignoredSubstrings {
			if strings.Contains(stack, ignore) {
				continue nextG
			}
		}
		// Key by everything after the header line: the header's
		// goroutine ID and run state churn between snapshots for the
		// same (possibly parked) goroutine.
		if i := strings.Index(stack, "\n"); i >= 0 {
			stack = stack[i+1:]
		}
		out = append(out, stack)
	}
	sort.Strings(out)
	return out
}

// TB is the subset of *testing.T the checker needs; it keeps the
// package usable from fuzz targets and benchmarks too.
type TB interface {
	Cleanup(func())
	Errorf(format string, args ...any)
	Failed() bool
	Helper()
}

// Option tweaks a Check.
type Option func(*opts)

type opts struct {
	window time.Duration
}

// Window overrides how long the checker retries before declaring the
// surviving goroutines leaked.
func Window(d time.Duration) Option {
	return func(o *opts) { o.window = d }
}

// Check snapshots the current goroutines and registers a cleanup that
// fails t if goroutines created during the test outlive it. Call it
// first thing in any test that starts listeners, dialers, or nodes.
// A test that has already failed gets its survivors reported at once:
// its teardown may never stop them, and waiting out the window would
// only delay the failure.
func Check(t TB, options ...Option) {
	t.Helper()
	o := opts{window: 5 * time.Second}
	for _, opt := range options {
		opt(&o)
	}
	before := interestingGoroutines()
	t.Cleanup(func() {
		window := o.window
		if t.Failed() {
			window = 0
		}
		leaked := diffRetry(before, window)
		if len(leaked) == 0 {
			return
		}
		t.Errorf("leakcheck: %s", FormatLeaks(leaked))
	})
}

// FormatLeaks renders leaked stacks for a test failure. Stacks whose
// creator is the runtime's timer machinery ("created by time.goFunc")
// get an extra header naming the callback frame that is actually
// stuck: the creation site the runtime reports for timer goroutines
// is inside package time and points at no repo code, which makes raw
// dumps of leaked AfterFunc callbacks nearly undebuggable.
func FormatLeaks(leaked []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d goroutine(s) leaked:", len(leaked))
	for _, stack := range leaked {
		b.WriteString("\n\n")
		if site, ok := timerCallbackSite(stack); ok {
			fmt.Fprintf(&b, "[timer-driven goroutine; stuck callback: %s]\n", site)
		}
		b.WriteString(stack)
	}
	return b.String()
}

// timerCallbackSite extracts "func (file:line)" for the top frame of
// a stack created by time.goFunc — the timer callback itself.
func timerCallbackSite(stack string) (string, bool) {
	if !strings.Contains(stack, "created by time.goFunc") {
		return "", false
	}
	lines := strings.Split(stack, "\n")
	if len(lines) < 2 {
		return "", false
	}
	fn := strings.TrimSpace(lines[0])
	if i := strings.Index(fn, "("); i > 0 {
		fn = fn[:i]
	}
	loc := strings.TrimSpace(lines[1])
	if i := strings.Index(loc, " +0x"); i > 0 {
		loc = loc[:i]
	}
	return fmt.Sprintf("%s (%s)", fn, loc), true
}

// diffRetry polls the goroutine diff until it drains or the window
// elapses, returning the survivors.
func diffRetry(before []string, window time.Duration) []string {
	deadline := time.Now().Add(window)
	for {
		leaked := diff(before, interestingGoroutines())
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// diff returns the stacks in after that have no matching stack left
// in before (multiset subtraction).
func diff(before, after []string) []string {
	remaining := make(map[string]int, len(before))
	for _, s := range before {
		remaining[s]++
	}
	var leaked []string
	for _, s := range after {
		if remaining[s] > 0 {
			remaining[s]--
			continue
		}
		leaked = append(leaked, s)
	}
	return leaked
}

// Snapshot returns the current interesting goroutine count; tests
// asserting absolute hygiene (e.g. the chaos harness between phases)
// can log it.
func Snapshot() int { return len(interestingGoroutines()) }

// String renders the current interesting goroutines for debugging.
func String() string {
	return fmt.Sprintf("%d interesting goroutines:\n%s",
		len(interestingGoroutines()), strings.Join(interestingGoroutines(), "\n\n"))
}
