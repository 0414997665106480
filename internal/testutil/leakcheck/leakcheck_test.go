package leakcheck

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// recorder implements TB and captures failures instead of failing.
type recorder struct {
	cleanups []func()
	failures []string
	failed   bool // the "test" failed before its cleanups ran
}

func (r *recorder) Cleanup(fn func()) { r.cleanups = append(r.cleanups, fn) }
func (r *recorder) Errorf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}
func (r *recorder) Failed() bool { return r.failed || len(r.failures) > 0 }
func (r *recorder) Helper()      {}
func (r *recorder) runCleanups() {
	for _, fn := range r.cleanups {
		fn()
	}
}

func TestCleanTestPasses(t *testing.T) {
	rec := &recorder{}
	Check(rec, Window(100*time.Millisecond))
	rec.runCleanups()
	if len(rec.failures) != 0 {
		t.Fatalf("clean test flagged as leaking: %v", rec.failures)
	}
}

func TestLeakedGoroutineDetected(t *testing.T) {
	rec := &recorder{}
	Check(rec, Window(200*time.Millisecond))
	stop := make(chan struct{})
	go func() { <-stop }() // deliberately outlives the "test"
	rec.runCleanups()
	close(stop)
	if len(rec.failures) == 0 {
		t.Fatal("leaked goroutine not detected")
	}
}

// TestFailedTestSkipsWindow: a test that already failed reports its
// survivors without waiting out the retry window.
func TestFailedTestSkipsWindow(t *testing.T) {
	rec := &recorder{failed: true}
	Check(rec, Window(time.Minute))
	stop := make(chan struct{})
	defer close(stop)
	go func() { <-stop }()
	start := time.Now()
	rec.runCleanups()
	if len(rec.failures) == 0 {
		t.Fatal("leaked goroutine not reported")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("cleanup of a failed test waited %v", waited)
	}
}

func TestSlowExitWithinWindowPasses(t *testing.T) {
	rec := &recorder{}
	Check(rec, Window(2*time.Second))
	done := make(chan struct{})
	go func() {
		time.Sleep(50 * time.Millisecond) // unwinds during the retry window
		close(done)
	}()
	<-done
	rec.runCleanups()
	if len(rec.failures) != 0 {
		t.Fatalf("goroutine that exited within the window flagged: %v", rec.failures)
	}
}

func TestTimerLeakNamesCallback(t *testing.T) {
	rec := &recorder{}
	Check(rec, Window(200*time.Millisecond))
	stop := make(chan struct{})
	fired := make(chan struct{})
	time.AfterFunc(time.Millisecond, func() {
		close(fired)
		<-stop // the callback goroutine outlives the "test"
	})
	<-fired
	rec.runCleanups()
	close(stop)
	if len(rec.failures) == 0 {
		t.Fatal("stuck timer callback not detected")
	}
	msg := rec.failures[0]
	if !strings.Contains(msg, "timer-driven goroutine") {
		t.Errorf("timer leak not annotated as timer-driven:\n%s", msg)
	}
	// The annotation must name the callback (this test function's
	// closure), not time.goFunc.
	if !strings.Contains(msg, "stuck callback: repro/internal/testutil/leakcheck.TestTimerLeakNamesCallback") {
		t.Errorf("annotation does not name the leaking callback:\n%s", msg)
	}
	if !strings.Contains(msg, "leakcheck_test.go") {
		t.Errorf("annotation does not name the creation file:\n%s", msg)
	}
}

func TestFormatLeaksSyntheticStacks(t *testing.T) {
	timer := "repro/internal/foo.Run.func1()\n" +
		"\t/root/repo/internal/foo/foo.go:42 +0x1d\n" +
		"created by time.goFunc\n" +
		"\t/usr/local/go/src/time/sleep.go:177 +0x2d"
	plain := "repro/internal/bar.loop()\n" +
		"\t/root/repo/internal/bar/bar.go:10 +0x11\n" +
		"created by repro/internal/bar.Start\n" +
		"\t/root/repo/internal/bar/bar.go:5 +0x22"
	out := FormatLeaks([]string{timer, plain})
	if !strings.HasPrefix(out, "2 goroutine(s) leaked:") {
		t.Errorf("missing leak count header:\n%s", out)
	}
	want := "[timer-driven goroutine; stuck callback: repro/internal/foo.Run.func1 (/root/repo/internal/foo/foo.go:42)]"
	if !strings.Contains(out, want) {
		t.Errorf("timer stack not annotated with %q:\n%s", want, out)
	}
	if strings.Count(out, "timer-driven") != 1 {
		t.Errorf("non-timer stack annotated too:\n%s", out)
	}
	if !strings.Contains(out, plain) {
		t.Errorf("plain stack dropped from the dump:\n%s", out)
	}
}

func TestDiffIsMultiset(t *testing.T) {
	before := []string{"a", "a", "b"}
	after := []string{"a", "b", "b", "c"}
	got := diff(before, after)
	want := []string{"b", "c"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("diff = %v, want %v", got, want)
	}
}
