package census_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/census"
	"repro/internal/chain"
	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/nodefinder/mlog"
	"repro/internal/simclock"
)

var update = flag.Bool("update", false, "rewrite golden files")

// t0 anchors every deterministic fixture (the paper's crawl window).
var t0 = time.Date(2018, 4, 18, 0, 0, 0, 0, time.UTC)

func helloEntry(id, ip, client string, at time.Time) *mlog.Entry {
	return &mlog.Entry{
		Time:      at,
		NodeID:    id,
		IP:        ip,
		ConnType:  mlog.ConnDynamicDial,
		LatencyUS: 1500,
		Hello:     &mlog.HelloInfo{Version: 5, ClientName: client, Caps: []string{"eth/63"}},
	}
}

// fixtureEntries is a tiny hand-built world exercising every census
// dimension: a Mainnet Geth node that upgrades mid-crawl, a Ropsten
// Parity node that departs, a DISCONNECT-only arrival, and a dead
// address.
func fixtureEntries() []*mlog.Entry {
	mainnet := chain.MainnetGenesisHash.Hex()

	ge1 := helloEntry("aa", "52.1.2.3", "Geth/v1.8.10-stable/linux-amd64/go1.10", t0.Add(5*time.Minute))
	ge1.Status = &mlog.StatusInfo{ProtocolVersion: 63, NetworkID: 1, GenesisHash: mainnet, BestBlock: 5550000}
	ge1.DAOFork = "supported"

	ge2 := helloEntry("aa", "52.1.2.3", "Geth/v1.8.11-stable/linux-amd64/go1.10", t0.Add(35*time.Minute))
	ge2.Status = &mlog.StatusInfo{ProtocolVersion: 63, NetworkID: 1, GenesisHash: mainnet, BestBlock: 5550180}
	ge2.DAOFork = "supported"

	pa := helloEntry("bb", "13.5.6.7", "Parity-Ethereum/v2.0.1-stable", t0.Add(6*time.Minute))
	pa.Status = &mlog.StatusInfo{ProtocolVersion: 63, NetworkID: 3, GenesisHash: "0x41941023680923e0fe4d74a34bdac8141f2540e3ae90623718e47d66d1ca4a2d"}
	pa.DAOFork = "unknown"
	pa.LatencyUS = 8200

	dc := &mlog.Entry{Time: t0.Add(36 * time.Minute), NodeID: "cc", IP: "99.9.9.9", ConnType: mlog.ConnDynamicDial}
	reason := uint64(0x04)
	dc.DisconnectReason = &reason

	dead := &mlog.Entry{Time: t0.Add(7 * time.Minute), NodeID: "dd", IP: "10.0.0.1", ConnType: mlog.ConnDynamicDial, Err: "connection refused"}

	return []*mlog.Entry{ge1, pa, dead, ge2, dc}
}

// fixture publishes four epochs of the hand-built world: epoch 0 at
// Start, then ticks at +30m, +60m, +90m, leaving two finalized
// windows in the served series.
func fixture(t *testing.T, reg *metrics.Registry) (*census.Daemon, *simclock.Simulated) {
	t.Helper()
	clk := simclock.NewSimulated(t0)
	d := census.NewDaemon(census.DaemonConfig{
		Clock:   clk,
		Geo:     geo.NewDB(),
		Metrics: reg,
	})
	for _, e := range fixtureEntries() {
		d.Record(e)
	}
	d.Start()
	clk.Advance(3 * census.DefaultInterval)
	t.Cleanup(d.Stop)
	return d, clk
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("response differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestHandlerGoldens drives every endpoint, success and failure,
// through the handler and pins the exact JSON bodies.
func TestHandlerGoldens(t *testing.T) {
	reg := metrics.New()
	d, _ := fixture(t, reg)
	h := census.NewHandler(census.ServerConfig{Source: d, Metrics: reg})

	tests := []struct {
		name       string
		method     string
		target     string
		body       string
		wantStatus int
		golden     string
	}{
		{"index", "GET", "/", "", 200, "index"},
		{"summary", "GET", "/v1/summary", "", 200, "summary"},
		{"clients", "GET", "/v1/clients", "", 200, "clients"},
		{"geo", "GET", "/v1/geo", "", 200, "geo"},
		{"networks", "GET", "/v1/networks", "", 200, "networks"},
		{"series-churn", "GET", "/v1/series/churn", "", 200, "series_churn"},
		{"series-arrivals", "GET", "/v1/series/arrivals", "", 200, "series_arrivals"},
		{"series-last", "GET", "/v1/series/churn?last=1", "", 200, "series_churn_last1"},
		{"series-last-zero", "GET", "/v1/series/arrivals?last=0", "", 200, "series_arrivals_last0"},
		{"node-found", "GET", "/v1/nodes/aa", "", 200, "node_aa"},
		{"node-disconnect-only", "GET", "/v1/nodes/cc", "", 200, "node_cc"},
		{"node-missing", "GET", "/v1/nodes/ffff", "", 404, "node_missing"},
		{"unknown-path", "GET", "/v1/nope", "", 404, "not_found"},
		{"method-not-allowed", "POST", "/v1/summary", "", 405, "method_not_allowed"},
		{"bad-query", "GET", "/v1/series/churn?last=banana", "", 400, "bad_query"},
		{"bad-query-negative", "GET", "/v1/series/arrivals?last=-3", "", 400, "bad_query_negative"},
		{"body-too-large", "GET", "/v1/summary", strings.Repeat("x", 5<<10), 413, "body_too_large"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var body *strings.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			} else {
				body = strings.NewReader("")
			}
			req := httptest.NewRequest(tc.method, tc.target, body)
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, req)
			if rr.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d\nbody: %s", rr.Code, tc.wantStatus, rr.Body.Bytes())
			}
			if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			checkGolden(t, tc.golden, rr.Body.Bytes())
		})
	}
	snap := reg.Snapshot()
	if lat := snap.Histograms["census.http_latency_us"]; lat.Count != uint64(len(tests)) {
		t.Errorf("census.http_latency_us = %+v, want %d samples", lat, len(tests))
	}
	classes := map[string]uint64{}
	for _, tc := range tests {
		classes[fmt.Sprintf("census.http_status{%dxx}", tc.wantStatus/100)]++
	}
	for name, v := range snap.Counters {
		if !strings.HasPrefix(name, "census.http_status") {
			continue
		}
		if v != classes[name] {
			t.Errorf("%s = %d, want %d", name, v, classes[name])
		}
		delete(classes, name)
	}
	if len(classes) > 0 {
		t.Errorf("status classes never counted: %v", classes)
	}
}

// slowSource takes a while to yield its snapshot, in wall time.
type slowSource struct {
	census.SnapshotSource
	delay time.Duration
}

func (s slowSource) Current() *census.Snapshot {
	time.Sleep(s.delay)
	return s.SnapshotSource.Current()
}

// TestRequestLatencyIsWallTime: the daemon publishes on a simulated
// clock that never moves while the request is served, and
// census.http_latency_us must still record what the request cost.
func TestRequestLatencyIsWallTime(t *testing.T) {
	reg := metrics.New()
	d, _ := fixture(t, reg)
	h := census.NewHandler(census.ServerConfig{Source: slowSource{d, 2 * time.Millisecond}, Metrics: reg})

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/summary", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	if lat := reg.Snapshot().Histograms["census.http_latency_us"]; lat.Count != 1 || lat.Sum < 1000 {
		t.Errorf("census.http_latency_us = %+v, want one sample of at least 1000 µs for a 2 ms request", lat)
	}
}

// TestMetricsGolden pins /metrics on a fresh fixture where the only
// request ever made is the one under test, so every instrument value
// is deterministic — except census.build_us, which is wall time: its
// sample count is checked here and the histogram is left out of the
// golden.
func TestMetricsGolden(t *testing.T) {
	reg := metrics.New()
	d, _ := fixture(t, reg)
	h := census.NewHandler(census.ServerConfig{Source: d, Metrics: reg})

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("status = %d: %s", rr.Code, rr.Body.Bytes())
	}
	var body metrics.Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("decoding /metrics: %v\n%s", err, rr.Body.Bytes())
	}
	if got := body.Histograms["census.build_us"].Count; got != 4 {
		t.Errorf("census.build_us count = %d, want 4 (one sample per publish)", got)
	}
	delete(body.Histograms, "census.build_us")
	got, err := json.MarshalIndent(body, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics", append(got, '\n'))
}

// TestBuildCostIsWallTime: a publish scheduled on a simulated clock
// takes no virtual time, and census.build_us must still record what it
// cost.
func TestBuildCostIsWallTime(t *testing.T) {
	reg := metrics.New()
	clk := simclock.NewSimulated(t0)
	d := census.NewDaemon(census.DaemonConfig{Clock: clk, Geo: geo.NewDB(), Metrics: reg})
	for i := 0; i < 2000; i++ {
		d.Record(helloEntry(fmt.Sprintf("n%04d", i), fmt.Sprintf("10.2.%d.%d", i/250, i%250),
			"Geth/v1.8.10-stable", t0.Add(time.Duration(i)*time.Second)))
	}
	d.Publish()
	if sum := reg.Snapshot().Histograms["census.build_us"].Sum; sum == 0 {
		t.Error("census.build_us recorded 0 us for a 2000-identity publish on a simulated clock")
	}
}

// TestUnavailableBeforeFirstPublish: every data endpoint is 503 with
// a JSON body until the daemon publishes.
func TestUnavailableBeforeFirstPublish(t *testing.T) {
	reg := metrics.New()
	d := census.NewDaemon(census.DaemonConfig{Clock: simclock.NewSimulated(t0), Metrics: reg})
	h := census.NewHandler(census.ServerConfig{Source: d, Metrics: reg})

	for _, target := range []string{"/", "/v1/summary", "/v1/series/churn", "/v1/nodes/aa"} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", target, nil))
		if rr.Code != http.StatusServiceUnavailable {
			t.Errorf("%s: status = %d, want 503", target, rr.Code)
		}
		if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type = %q", target, ct)
		}
	}
	checkGolden(t, "unavailable", func() []byte {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/summary", nil))
		return rr.Body.Bytes()
	}())
}

// TestETagLifecycle: a cached body carries a strong epoch-keyed ETag;
// polling with If-None-Match costs a 304 until the next publish
// invalidates it.
func TestETagLifecycle(t *testing.T) {
	reg := metrics.New()
	d, _ := fixture(t, reg)
	h := census.NewHandler(census.ServerConfig{Source: d, Metrics: reg})

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/summary", nil))
	etag := rr.Header().Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"census-`) {
		t.Fatalf("ETag = %q, want strong census-<epoch> tag", etag)
	}

	req := httptest.NewRequest("GET", "/v1/summary", nil)
	req.Header.Set("If-None-Match", etag)
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusNotModified {
		t.Fatalf("revalidation status = %d, want 304", rr.Code)
	}
	if rr.Body.Len() != 0 {
		t.Errorf("304 carried a body: %q", rr.Body.Bytes())
	}
	if got := reg.Snapshot().Counter("census.http_not_modified"); got != 1 {
		t.Errorf("not_modified counter = %d, want 1", got)
	}

	// A new epoch invalidates the tag: same If-None-Match now misses.
	d.Publish()
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("post-publish status = %d, want 200", rr.Code)
	}
	if got := rr.Header().Get("ETag"); got == etag {
		t.Errorf("ETag unchanged across publish: %q", got)
	}
}

// TestHeadRequests: HEAD is answered from the same cache with
// headers only.
func TestHeadRequests(t *testing.T) {
	reg := metrics.New()
	d, _ := fixture(t, reg)
	h := census.NewHandler(census.ServerConfig{Source: d, Metrics: reg})

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("HEAD", "/v1/summary", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	if rr.Body.Len() != 0 {
		t.Errorf("HEAD returned a body (%d bytes)", rr.Body.Len())
	}
	if rr.Header().Get("Content-Length") == "0" || rr.Header().Get("Content-Length") == "" {
		t.Errorf("Content-Length = %q, want the cached body size", rr.Header().Get("Content-Length"))
	}
}

// reusedWriter is a ResponseWriter kept across requests, as a server
// keeps its connection's: its header map is cleared, not reallocated.
type reusedWriter struct {
	h      http.Header
	status int
}

func (w *reusedWriter) Header() http.Header         { return w.h }
func (w *reusedWriter) WriteHeader(code int)        { w.status = code }
func (w *reusedWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestServeAllocs budgets what the request classes of the census-serve
// mix allocate in the handler: a cached body and a 304 nothing; a node
// lookup its Content-Length value (2) and ServeMux's wildcard match (1);
// ?last=N its Content-Length and its parsed query (3). Their bodies are
// built in pooled buffers. The last two budgets allow one allocation
// more than go1.24 makes, for the standard library's share on other
// releases; marshaling the node body takes four more.
func TestServeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	reg := metrics.New()
	d, _ := fixture(t, reg)
	h := census.NewHandler(census.ServerConfig{Source: d, Metrics: reg})
	w := &reusedWriter{h: make(http.Header)}
	cases := []struct {
		name, target, ifNoneMatch string
		status                    int
		budget                    float64
	}{
		{"cached", "/v1/clients", "", http.StatusOK, 0},
		{"304", "/v1/summary", d.Current().ETag(), http.StatusNotModified, 0},
		{"node", "/v1/nodes/aa", "", http.StatusOK, 4},
		{"last", "/v1/series/churn?last=3", "", http.StatusOK, 6},
	}
	for _, c := range cases {
		req := httptest.NewRequest("GET", c.target, nil)
		if c.ifNoneMatch != "" {
			req.Header.Set("If-None-Match", c.ifNoneMatch)
		}
		got := testing.AllocsPerRun(200, func() {
			clear(w.h)
			w.status = http.StatusOK
			h.ServeHTTP(w, req)
		})
		if w.status != c.status {
			t.Fatalf("%s: status %d, want %d", c.name, w.status, c.status)
		}
		if got > c.budget {
			t.Errorf("%s: %v allocations per request, budget %v", c.name, got, c.budget)
		}
		t.Logf("%s: %v allocations per request", c.name, got)
	}
}
