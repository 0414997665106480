package census

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jsonenc"
	"repro/internal/metrics"
	"repro/internal/simclock"
)

// SnapshotSource yields the snapshot to serve; *Daemon implements it.
// Current must be safe for concurrent use and may return nil before
// the first publish (served as 503).
type SnapshotSource interface {
	Current() *Snapshot
}

// DefaultMaxBodyBytes bounds request bodies. Every endpoint is a GET;
// a body at all is suspect, a large one is rejected outright.
const DefaultMaxBodyBytes = 4 << 10

// ServerConfig configures the HTTP layer.
type ServerConfig struct {
	Source SnapshotSource
	// Metrics is served by /metrics and also receives the server's own
	// request instruments, latency in wall time included; nil disables
	// both.
	Metrics *metrics.Registry
	// MaxBodyBytes overrides DefaultMaxBodyBytes when positive.
	MaxBodyBytes int64
}

// NewHandler builds the census HTTP API:
//
//	GET /                   index (endpoint list)
//	GET /v1/summary         headline totals
//	GET /v1/clients         client/service/version censuses
//	GET /v1/geo             country and AS distributions
//	GET /v1/networks        network/genesis/fork censuses
//	GET /v1/series/churn    epoch churn series (?last=N)
//	GET /v1/series/arrivals arrivals view of the series (?last=N)
//	GET /v1/nodes/{id}      per-identity lookup
//	GET /metrics            live instrument snapshot
//
// Static endpoints serve bytes pre-marshaled at publish time, tagged
// with a strong ETag derived from the snapshot epoch; If-None-Match
// turns a poll against an unchanged epoch into a 304 with no body.
// ?last=N splices the newest N series elements, encoded when their
// windows were sealed, into the series head, and a node body is
// appended field by field; only /metrics marshals per request. Header
// values of the cached paths are built once per publish. Handlers never
// lock.
func NewHandler(cfg ServerConfig) http.Handler {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	s := &server{
		src:         cfg.Source,
		reg:         cfg.Metrics,
		maxBody:     cfg.MaxBodyBytes,
		requests:    cfg.Metrics.CounterVec("census.http_requests"),
		statuses:    cfg.Metrics.CounterVec("census.http_status"),
		notModified: cfg.Metrics.Counter("census.http_not_modified"),
		latencyUS:   cfg.Metrics.Histogram("census.http_latency_us"),
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/summary", s.get("summary", s.cachedPayload(epSummary)))
	mux.HandleFunc("/v1/clients", s.get("clients", s.cachedPayload(epClients)))
	mux.HandleFunc("/v1/geo", s.get("geo", s.cachedPayload(epGeo)))
	mux.HandleFunc("/v1/networks", s.get("networks", s.cachedPayload(epNetworks)))
	mux.HandleFunc("/v1/series/churn", s.get("series_churn", s.series(epSeriesChurn)))
	mux.HandleFunc("/v1/series/arrivals", s.get("series_arrivals", s.series(epSeriesArrivals)))
	mux.HandleFunc("/v1/nodes/{id}", s.get("node", s.node))
	mux.HandleFunc("/metrics", s.get("metrics", s.metrics))
	mux.HandleFunc("/", s.get("index", s.index))
	s.mux = mux
	return s
}

type server struct {
	src     SnapshotSource
	reg     *metrics.Registry
	maxBody int64
	mux     *http.ServeMux

	requests    *metrics.CounterVec
	statuses    *metrics.CounterVec
	notModified *metrics.Counter
	latencyUS   *metrics.Histogram
	// classes[i] is statuses' counter for statusClasses[i], resolved the
	// first time a response of that class is counted (a class shows in
	// /metrics once it has been served) and read without a lock after.
	classes [len(statusClasses)]atomic.Pointer[metrics.Counter]
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// bodyBufs recycles the buffers node and ?last bodies are built in: a
// body is garbage once written (a ResponseWriter does not retain what
// it is given).
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// endpoint serves one request and returns the status it wrote.
type endpoint func(http.ResponseWriter, *http.Request) int

// contentTypeJSON is every response's Content-Type value, shared by all
// of them: len == cap, so a later Header().Add copies it.
var contentTypeJSON = []string{"application/json"}

// get wraps an endpoint handler with the shared request policy:
// per-endpoint accounting, method gating (GET/HEAD only), and request
// body bounds. The endpoint counter is resolved once at construction,
// not per request. Latency is what the request cost in wall time,
// whatever clock the daemon publishes on.
func (s *server) get(label string, h endpoint) http.HandlerFunc {
	count := s.requests.WithLabel(label)
	return func(w http.ResponseWriter, r *http.Request) {
		count.Inc()
		cost := simclock.StartStopwatch()
		var status int
		switch {
		case r.Method != http.MethodGet && r.Method != http.MethodHead:
			w.Header().Set("Allow", "GET, HEAD")
			status = writeError(w, http.StatusMethodNotAllowed, "method not allowed")
		case r.ContentLength > s.maxBody:
			status = writeError(w, http.StatusRequestEntityTooLarge, "request body too large")
		default:
			if r.Body != nil && r.Body != http.NoBody {
				r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
			}
			status = h(w, r)
		}
		s.countStatus(status)
		s.latencyUS.Observe(uint64(cost.Elapsed() / time.Microsecond))
	}
}

// cachedPayload serves a snapshot's pre-marshaled body for one
// endpoint index: header values assigned from the snapshot and one byte
// copy, no locks, no allocation beyond the ResponseWriter's own.
func (s *server) cachedPayload(ep int) endpoint {
	return func(w http.ResponseWriter, r *http.Request) int {
		snap := s.src.Current()
		if snap == nil {
			return writeError(w, http.StatusServiceUnavailable, "no snapshot published yet")
		}
		return s.writeCached(w, r, snap, ep)
	}
}

func (s *server) writeCached(w http.ResponseWriter, r *http.Request, snap *Snapshot, ep int) int {
	h := w.Header()
	h["Etag"] = snap.etagHdr
	h["X-Census-Epoch"] = snap.epochHdr
	if r.Header.Get("If-None-Match") == snap.etag {
		s.notModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return http.StatusNotModified
	}
	h["Content-Type"] = contentTypeJSON
	h["Content-Length"] = snap.lengthHdr[ep]
	w.WriteHeader(http.StatusOK)
	if r.Method != http.MethodHead {
		w.Write(snap.cached[ep])
	}
	return http.StatusOK
}

// series serves the churn/arrivals payloads. Without a query it is a
// pure cached-bytes path; ?last=N splices the most recent N windows'
// elements into the series head, a copy and no encoding.
func (s *server) series(ep int) endpoint {
	return func(w http.ResponseWriter, r *http.Request) int {
		snap := s.src.Current()
		if snap == nil {
			return writeError(w, http.StatusServiceUnavailable, "no snapshot published yet")
		}
		q := r.URL.Query()
		if !q.Has("last") {
			return s.writeCached(w, r, snap, ep)
		}
		last, err := strconv.Atoi(q.Get("last"))
		if err != nil || last < 0 {
			return writeError(w, http.StatusBadRequest, "last must be a non-negative integer")
		}
		buf := bodyBufs.Get().(*[]byte)
		defer bodyBufs.Put(buf)
		*buf = snap.appendLast((*buf)[:0], ep, last)
		return writeBody(w, snap, *buf)
	}
}

// node serves the per-identity lookup.
func (s *server) node(w http.ResponseWriter, r *http.Request) int {
	snap := s.src.Current()
	if snap == nil {
		return writeError(w, http.StatusServiceUnavailable, "no snapshot published yet")
	}
	ns := snap.Node(r.PathValue("id"))
	if ns == nil {
		return writeError(w, http.StatusNotFound, "unknown node")
	}
	buf := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(buf)
	var ok bool
	if *buf, ok = ns.appendJSON((*buf)[:0]); !ok {
		return writeError(w, http.StatusInternalServerError, "encode failed")
	}
	return writeBody(w, snap, *buf)
}

// metrics serves the live registry — always marshal-on-demand, since
// instruments move between snapshots.
func (s *server) metrics(w http.ResponseWriter, r *http.Request) int {
	return writeJSON(w, s.reg.Snapshot())
}

// index serves the endpoint list at exactly "/"; anything else that
// fell through the mux is a JSON 404.
func (s *server) index(w http.ResponseWriter, r *http.Request) int {
	if r.URL.Path != "/" {
		return writeError(w, http.StatusNotFound, "no such endpoint")
	}
	snap := s.src.Current()
	if snap == nil {
		return writeError(w, http.StatusServiceUnavailable, "no snapshot published yet")
	}
	return s.writeCached(w, r, snap, epIndex)
}

// writeJSON marshals v, for /metrics, the one endpoint whose body is
// not a function of the snapshot.
func writeJSON(w http.ResponseWriter, v any) int {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return writeError(w, http.StatusInternalServerError, "encode failed")
	}
	return writeBody(w, nil, append(buf, '\n'))
}

// writeBody serves a 200 with a body built for this request, stamped
// with snap's epoch when it came from one.
func writeBody(w http.ResponseWriter, snap *Snapshot, body []byte) int {
	h := w.Header()
	h["Content-Type"] = contentTypeJSON
	if snap != nil {
		h["X-Census-Epoch"] = snap.epochHdr
	}
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	w.Write(body)
	return http.StatusOK
}

func writeError(w http.ResponseWriter, code int, msg string) int {
	body := jsonenc.AppendString(append(make([]byte, 0, 64), `{"error":`...), msg)
	body = append(body, "}\n"...)
	h := w.Header()
	h["Content-Type"] = contentTypeJSON
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	w.WriteHeader(code)
	w.Write(body)
	return code
}

var statusClasses = [...]string{"2xx", "3xx", "4xx", "5xx"}

// countStatus counts one response under its status class.
func (s *server) countStatus(code int) {
	i := min(max(code/100, 2), 5) - 2
	c := s.classes[i].Load()
	if c == nil {
		c = s.statuses.WithLabel(statusClasses[i])
		s.classes[i].Store(c)
	}
	c.Inc()
}
