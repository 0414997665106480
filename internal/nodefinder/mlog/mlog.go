// Package mlog defines NodeFinder's measurement log: the structured
// records the paper's analyses are computed from.
//
// The paper co-opts Geth's logging to record, for every peer
// connection: a timestamp, the peer's node ID, IP, port, connection
// type (dynamic-dial, static-dial, or incoming), connection latency,
// and duration — followed by the decoded HELLO, STATUS, DISCONNECT,
// and DAO-fork-check results (§4). Entries here carry exactly that,
// serialized as JSON lines.
package mlog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// ConnType is how the connection was made.
type ConnType string

// Connection types (§4).
const (
	ConnDynamicDial ConnType = "dynamic-dial"
	ConnStaticDial  ConnType = "static-dial"
	ConnIncoming    ConnType = "incoming"
)

// HelloInfo is the decoded DEVp2p HELLO content.
type HelloInfo struct {
	Version    uint64   `json:"version"`
	ClientName string   `json:"clientName"`
	Caps       []string `json:"caps"`
	ListenPort uint64   `json:"listenPort"`
}

// StatusInfo is the decoded eth STATUS content.
type StatusInfo struct {
	ProtocolVersion uint32 `json:"protocolVersion"`
	NetworkID       uint64 `json:"networkID"`
	TD              string `json:"td"`
	BestHash        string `json:"bestHash"`
	GenesisHash     string `json:"genesisHash"`
	// BestBlock is the block number corresponding to BestHash when
	// the serving node reveals it (simulation convenience; the paper
	// recovers numbers by resolving hashes against its own chain).
	BestBlock uint64 `json:"bestBlock,omitempty"`
}

// Entry is one peer-connection record.
type Entry struct {
	Time     time.Time `json:"time"`
	NodeID   string    `json:"nodeID"`
	IP       string    `json:"ip"`
	Port     uint16    `json:"port"`
	ConnType ConnType  `json:"connType"`
	// LatencyUS is the smoothed RTT estimate in microseconds.
	LatencyUS int64 `json:"latencyUS"`
	// DurationUS is how long the connection was held.
	DurationUS int64 `json:"durationUS"`

	Err              string      `json:"err,omitempty"`
	Hello            *HelloInfo  `json:"hello,omitempty"`
	Status           *StatusInfo `json:"status,omitempty"`
	DisconnectReason *uint64     `json:"disconnectReason,omitempty"`
	// DAOFork is "", "supported", "opposed", or "unknown".
	DAOFork string `json:"daoFork,omitempty"`
}

// Latency returns the latency as a duration.
func (e *Entry) Latency() time.Duration { return time.Duration(e.LatencyUS) * time.Microsecond }

// Duration returns the connection duration.
func (e *Entry) Duration() time.Duration { return time.Duration(e.DurationUS) * time.Microsecond }

// Succeeded reports whether the DEVp2p handshake completed (a HELLO
// was received) — the paper's criterion for a "responding" node.
func (e *Entry) Succeeded() bool { return e.Hello != nil }

// Sink receives log entries.
type Sink interface {
	Record(e *Entry)
}

// Collector is an in-memory Sink for experiments.
type Collector struct {
	mu      sync.Mutex
	entries []*Entry
}

// NewCollector creates an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Record implements Sink.
func (c *Collector) Record(e *Entry) {
	c.mu.Lock()
	c.entries = append(c.entries, e)
	c.mu.Unlock()
}

// Entries returns a snapshot of all recorded entries.
func (c *Collector) Entries() []*Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Entry, len(c.entries))
	copy(out, c.entries)
	return out
}

// Len returns the number of entries recorded.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Writer is a Sink that streams JSON lines to an io.Writer. Each line
// is the one json.NewEncoder(w).Encode(e) would write, byte for byte
// (Entry.AppendJSON), rendered into one reused buffer, so a record
// allocates nothing.
type Writer struct {
	mu  sync.Mutex
	w   *bufio.Writer
	buf []byte
}

// NewWriter wraps w as a JSONL sink.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Record implements Sink. A record that cannot be encoded and write
// errors are deliberately dropped; measurement must not crash the
// crawler.
func (w *Writer) Record(e *Entry) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = e.AppendJSON(w.buf[:0])
	w.w.Write(w.buf) //nolint:errcheck
}

// Flush drains buffered output.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.w.Flush()
}

// Tee fans entries out to several sinks.
type Tee []Sink

// Record implements Sink.
func (t Tee) Record(e *Entry) {
	for _, s := range t {
		s.Record(e)
	}
}

// ReadFile loads a JSONL log file.
func ReadFile(path string) ([]*Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mlog: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// Read parses JSONL entries from r. A measurement log is often cut
// short by a crash or disk-full event — a truncated final line or a
// stretch of interleaved garbage must not cost the analyst the 82
// days of records before it. Read therefore parses as far as it can:
// it always returns every entry that decoded cleanly, together with
// an error describing the first malformed line (nil if the whole
// stream was well-formed). A caller that requires a pristine log
// checks the error; the analysis pipeline keeps the partial records.
func Read(r io.Reader) ([]*Entry, error) {
	var out []*Entry
	var firstErr error
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e Entry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("mlog: line %d: %w", line, err)
			}
			continue
		}
		out = append(out, &e)
	}
	if err := sc.Err(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("mlog: scan: %w", err)
	}
	return out, firstErr
}
