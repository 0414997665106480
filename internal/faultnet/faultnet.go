// Package faultnet is a deterministic fault-injection layer for the
// crawler's transport stack: net.Conn, dialer, and listener wrappers
// that misbehave on a seed-driven schedule, plus hostile peer
// behaviours that speak deliberately broken protocol.
//
// The paper's crawler talks to tens of thousands of strangers (§5);
// a measurable fraction of them stall handshakes, trickle bytes,
// send garbage, or reset mid-frame — sometimes adversarially (§5.4's
// identity spam came from someone probing the network with custom
// software). This package makes those behaviors reproducible so the
// hardening in rlpx/devp2p/eth/nodefinder is pinned by tests rather
// than discovered in production: a FaultPlan with a fixed seed
// produces the identical fault sequence on every run.
//
// Two layers compose:
//
//   - Wire faults (this file, conn.go): a Plan decides per
//     connection whether to reset, stall, slow-loris, truncate,
//     corrupt, duplicate, reorder, or delay traffic. Plan.Wrap puts
//     the next draw on a connection.
//   - Protocol hostility (hostile.go): ServeConn speaks RLPx just
//     far enough to attack a specific parser — never-ACK auth,
//     handshake-then-hang, forged frame MACs, oversized HELLOs,
//     snappy bombs, STATUS floods. simnet serves it as a hostile
//     node's side of a promoted connection.
package faultnet

import (
	"math/rand"
	"net"
	"sync"
	"time"
)

// Kind enumerates the wire faults a connection can draw.
type Kind int

// Wire fault kinds.
const (
	// None leaves the connection healthy.
	None Kind = iota
	// Reset closes the connection abruptly (with SO_LINGER 0 on TCP,
	// so the peer sees ECONNRESET) after ResetAfter bytes have moved.
	Reset
	// Stall freezes the first I/O operation for StallFor before
	// letting it proceed — the "accepted but silent" peer.
	Stall
	// SlowLoris delivers writes one LorisChunk at a time with
	// LorisDelay pauses, the classic slot-exhaustion attack.
	SlowLoris
	// Truncate cuts one write short and closes the connection,
	// leaving the peer holding a partial frame.
	Truncate
	// Corrupt flips one bit somewhere in each write.
	Corrupt
	// Duplicate transmits one write's bytes twice.
	Duplicate
	// Reorder holds a write back and emits it after the next one.
	Reorder
	// Latency injects a fixed delay before every read and write.
	Latency

	numKinds
)

var kindNames = map[Kind]string{
	None: "none", Reset: "reset", Stall: "stall",
	SlowLoris: "slow-loris", Truncate: "truncate", Corrupt: "corrupt",
	Duplicate: "duplicate", Reorder: "reorder", Latency: "latency",
}

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return "unknown"
}

// Plan is a deterministic fault schedule. Each wrapped connection
// draws a fault kind from Weights and a private RNG stream from
// Seed, so the same seed reproduces the same faults in the same
// order regardless of wall-clock timing.
type Plan struct {
	// Seed drives every random decision the plan makes.
	Seed int64
	// Weights are the relative draw weights per fault kind; absent
	// kinds (including None) have weight zero. A plan with only
	// {None: 1} is a transparent wrapper.
	Weights map[Kind]int

	// StallFor is how long a Stall connection freezes (default 5s).
	StallFor time.Duration
	// LorisChunk / LorisDelay shape SlowLoris writes (default 1 byte
	// every 50ms).
	LorisChunk int
	LorisDelay time.Duration
	// Latency is the per-operation delay for Latency conns (default
	// 100ms).
	Latency time.Duration
	// ResetAfter is roughly how many bytes flow before a Reset conn
	// closes (default 64).
	ResetAfter int

	mu     sync.Mutex
	rng    *rand.Rand
	counts map[Kind]int64
}

// NewPlan returns a plan with every fault kind weighted equally
// against a 50% healthy baseline, tuned for fast tests.
func NewPlan(seed int64) *Plan {
	weights := map[Kind]int{None: int(numKinds) - 1}
	for k := Reset; k < numKinds; k++ {
		weights[k] = 1
	}
	return &Plan{
		Seed:       seed,
		Weights:    weights,
		StallFor:   5 * time.Second,
		LorisChunk: 1,
		LorisDelay: 50 * time.Millisecond,
		Latency:    100 * time.Millisecond,
		ResetAfter: 64,
	}
}

// draw picks the fault kind and private RNG seed for the next
// connection.
func (p *Plan) draw() (Kind, int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.Seed))
		p.counts = make(map[Kind]int64)
	}
	total := 0
	for _, w := range p.Weights {
		total += w
	}
	kind := None
	if total > 0 {
		n := p.rng.Intn(total)
		for k := None; k < numKinds; k++ {
			w := p.Weights[k]
			if n < w {
				kind = k
				break
			}
			n -= w
		}
	}
	p.counts[kind]++
	return kind, p.rng.Int63()
}

// Counts reports how many connections drew each fault so far.
func (p *Plan) Counts() map[Kind]int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[Kind]int64, len(p.counts))
	for k, v := range p.counts {
		out[k] = v
	}
	return out
}

// stallFor returns the configured or default stall duration.
func (p *Plan) stallFor() time.Duration {
	if p.StallFor > 0 {
		return p.StallFor
	}
	return 5 * time.Second
}

func (p *Plan) lorisChunk() int {
	if p.LorisChunk > 0 {
		return p.LorisChunk
	}
	return 1
}

func (p *Plan) lorisDelay() time.Duration {
	if p.LorisDelay > 0 {
		return p.LorisDelay
	}
	return 50 * time.Millisecond
}

func (p *Plan) latency() time.Duration {
	if p.Latency > 0 {
		return p.Latency
	}
	return 100 * time.Millisecond
}

func (p *Plan) resetAfter() int {
	if p.ResetAfter > 0 {
		return p.ResetAfter
	}
	return 64
}

// Wrap applies the plan's next fault draw to fd.
func (p *Plan) Wrap(fd net.Conn) net.Conn {
	kind, seed := p.draw()
	return newConn(fd, p, kind, seed)
}
