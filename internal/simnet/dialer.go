package simnet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/chain"
	"repro/internal/devp2p"
	"repro/internal/enode"
	"repro/internal/eth"
	"repro/internal/faultnet"
	"repro/internal/nodefinder"
	"repro/internal/nodefinder/mlog"
	"repro/internal/rlp"
	"repro/internal/rlpx"
	"repro/internal/snappy"
)

// Timing constants mirroring the real stack's behavior.
const (
	simDialTimeout = 15 * time.Second // Geth's defaultDialTimeout
)

// discTooManyPeers is what every full simulated node answers; results
// point at it rather than each at a copy of their own.
var discTooManyPeers = devp2p.DiscTooManyPeers

// Common simulated failures.
var (
	errConnRefused = errors.New("connect: connection refused")
	errTimeout     = errors.New("i/o timeout")

	// Hostile-node failures mirror the exact error shapes the real
	// transport produces against faultnet's hostile servers, wrapping
	// the same sentinel errors, so nodefinder.OutcomeClass buckets a
	// simulated attack identically to a real one.
	errSimNeverAck  = errors.New("rlpx: reading handshake size: i/o timeout")
	errSimHangHello = errors.New("read: i/o timeout") // devp2p passes the socket's own timeout up
	errSimReset     = errors.New("read: connection reset by peer")
	errSimGarbage   = fmt.Errorf("rlpx: %w: decrypting: ecies: invalid message", rlpx.ErrBadHandshake)
	errSimBadMAC    = fmt.Errorf("rlpx: %w", rlpx.ErrBadHeaderMAC)
	errSimGiant     = fmt.Errorf("rlpx: %w: %d > %d", rlpx.ErrFrameTooBig, 2<<20, rlpx.DefaultMaxReadFrame)
	errSimBigHello  = fmt.Errorf("devp2p: reading hello: %w", devp2p.ErrMsgTooBig)
	errSimBadRLP    = fmt.Errorf("devp2p: decoding hello: %w", rlp.ErrValueTooLarge)
	errSimSnappy    = fmt.Errorf("rlpx: decompressing payload: %w", snappy.ErrTooLarge)
)

// SimDiscovery implements nodefinder.Discovery over the world. Each
// lookup takes virtual time and returns a sample of the discoverable
// population, approximating Kademlia convergence returns.
type SimDiscovery struct {
	W    *World
	self enode.ID

	mu   sync.Mutex
	rng  *rand.Rand
	free *simLookup // finished lookups, for reuse
}

// NewDiscovery creates a discovery handle with its own RNG stream.
func (w *World) NewDiscovery(seed int64) *SimDiscovery {
	return &SimDiscovery{
		W:    w,
		self: enode.RandomID(rand.New(rand.NewSource(seed))),
		rng:  rand.New(rand.NewSource(seed ^ 0x5eed)),
	}
}

// Self implements nodefinder.Discovery.
func (d *SimDiscovery) Self() enode.ID { return d.self }

// Lookup implements nodefinder.Discovery. The duration model makes a
// full round take ~12 virtual seconds on average, which combined with
// the 4-second lookupInterval reproduces the ≈304 lookups/hour of
// Figure 5.
func (d *SimDiscovery) Lookup(target enode.ID, done func([]*enode.Node)) {
	d.mu.Lock()
	// Lognormal-ish lookup duration: median ≈ 11 s.
	dur := time.Duration(11e9 * math.Exp(d.rng.NormFloat64()*0.3))
	// Sample up to 16 discoverable node records. Kademlia tables are
	// full of stale entries — gossip keeps returning offline and
	// dead addresses — so sampling is NOT restricted to online
	// nodes; live ones are merely more likely (they refresh their
	// table entries). This staleness is why only ≈31% of dialed
	// nodes respond (Figures 6-7).
	now := d.W.Clock.Now()
	l := d.free
	if l != nil {
		d.free = l.next
	} else {
		l = &simLookup{d: d}
	}
	l.done = done
	found := l.nodes[:0]
	population := d.W.Nodes
	if len(population) > 0 {
		for try := 0; try < 96 && len(found) < cap(found); try++ {
			n := population[d.rng.Intn(len(population))]
			if now.Before(n.Born) {
				continue // identity does not exist yet
			}
			if now.After(n.Died.Add(24 * time.Hour)) {
				continue // long-dead record: evicted from tables
			}
			if !n.OnlineAt(now) && d.rng.Float64() < 0.45 {
				continue // stale record, somewhat less gossiped
			}
			found = append(found, n.Node)
		}
	}
	d.mu.Unlock()
	l.n = len(found)
	d.W.Clock.Schedule(dur, l)
}

// simLookup is one discovery round in flight: the array its result
// lives in and the completion it owes. Finished ones are recycled.
type simLookup struct {
	nodes [16]*enode.Node
	n     int
	done  func([]*enode.Node)
	d     *SimDiscovery
	next  *simLookup // on the free list
}

// Fire recycles the lookup, zeroed, only once done has returned.
func (l *simLookup) Fire() {
	l.done(l.nodes[:l.n])
	d := l.d
	d.mu.Lock()
	*l = simLookup{d: d, next: d.free}
	d.free = l
	d.mu.Unlock()
}

// SimDialer implements nodefinder.Dialer over the world, modeling the
// outcome classes the paper's crawler observed: dead addresses, NAT
// timeouts, Too-many-peers rejections, non-eth services, light
// clients, alternative networks, and productive Mainnet handshakes
// with DAO verification.
type SimDialer struct {
	W *World

	// Metrics, when non-nil, receives per-outcome dial telemetry
	// through the same counters (and the same outcome taxonomy) as
	// nodefinder.RealDialer, so a simulated 82-day run and a real
	// crawl emit comparable telemetry.
	Metrics *nodefinder.DialerMetrics

	mu   sync.Mutex
	rng  *rand.Rand
	free *simDial // finished dials, for reuse
}

// NewDialer creates a dialer with its own RNG stream.
func (w *World) NewDialer(seed int64) *SimDialer {
	return &SimDialer{W: w, rng: rand.New(rand.NewSource(seed ^ 0xd1a1))}
}

// Dial implements nodefinder.Dialer.
func (d *SimDialer) Dial(target *enode.Node, kind mlog.ConnType, done func(*nodefinder.DialResult)) {
	start := d.W.Clock.Now()
	d.mu.Lock()
	p := d.free
	if p != nil {
		d.free = p.next
	} else {
		p = &simDial{d: d}
	}
	p.done = done
	p.res.Duration = d.outcome(&p.res, &p.hello, target, kind, start)
	d.mu.Unlock()
	d.W.Clock.Schedule(p.res.Duration, p)
}

// simDial is one dial in flight: the result it will report, the HELLO
// that result points at, and the completion it owes. Finished ones are
// recycled.
type simDial struct {
	res   nodefinder.DialResult
	hello devp2p.Hello
	d     *SimDialer
	done  func(*nodefinder.DialResult)
	next  *simDial // on the free list
}

// Fire recycles the dial, zeroed, only once done has returned.
func (p *simDial) Fire() {
	p.d.Metrics.Observe(&p.res)
	p.done(&p.res)
	d := p.d
	d.mu.Lock()
	*p = simDial{d: d, next: d.free}
	d.free = p
	d.mu.Unlock()
}

// outcome fills in the dial result, and the HELLO it points at when
// the node answers one, and returns the dial's virtual duration.
// Caller holds d.mu.
func (d *SimDialer) outcome(res *nodefinder.DialResult, hello *devp2p.Hello, target *enode.Node, kind mlog.ConnType, start time.Time) time.Duration {
	res.Node, res.Kind, res.Start = target, kind, start

	n := d.W.NodeByID(target.ID)
	if n == nil {
		res.Err = errConnRefused
		return 200 * time.Millisecond
	}
	if !n.Reachable {
		// NAT'd: SYN black-holes until the dial timeout.
		res.Err = errTimeout
		return simDialTimeout
	}
	if !n.OnlineAt(start) {
		res.Err = errConnRefused
		return 300 * time.Millisecond
	}

	// Connected: sample an RTT for this connection.
	rtt := time.Duration(float64(n.RTTMedian) * math.Exp(d.rng.NormFloat64()*0.25))
	res.RTT = rtt

	// Hostile nodes attack the wire before any honest outcome class
	// can apply.
	if n.Hostile {
		return d.hostileOutcome(n, res, rtt)
	}

	// Peer-limit check happens before the protocol handshake, as in
	// Geth: a full node rejects with Too many peers and no HELLO.
	if d.rng.Float64() < n.Occupancy {
		res.Disconnect = &discTooManyPeers
		return 3 * rtt
	}

	return time.Duration(d.W.answer(res, hello, n, start)) * rtt
}

// hostileOutcome models a dial against one of faultnet's hostile
// peer behaviors, with the failure surfacing at the same protocol
// stage — and carrying the same sentinel error — as the real stack
// produces. Caller holds d.mu.
func (d *SimDialer) hostileOutcome(n *SimNode, res *nodefinder.DialResult, rtt time.Duration) time.Duration {
	switch n.HostileKind {
	case faultnet.HostileNeverAck:
		// Auth sent, no ack: the handshake deadline expires.
		res.Err = errSimNeverAck
		return rlpx.HandshakeTimeout
	case faultnet.HostileHangAfterHandshake:
		// RLPx completes, then silence where HELLO belongs.
		res.Err = errSimHangHello
		return rlpx.HandshakeTimeout + 2*rtt
	case faultnet.HostileWrongMAC:
		res.Err = errSimBadMAC
		return 3 * rtt
	case faultnet.HostileGiantFrame:
		res.Err = errSimGiant
		return 3 * rtt
	case faultnet.HostileOversizedHello:
		res.Err = errSimBigHello
		return 3 * rtt
	case faultnet.HostileBadRLPHello:
		res.Err = errSimBadRLP
		return 3 * rtt
	case faultnet.HostileSnappyBomb:
		// The bomb lands after a successful HELLO, exactly like the
		// real attack: census-wise the node responded, but the eth
		// handshake dies in decompression.
		res.Hello = faultnet.HostileHello(n.Node.ID)
		res.Err = errSimSnappy
		return 4 * rtt
	case faultnet.HostileStatusFlood:
		// The flood handshakes with the attacker's HELLO and STATUS;
		// the crawler records both and disconnects after STATUS.
		res.Hello = faultnet.HostileHello(n.Node.ID)
		res.Status = faultnet.FloodStatus()
		return 5 * rtt
	case faultnet.HostileImmediateReset:
		res.Err = errSimReset
		return rtt
	default: // HostileGarbage
		res.Err = errSimGarbage
		return 2 * rtt
	}
}

// answer fills in what honest node n tells a crawler that reaches it
// at virtual time t: its HELLO, written to hello, and, when it speaks
// eth, its STATUS and head block, plus on network 1 (Mainnet and
// Classic) the DAO-fork verdict the crawler's header check learns. It
// returns the round trips the session takes from the TCP connect: the
// HELLO lands in the fourth, the STATUS in the fifth and the fork
// header in the sixth. SimDialer, the inbound generator and the wire
// server all answer through it, from values shared between dials
// (answers.go).
func (w *World) answer(res *nodefinder.DialResult, hello *devp2p.Hello, n *SimNode, t time.Time) int {
	*hello = devp2p.Hello{
		Version:    devp2p.Version,
		Name:       w.ClientNameAt(n, t),
		Caps:       serviceCaps[n.Service],
		ListenPort: 30303,
		ID:         n.Node.ID,
	}
	res.Hello = hello
	// Only a shared eth capability yields a STATUS; light protocols
	// (les/pip) and other services end here — §5.3's explanation for
	// the nodes Ethernodes saw but NodeFinder could not verify.
	if n.Service != SvcEth {
		return 4
	}
	best := n.BestBlockAt(t)
	res.Status = n.Network.head(best).statusAt(eth.Version63)
	res.BestBlock = best
	if n.Network.NetworkID != chain.MainnetNetworkID {
		return 5
	}
	res.DAOChecked = true
	res.DAOFork = n.Network.daoVerdict(best)
	return 6
}

// daoVerdict is what NodeFinder's DAO-fork check learns from a node
// of this network whose head is at best: before the fork block there
// is no fork header to inspect, and after it the header's extra-data
// shows which side of the fork the chain took. SimDialer reports it
// as is; headerAt synthesizes the headers that make RealDialer infer
// it.
func (nw *Network) daoVerdict(best uint64) eth.DAOForkSupport {
	switch {
	case best < chain.DAOForkBlock:
		return eth.DAOForkUnknown
	case nw.DAOFork:
		return eth.DAOForkSupported
	default:
		return eth.DAOForkOpposed
	}
}

// IncomingGenerator schedules inbound connections to a Finder:
// online nodes (reachable or not) periodically dial the crawler, the
// only way NAT'd nodes become visible (§5.5, Table 2's NFU column).
// Hostile nodes never dial in: faultnet models attacks on the
// crawler's outbound dials only.
type IncomingGenerator struct {
	W      *World
	Finder *nodefinder.Finder
	// MeanInterval is the average gap between inbound connections
	// across the whole population.
	MeanInterval time.Duration

	rng     *rand.Rand
	stopped bool
	mu      sync.Mutex
	tick    incomingTick
	// res and hello are the connection the tick is reporting.
	res   nodefinder.DialResult
	hello devp2p.Hello
}

// incomingTick is the generator's clock event, so re-arming it
// allocates nothing.
type incomingTick struct{ g *IncomingGenerator }

func (t *incomingTick) Fire() {
	t.g.fire()
	t.g.schedule()
}

// StartIncoming begins generating inbound connections.
func (w *World) StartIncoming(f *nodefinder.Finder, mean time.Duration, seed int64) *IncomingGenerator {
	g := &IncomingGenerator{W: w, Finder: f, MeanInterval: mean, rng: rand.New(rand.NewSource(seed ^ 0x1c0))}
	g.tick.g = g
	g.schedule()
	return g
}

// Stop halts generation.
func (g *IncomingGenerator) Stop() {
	g.mu.Lock()
	g.stopped = true
	g.mu.Unlock()
}

func (g *IncomingGenerator) schedule() {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return
	}
	gap := time.Duration(float64(g.MeanInterval) * (0.1 + g.rng.ExpFloat64()))
	g.mu.Unlock()
	g.W.Clock.Schedule(gap, &g.tick)
}

func (g *IncomingGenerator) fire() {
	g.mu.Lock()
	if g.stopped || len(g.W.Nodes) == 0 {
		g.mu.Unlock()
		return
	}
	now := g.W.Clock.Now()
	var n *SimNode
	for try := 0; try < 32; try++ {
		cand := g.W.Nodes[g.rng.Intn(len(g.W.Nodes))]
		if !cand.Hostile && cand.OnlineAt(now) {
			n = cand
			break
		}
	}
	if n == nil {
		g.mu.Unlock()
		return
	}
	rtt := time.Duration(float64(n.RTTMedian) * math.Exp(g.rng.NormFloat64()*0.25))
	g.res = nodefinder.DialResult{
		Node:     n.Node,
		Kind:     mlog.ConnIncoming,
		Start:    now,
		RTT:      rtt,
		Duration: 5 * rtt,
	}
	g.W.answer(&g.res, &g.hello, n, now)
	g.mu.Unlock()
	g.Finder.HandleIncoming(&g.res)
}
