package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/chain"
	"repro/internal/devp2p"
	"repro/internal/enode"
	"repro/internal/eth"
	"repro/internal/faultnet"
	"repro/internal/metrics"
	"repro/internal/netpipe"
	"repro/internal/nodefinder"
	"repro/internal/rlp"
	"repro/internal/rlpx"
)

// This file implements wire promotion: the bridge between the
// event-driven analytic population and real net.Conn machinery.
//
// An idle SimNode is nothing but fields and an O(1) lifecycle state
// machine — no goroutine, no listener, no buffers. When a crawler
// dials its address through DialWire, the node is PROMOTED for
// exactly that connection: an in-memory duplex pipe is created and a
// serving goroutine runs the node's genuine protocol behavior over
// it — the full RLPx/DEVp2p/eth handshake chain for honest nodes
// (with the node's real secp256k1 identity), or one of faultnet's
// hostile attacks for wire-hostile nodes. When the connection ends,
// the goroutine exits and the node is DEMOTED back to its analytic
// state. A 100k-node world therefore costs 100k structs while idle,
// and only the handful of in-flight dials ever own sockets or stacks.
//
// Offline, NAT'd, and unknown addresses never promote at all: the
// dial fails analytically with the same error shapes a real TCP
// connect would produce, so nodefinder.OutcomeClass buckets them
// identically to a live crawl.
//
// ServeLoopback puts the same promotion behind a real TCP listener,
// for crawls and tests that dial through the kernel's socket stack:
// each accepted conn is promoted as a DialWire pipe would be.

// wireHandshakeTimeout bounds a promoted server's RLPx accept, a
// backstop against a client that connects and never speaks.
const wireHandshakeTimeout = 10 * time.Second

// Analytic connect failures, shaped like the net package's errors so
// the taxonomy matches a real crawl.
var (
	errWireRefused = errConnRefused
	errWireTimeout = errTimeout
	errWireClosed  = errors.New("simnet: wire closed")
)

// wireState tracks promoted connections and loopback listeners so
// CloseWire can sever them and tests can assert the population fully
// demotes.
type wireState struct {
	mu        sync.Mutex
	wg        sync.WaitGroup
	conns     map[net.Conn]struct{}
	listeners []net.Listener
	closed    bool
	rng       *rand.Rand // occupancy draws and hostile attack seeds

	promotions *metrics.Counter
	demotions  *metrics.Counter
	active     *metrics.Gauge
}

func newWireState(seed int64, r *metrics.Registry) *wireState {
	return &wireState{
		conns:      make(map[net.Conn]struct{}),
		rng:        rand.New(rand.NewSource(seed ^ 0x3197e)),
		promotions: r.Counter("simnet.promotions"),
		demotions:  r.Counter("simnet.demotions"),
		active:     r.Gauge("simnet.promoted_active"),
	}
}

// PromotedActive returns the number of currently promoted
// connections (servers still holding a live conn).
func (w *World) PromotedActive() int {
	w.wire.mu.Lock()
	defer w.wire.mu.Unlock()
	return len(w.wire.conns)
}

// DialWire is a nodefinder.RealDialer-compatible DialFunc that dials
// into the simulated world. Reachable online nodes are promoted to a
// live in-memory connection; everything else fails analytically.
// Requires a WireFidelity world (promoted honest nodes must own real
// keys to complete the RLPx handshake).
func (w *World) DialWire(network, address string, timeout time.Duration) (net.Conn, error) {
	n := w.byAddr[address]
	if n == nil {
		return nil, errWireRefused
	}
	now := w.Clock.Now()
	if !n.Reachable {
		// NAT'd: the SYN black-holes. The timeout error is immediate —
		// wall-clock waiting would add nothing to the outcome.
		return nil, errWireTimeout
	}
	if !n.OnlineAt(now) {
		return nil, errWireRefused
	}
	client, server := netpipe.Pair()
	if !w.promote(n, server) {
		client.Close()
		return nil, errWireRefused
	}
	return client, nil
}

// ServeLoopback serves n over real TCP: it listens on an ephemeral
// 127.0.0.1 port and returns n's own identity at that address. Every
// connection the listener accepts is promoted exactly as a DialWire
// dial is — the same occupancy draw, per-conn seed and serveWire, and
// the same counters — and CloseWire closes the listener. The listener
// serves n whatever its lifecycle says: offline, NAT'd and unknown
// addresses are analytic failures, which only DialWire models.
// Requires a WireFidelity world.
func (w *World) ServeLoopback(n *SimNode) (*enode.Node, error) {
	if n.key == nil {
		return nil, errors.New("simnet: ServeLoopback needs a WireFidelity world")
	}
	ln, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("simnet: loopback listen: %w", err)
	}
	ws := w.wire
	ws.mu.Lock()
	if ws.closed {
		ws.mu.Unlock()
		ln.Close()
		return nil, errWireClosed
	}
	ws.listeners = append(ws.listeners, ln)
	ws.wg.Add(1)
	ws.mu.Unlock()

	go func() {
		defer ws.wg.Done()
		for {
			fd, err := ln.Accept()
			if err != nil {
				return // CloseWire closed the listener
			}
			if !w.promote(n, fd) {
				fd.Close()
				return
			}
		}
	}()
	addr := ln.Addr().(*net.TCPAddr)
	return enode.New(n.Node.ID, addr.IP, uint16(addr.Port), uint16(addr.Port)), nil
}

// promote hands the server end of one connection to n: it draws the
// connection's attack seed and occupancy, registers the conn for
// CloseWire, and runs serveWire on it until the peer hangs up, when
// the node demotes. It reports false, touching nothing, once
// CloseWire has run.
func (w *World) promote(n *SimNode, server net.Conn) bool {
	ws := w.wire
	ws.mu.Lock()
	if ws.closed {
		ws.mu.Unlock()
		return false
	}
	ws.conns[server] = struct{}{}
	seed := ws.rng.Int63()
	occupied := !n.Hostile && ws.rng.Float64() < n.Occupancy
	ws.promotions.Inc()
	ws.active.Set(int64(len(ws.conns)))
	ws.wg.Add(1)
	ws.mu.Unlock()

	go func() {
		defer ws.wg.Done()
		defer func() {
			server.Close()
			ws.mu.Lock()
			delete(ws.conns, server)
			ws.demotions.Inc()
			ws.active.Set(int64(len(ws.conns)))
			ws.mu.Unlock()
		}()
		w.serveWire(n, server, seed, occupied)
	}()
	return true
}

// CloseWire closes every loopback listener, severs every promoted
// connection and waits for all serving goroutines to demote. Call
// when done with a WireFidelity world; analytic worlds have nothing
// to close.
func (w *World) CloseWire() {
	ws := w.wire
	ws.mu.Lock()
	ws.closed = true
	listeners := ws.listeners
	ws.listeners = nil
	conns := make([]net.Conn, 0, len(ws.conns))
	for c := range ws.conns {
		conns = append(conns, c)
	}
	ws.mu.Unlock()
	for _, ln := range listeners {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	ws.wg.Wait()
}

// serveWire runs one promoted connection to completion.
func (w *World) serveWire(n *SimNode, fd net.Conn, seed int64, occupied bool) {
	if n.Hostile {
		// The hostile projection is faultnet's own attack code, the
		// same bytes over a pipe or a loopback socket.
		faultnet.ServeConn(n.HostileKind, n.key, seed, fd)
		return
	}
	w.serveHonest(n, fd, occupied)
}

// serveHonest speaks the node's honest protocol for one connection:
// RLPx accept with the node's real key, then HELLO, STATUS, and
// header serving per the node's simulated identity. The server reads
// before writing at each exchange; the buffered pipe makes ordering
// safe regardless.
func (w *World) serveHonest(n *SimNode, fd net.Conn, occupied bool) {
	// Wall time by design: connection deadlines are wall-clock instants
	// guarding real goroutines, not simulated events.
	fd.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	conn, err := rlpx.AcceptTimeout(fd, n.key, wireHandshakeTimeout)
	if err != nil {
		return
	}
	now := w.Clock.Now()

	// Peer-limit rejection happens before HELLO, matching the
	// analytic dialer's model: the crawler sees a DISCONNECT where
	// the HELLO belongs and no handshake is recorded.
	if occupied {
		devp2p.SendDisconnect(conn, devp2p.DiscTooManyPeers) //nolint:errcheck
		drain(conn)
		return
	}

	s := new(session)
	var ours nodefinder.DialResult
	w.answer(&ours, &s.ours, n, now)
	s.theirs.Caps = s.theirCaps[:0]
	if err := devp2p.ReadHelloCaps(conn, &s.theirs, s.ours.Caps); err != nil {
		return
	}
	if err := devp2p.SendHello(conn, &s.ours); err != nil {
		return
	}
	ethCap, ok := eth.Negotiate(conn, &s.ours, &s.theirs)
	if ours.Status == nil || !ok {
		// Non-eth service (or no shared eth cap): the crawler learns
		// the HELLO and cuts us loose as a useless peer.
		drain(conn)
		return
	}

	if err := eth.SkipStatus(conn, ethCap.Offset); err != nil {
		return
	}
	best := ours.BestBlock
	if err := eth.SendStatus(conn, ethCap.Offset, n.Network.head(best).statusAt(ethCap.Version)); err != nil {
		return
	}
	header := func(num uint64) *chain.Header { return n.Network.headerAt(best, num) }

	// Serve requests (the DAO-fork header check, pings) until the
	// crawler disconnects.
	for {
		code, payload, err := conn.ReadMsg()
		if err != nil {
			return
		}
		switch code {
		case devp2p.DiscMsg:
			return
		case devp2p.PingMsg:
			if err := devp2p.SendPong(conn); err != nil {
				return
			}
		case ethCap.Offset + eth.GetBlockHeadersMsg:
			if err := rlp.DecodeBytes(payload, &s.req); err != nil {
				return
			}
			s.headers = eth.ServeHeaders(s.room[:0], &s.req, header)
			if err := devp2p.WriteValue(conn, ethCap.Offset+eth.BlockHeadersMsg, &s.headers); err != nil {
				return
			}
		default:
			// Ignore broadcast traffic.
		}
	}
}

// session is serveHonest's scratch for one connection, in one
// allocation: the node's HELLO, what negotiation needs of the
// crawler's (its STATUS is checked and dropped), and the headers it
// answers with.
type session struct {
	ours, theirs devp2p.Hello
	theirCaps    [2]devp2p.Cap // the crawler's caps that are also ours
	req          eth.GetBlockHeaders
	headers      []*chain.Header
	room         [1]*chain.Header // the one header a DAO check asks for
}

// drain reads until the peer hangs up, so the crawler's trailing
// writes (DISCONNECT) land instead of erroring.
func drain(conn *rlpx.Conn) {
	for {
		if _, _, err := conn.ReadMsg(); err != nil {
			return
		}
	}
}
