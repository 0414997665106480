package nodefinder

import (
	"errors"
	"fmt"
	"math/big"
	"net"
	"net/netip"
	"strconv"
	"sync"
	"time"

	"repro/internal/chain"
	"repro/internal/crypto/secp256k1"
	"repro/internal/devp2p"
	"repro/internal/discv4"
	"repro/internal/enode"
	"repro/internal/eth"
	"repro/internal/nodefinder/mlog"
	"repro/internal/rlpx"
	"repro/internal/simclock"
)

// RealDiscovery adapts a discv4.Transport to the Discovery interface.
type RealDiscovery struct {
	T *discv4.Transport
}

// Self implements Discovery.
func (d RealDiscovery) Self() enode.ID { return d.T.Self() }

// Lookup implements Discovery; the lookup runs on its own goroutine.
func (d RealDiscovery) Lookup(target enode.ID, done func([]*enode.Node)) {
	go func() {
		done(d.T.Lookup(target))
	}()
}

// RealDialer performs the paper's connection-establishment chain over
// real TCP: RLPx handshake, DEVp2p HELLO, eth STATUS, DAO-fork header
// check, then immediate disconnect.
type RealDialer struct {
	Key *secp256k1.PrivateKey
	// Hello is the HELLO NodeFinder announces. Its ID field is
	// filled automatically. It and Status are read at the first Dial.
	Hello devp2p.Hello
	// Status is the eth STATUS NodeFinder announces (it mirrors
	// Mainnet identity so peers complete the exchange); its
	// ProtocolVersion is the one each session negotiates.
	Status eth.Status
	// DialTimeout bounds TCP connection establishment (the paper
	// keeps Geth's 15 s default).
	DialTimeout time.Duration
	// Budget bounds the whole post-connect establishment chain (RLPx
	// handshake through disconnect) with a single socket deadline, so
	// a peer that stalls mid-handshake or trickles bytes one at a
	// time ("slow loris") cannot hold a dial slot longer than this.
	// Zero applies DefaultDialBudget; negative disables the budget
	// and falls back to per-message deadlines only.
	Budget time.Duration
	// CheckDAO controls whether the fork check runs after a
	// compatible STATUS.
	CheckDAO bool
	// DialFunc overrides TCP connection establishment; the chaos
	// harness injects transport faults here. Nil uses
	// net.DialTimeout.
	DialFunc func(network, address string, timeout time.Duration) (net.Conn, error)
	// Metrics, when non-nil, receives per-outcome dial telemetry.
	Metrics *DialerMetrics
	// Clock supplies timestamps and durations; nil uses the system
	// clock. Simulation harnesses inject simclock.Simulated here so
	// dial timings land on the virtual timeline.
	Clock simclock.Clock

	once     sync.Once    // builds hello and statuses at the first Dial
	hello    devp2p.Hello // Hello with its ID
	statuses []eth.Status // Status at each eth version Hello lists
}

// announce builds what the dialer tells every peer. Dials only read it,
// so none sends a copy of its own.
func (d *RealDialer) announce() {
	d.hello = d.Hello
	d.hello.ID = enode.PubkeyID(&d.Key.Pub)
	for _, c := range d.Hello.Caps {
		st := d.Status
		st.ProtocolVersion = uint32(c.Version)
		if st.TD == nil {
			st.TD = new(big.Int)
		}
		if c.Name == eth.ProtocolName {
			d.statuses = append(d.statuses, st)
		}
	}
}

// dialAddr is n.TCPAddr().String() in one allocation, the string.
func dialAddr(n *enode.Node) string {
	var buf [64]byte
	if ip, ok := netip.AddrFromSlice(n.IP); ok {
		return string(netip.AddrPortFrom(ip.Unmap(), n.TCP).AppendTo(buf[:0]))
	}
	return string(strconv.AppendUint(append(buf[:0], ':'), uint64(n.TCP), 10))
}

func (d *RealDialer) clock() simclock.Clock {
	if d.Clock != nil {
		return d.Clock
	}
	return simclock.System{}
}

// DefaultDialTimeout is Geth's defaultDialTimeout (§4).
const DefaultDialTimeout = 15 * time.Second

// DefaultDialBudget bounds one connection's establishment chain. The
// chain is at most three message exchanges (§4), each of which
// completes in a handful of RTTs against an honest peer; 30 s is
// generous for the slowest real link while still guaranteeing dial
// slots turn over under adversarial stalling.
const DefaultDialBudget = 30 * time.Second

// Dial implements Dialer.
func (d *RealDialer) Dial(n *enode.Node, kind mlog.ConnType, done func(*DialResult)) {
	go func() {
		res := d.dial(n, kind)
		d.Metrics.Observe(res)
		done(res)
	}()
}

func (d *RealDialer) dial(n *enode.Node, kind mlog.ConnType) *DialResult {
	clk := d.clock()
	res := &DialResult{Node: n, Kind: kind, Start: clk.Now()}
	timeout := d.DialTimeout
	if timeout == 0 {
		timeout = DefaultDialTimeout
	}

	dialFn := d.DialFunc
	if dialFn == nil {
		dialFn = net.DialTimeout
	}
	tcpStart := clk.Now()
	fd, err := dialFn("tcp", dialAddr(n), timeout)
	if err != nil {
		res.Err = fmt.Errorf("tcp dial: %w", err)
		res.Duration = clk.Since(res.Start)
		return res
	}
	res.RTT = clk.Since(tcpStart) // SYN round trip approximates sRTT
	defer fd.Close()
	// Every return from here on is timed before the close.
	defer func() { res.Duration = clk.Since(res.Start) }()

	// The per-dial budget is one absolute deadline covering every
	// read and write that follows; rlpx's own handshake timeout and
	// per-message deadlines are disabled so they cannot extend it.
	// Wall time by design: a socket deadline is an instant the conn
	// compares against real time, whatever clock times the dial.
	budget := d.Budget
	if budget == 0 {
		budget = DefaultDialBudget
	}
	handshakeTimeout := rlpx.HandshakeTimeout
	if budget > 0 {
		fd.SetDeadline(time.Now().Add(budget)) //nolint:errcheck
		handshakeTimeout = 0
	}

	conn, err := rlpx.InitiateTimeout(fd, d.Key, n.ID, handshakeTimeout)
	if err != nil {
		res.Err = fmt.Errorf("rlpx: %w", err)
		return res
	}
	if budget > 0 {
		conn.SetTimeouts(0, 0)
	}

	// DEVp2p HELLO exchange.
	d.once.Do(d.announce)
	theirs, err := devp2p.ExchangeHello(conn, &d.hello)
	if err != nil {
		var de devp2p.DisconnectError
		if errors.As(err, &de) {
			res.Disconnect = &de.Reason
		} else {
			res.Err = err
		}
		return res
	}
	res.Hello = theirs

	// Without a shared eth capability there is nothing more to learn.
	ethCap, ok := eth.Negotiate(conn, &d.hello, theirs)
	if !ok {
		devp2p.SendDisconnect(conn, devp2p.DiscUselessPeer) //nolint:errcheck
		return res
	}

	// eth STATUS exchange, at the version both sides speak: one our
	// HELLO lists, so announce built its STATUS.
	status := &d.statuses[0]
	for i := range d.statuses {
		if d.statuses[i].ProtocolVersion == uint32(ethCap.Version) {
			status = &d.statuses[i]
		}
	}
	if err := eth.SendStatus(conn, ethCap.Offset, status); err != nil {
		res.Err = err
		return res
	}
	theirStatus, err := eth.ReadStatus(conn, ethCap.Offset)
	if err != nil {
		var de devp2p.DisconnectError
		if errors.As(err, &de) {
			res.Disconnect = &de.Reason
		} else {
			res.Err = err
		}
		return res
	}
	res.Status = theirStatus

	// DAO-fork verification for compatible Mainnet peers.
	if d.CheckDAO && theirStatus.NetworkID == chain.MainnetNetworkID {
		support, err := eth.VerifyDAOFork(conn, ethCap.Offset)
		if err == nil {
			res.DAOFork = support
			res.DAOChecked = true
		}
	}

	// Done collecting: free the peer slot immediately (§4).
	devp2p.SendDisconnect(conn, devp2p.DiscRequested) //nolint:errcheck
	return res
}
