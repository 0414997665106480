package bench

import (
	"errors"
	"fmt"
	"math/big"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/chain"
	"repro/internal/crypto/secp256k1"
	"repro/internal/devp2p"
	"repro/internal/enode"
	"repro/internal/eth"
	"repro/internal/nodefinder"
	"repro/internal/nodefinder/mlog"
	"repro/internal/rlpx"
)

// stagedDialer is the traced stand-in for nodefinder.RealDialer: it
// calls the same public functions in the same order (DialFunc →
// rlpx.InitiateTimeout → devp2p.ExchangeHello → eth.SendStatus /
// ReadStatus → eth.VerifyDAOFork → devp2p.SendDisconnect) with a span
// around each stage. RealDialer has no seam between its stages, so
// attributing a dial's time to them needs this copy; it is used only
// for attribution, never for an end-to-end number, and a test pins it
// to RealDialer result for result.
type stagedDialer struct {
	tr       *Tracer
	key      *secp256k1.PrivateKey
	hello    devp2p.Hello
	status   eth.Status
	dialFunc func(network, address string, timeout time.Duration) (net.Conn, error)

	next  atomic.Uint64
	bytes atomic.Int64 // bytes that crossed the client end of every conn

	kDial, kDialWire, kWait, kHandshake, kHello, kStatus, kDAO, kDisconnect Kind
}

func newStagedDialer(tr *Tracer, key *secp256k1.PrivateKey, hello devp2p.Hello, status eth.Status,
	dialFunc func(string, string, time.Duration) (net.Conn, error)) *stagedDialer {
	hello.ID = enode.PubkeyID(&key.Pub)
	return &stagedDialer{
		tr: tr, key: key, hello: hello, status: status, dialFunc: dialFunc,
		kDial: tr.Kind(spanWireDial), kDialWire: tr.Kind(spanDialWire), kWait: tr.Kind(spanReadWait),
		kHandshake: tr.Kind(spanHandshake), kHello: tr.Kind(spanHello), kStatus: tr.Kind(spanStatus),
		kDAO: tr.Kind(spanDAO), kDisconnect: tr.Kind(spanDisconnect),
	}
}

// Dial implements nodefinder.Dialer. The dial span starts here, on the
// caller's goroutine, and ends on the dial goroutine just before done,
// so its self time is the per-dial wall outside the stages: goroutine
// start, result assembly and scheduling.
func (d *stagedDialer) Dial(n *enode.Node, kind mlog.ConnType, done func(*nodefinder.DialResult)) {
	th := d.tr.NewThread()
	th.BeginAt(d.kDial, d.tr.now(), d.next.Add(1))
	go func() {
		res := d.dial(th, n, kind)
		th.Pop()
		th.Close()
		done(res)
	}()
}

func (d *stagedDialer) dial(th *Thread, n *enode.Node, kind mlog.ConnType) *nodefinder.DialResult {
	res := &nodefinder.DialResult{Node: n, Kind: kind, Start: time.Now()}
	finish := func() *nodefinder.DialResult {
		res.Duration = time.Since(res.Start)
		return res
	}

	th.Begin(d.kDialWire)
	fd, err := d.dialFunc("tcp", n.TCPAddr().String(), nodefinder.DefaultDialTimeout)
	th.Pop()
	if err != nil {
		res.Err = fmt.Errorf("tcp dial: %w", err)
		return finish()
	}
	res.RTT = time.Since(res.Start)
	fd = &tracedConn{Conn: fd, th: th, kWait: d.kWait, bytes: &d.bytes}
	defer fd.Close()
	// One absolute deadline covers the whole chain, as in RealDialer.
	fd.SetDeadline(time.Now().Add(nodefinder.DefaultDialBudget)) //nolint:errcheck

	th.Begin(d.kHandshake)
	conn, err := rlpx.InitiateTimeout(fd, d.key, n.ID, 0)
	th.Pop()
	if err != nil {
		res.Err = fmt.Errorf("rlpx: %w", err)
		return finish()
	}
	conn.SetTimeouts(0, 0)

	th.Begin(d.kHello)
	hello := d.hello
	theirs, err := devp2p.ExchangeHello(conn, &hello)
	th.Pop()
	if err != nil {
		setDisconnectOrErr(res, err)
		return finish()
	}
	res.Hello = theirs
	if hello.Version >= devp2p.Version && theirs.Version >= devp2p.Version {
		conn.SetSnappy(true)
	}

	var ethCap *devp2p.NegotiatedCap
	caps := devp2p.MatchCaps(hello.Caps, theirs.Caps, map[string]uint64{eth.ProtocolName: eth.ProtocolLength})
	for i := range caps {
		if caps[i].Name == eth.ProtocolName {
			ethCap = &caps[i]
		}
	}
	if ethCap == nil {
		th.Begin(d.kDisconnect)
		devp2p.SendDisconnect(conn, devp2p.DiscUselessPeer) //nolint:errcheck
		th.Pop()
		return finish()
	}

	th.Begin(d.kStatus)
	status := d.status
	status.ProtocolVersion = uint32(ethCap.Version)
	if status.TD == nil {
		status.TD = new(big.Int)
	}
	err = eth.SendStatus(conn, ethCap.Offset, &status)
	var theirStatus *eth.Status
	if err == nil {
		theirStatus, err = eth.ReadStatus(conn, ethCap.Offset)
	}
	th.Pop()
	if err != nil {
		setDisconnectOrErr(res, err)
		return finish()
	}
	res.Status = theirStatus

	if theirStatus.NetworkID == chain.MainnetNetworkID {
		th.Begin(d.kDAO)
		support, err := eth.VerifyDAOFork(conn, ethCap.Offset)
		th.Pop()
		if err == nil {
			res.DAOFork, res.DAOChecked = support, true
		}
	}

	th.Begin(d.kDisconnect)
	devp2p.SendDisconnect(conn, devp2p.DiscRequested) //nolint:errcheck
	th.Pop()
	return finish()
}

func setDisconnectOrErr(res *nodefinder.DialResult, err error) {
	var de devp2p.DisconnectError
	if errors.As(err, &de) {
		res.Disconnect = &de.Reason
	} else {
		res.Err = err
	}
}
