package nodefinder

import (
	"fmt"
	"math/big"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/crypto/secp256k1"
	"repro/internal/devp2p"
	"repro/internal/enode"
	"repro/internal/eth"
	"repro/internal/nodefinder/mlog"
	"repro/internal/rlpx"
	"repro/internal/simclock"
	"repro/internal/testutil/leakcheck"
)

// listenerFixture serves a Finder's inbound sessions.
func listenerFixture(t *testing.T) (*Listener, *Finder, *mlog.Collector, *eth.Status) {
	t.Helper()
	// c is the STATUS of the chain the peers share: network 1 under a
	// genesis of its own, eight blocks long.
	c := &eth.Status{ProtocolVersion: uint32(eth.Version63), NetworkID: 1,
		TD: big.NewInt(8 * 131072), BestHash: chain.Hash{8}, GenesisHash: chain.Hash{0x11, 0x57}}
	key, err := secp256k1.GenerateKey(rand.New(rand.NewSource(500)))
	if err != nil {
		t.Fatal(err)
	}
	col := mlog.NewCollector()
	clock := simclock.NewSimulated(t0)
	w := newFakeWorld(clock, 0)
	f := newTestFinder(t, clock, w, col)

	hello := devp2p.Hello{
		Version: devp2p.Version,
		Name:    "NodeFinder/test",
		Caps:    []devp2p.Cap{{Name: "eth", Version: 62}, {Name: "eth", Version: 63}},
	}
	status := eth.Status{ProtocolVersion: uint32(eth.Version63), NetworkID: 1,
		TD: new(big.Int), BestHash: c.GenesisHash, GenesisHash: c.GenesisHash}
	l, err := ListenIncoming("", key, hello, status, f)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	return l, f, col, c
}

// inboundClient dials the listener and completes the handshake chain
// from the peer's side.
func inboundClient(t *testing.T, l *Listener, name string, caps []devp2p.Cap, c *eth.Status, sendStatus bool) {
	t.Helper()
	key, err := secp256k1.GenerateKey(rand.New(rand.NewSource(501)))
	if err != nil {
		t.Fatal(err)
	}
	fd, err := net.DialTimeout("tcp", l.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	conn, err := rlpx.Initiate(fd, key, l.Hello.ID)
	if err != nil {
		t.Fatal(err)
	}
	hello := &devp2p.Hello{
		Version: devp2p.Version, Name: name, Caps: caps,
		ID: enode.PubkeyID(&key.Pub),
	}
	theirs, err := devp2p.ExchangeHello(conn, hello)
	if err != nil {
		t.Fatalf("hello: %v", err)
	}
	if hello.Version >= devp2p.Version && theirs.Version >= devp2p.Version {
		conn.SetSnappy(true)
	}
	if !sendStatus {
		devp2p.SendDisconnect(conn, devp2p.DiscQuitting) //nolint:errcheck
		return
	}
	offset := devp2p.BaseProtocolLength
	if err := eth.SendStatus(conn, offset, c); err != nil {
		t.Fatal(err)
	}
	if _, err := eth.ReadStatus(conn, offset); err != nil {
		t.Fatalf("status: %v", err)
	}
	// Wait for the listener's polite disconnect.
	conn.ReadMsg() //nolint:errcheck
}

// waitIncoming waits for want inbound sessions to be logged. The
// Finder counts a session before it writes the log entry, so the log is
// what to wait on.
func waitIncoming(t *testing.T, col *mlog.Collector, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(col.Entries()) >= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("incoming log never reached %d entries (have %d)", want, len(col.Entries()))
}

func TestListenerRecordsEthPeer(t *testing.T) {
	leakcheck.Check(t)
	l, f, col, c := listenerFixture(t)
	inboundClient(t, l, "Geth/v1.8.10-stable/linux", []devp2p.Cap{{Name: "eth", Version: 63}}, c, true)
	waitIncoming(t, col, 1)
	if got := f.Stats().IncomingConns; got != 1 {
		t.Errorf("%d incoming conns counted", got)
	}

	entries := col.Entries()
	if len(entries) != 1 {
		t.Fatalf("%d entries", len(entries))
	}
	e := entries[0]
	if e.ConnType != mlog.ConnIncoming {
		t.Error("wrong conn type")
	}
	if e.Hello == nil || e.Hello.ClientName != "Geth/v1.8.10-stable/linux" {
		t.Fatalf("hello: %+v", e.Hello)
	}
	if e.Status == nil || e.Status.GenesisHash != c.GenesisHash.Hex() {
		t.Fatalf("status: %+v", e.Status)
	}
	if e.DurationUS <= 0 {
		t.Error("duration missing")
	}
}

func TestListenerRecordsNonEthPeer(t *testing.T) {
	leakcheck.Check(t)
	l, _, col, c := listenerFixture(t)
	inboundClient(t, l, "swarm/v0.3", []devp2p.Cap{{Name: "bzz", Version: 2}}, c, false)
	waitIncoming(t, col, 1)
	e := col.Entries()[0]
	if e.Hello == nil || e.Hello.ClientName != "swarm/v0.3" {
		t.Fatalf("hello: %+v", e.Hello)
	}
	if e.Status != nil {
		t.Error("phantom status for bzz-only peer")
	}
}

func TestListenerSurvivesGarbage(t *testing.T) {
	leakcheck.Check(t)
	l, _, col, c := listenerFixture(t)
	// Raw junk: handshake fails, nothing recorded, listener lives.
	fd, err := net.DialTimeout("tcp", l.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	fd.Write([]byte("definitely not an RLPx auth packet")) //nolint:errcheck
	fd.Close()
	time.Sleep(100 * time.Millisecond)

	// A well-formed session still works afterwards.
	inboundClient(t, l, "Geth/v1.8.11-stable/linux", []devp2p.Cap{{Name: "eth", Version: 63}}, c, true)
	waitIncoming(t, col, 1)
}

func TestListenerCloseIdempotent(t *testing.T) {
	leakcheck.Check(t)
	l, _, _, _ := listenerFixture(t)
	l.Close()
	l.Close()
}

// statusPeer serves one session on a loopback port as a peer speaking
// devp2p version would. It decides compression by the protocol's rule
// (on when both sides speak v5) itself rather than through
// eth.Negotiate, so a dialer that gets the rule wrong is misread. The
// channel yields the STATUS it decoded from the dialer, or nil.
func statusPeer(t *testing.T, version uint64, status *eth.Status) (*enode.Node, <-chan *eth.Status) {
	t.Helper()
	key, err := secp256k1.GenerateKey(rand.New(rand.NewSource(500)))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	got := make(chan *eth.Status, 1)
	go func() {
		var decoded *eth.Status
		defer func() { got <- decoded }()
		fd, err := ln.Accept()
		if err != nil {
			return
		}
		defer fd.Close()
		conn, err := rlpx.Accept(fd, key)
		if err != nil {
			return
		}
		hello := &devp2p.Hello{Version: version, Name: "Geth/v1.7.3-stable/linux",
			Caps: []devp2p.Cap{{Name: "eth", Version: 63}}, ID: enode.PubkeyID(&key.Pub)}
		theirs, err := devp2p.ExchangeHello(conn, hello)
		if err != nil {
			return
		}
		if version >= 5 && theirs.Version >= 5 {
			conn.SetSnappy(true)
		}
		if decoded, err = eth.ReadStatus(conn, devp2p.BaseProtocolLength); err != nil {
			return
		}
		eth.SendStatus(conn, devp2p.BaseProtocolLength, status) //nolint:errcheck
		conn.ReadMsg()                                          //nolint:errcheck // the dialer's DISCONNECT
	}()
	addr := ln.Addr().(*net.TCPAddr)
	return enode.New(enode.PubkeyID(&key.Pub), addr.IP, uint16(addr.Port), uint16(addr.Port)), got
}

// TestRealDialerNegotiatesSnappy dials a pre-snappy (devp2p v4) peer
// and a v5 one. Payloads are snappy-compressed only when both sides
// speak v5, so each side must decode the other's STATUS: a dialer that
// compressed for a v4 peer, or did not for a v5 one, reads garbage.
func TestRealDialerNegotiatesSnappy(t *testing.T) {
	leakcheck.Check(t)
	for _, version := range []uint64{devp2p.Version - 1, devp2p.Version} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			c := &eth.Status{ProtocolVersion: uint32(eth.Version63), NetworkID: 1,
				TD: big.NewInt(8 * 131072), BestHash: chain.Hash{8}, GenesisHash: chain.Hash{0x11, 0x57}}
			peer, got := statusPeer(t, version, c)
			key, err := secp256k1.GenerateKey(rand.New(rand.NewSource(502)))
			if err != nil {
				t.Fatal(err)
			}
			d := &RealDialer{
				Key:    key,
				Hello:  devp2p.Hello{Version: devp2p.Version, Name: "NodeFinder/test", Caps: []devp2p.Cap{{Name: "eth", Version: 63}}},
				Status: eth.Status{NetworkID: 1, TD: new(big.Int), BestHash: c.GenesisHash, GenesisHash: c.GenesisHash},
			}
			res := d.dial(peer, mlog.ConnStaticDial)
			if res.Outcome() != OutcomeEthHandshake || res.Hello.Version != version {
				t.Fatalf("dial of a v%d peer: %v (err %v), HELLO %+v", version, res.Outcome(), res.Err, res.Hello)
			}
			if res.Status.GenesisHash != c.GenesisHash {
				t.Errorf("peer's STATUS decoded with genesis %x, want %x", res.Status.GenesisHash, c.GenesisHash)
			}
			if st := <-got; st == nil || st.GenesisHash != c.GenesisHash {
				t.Errorf("the peer could not decode the dialer's STATUS: %+v", st)
			}
		})
	}
}
