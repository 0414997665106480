package simnet_test

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/devp2p"
	"repro/internal/enode"
	"repro/internal/eth"
	"repro/internal/rlp"
	"repro/internal/rlpx"
	"repro/internal/simnet"
	"repro/internal/testutil/leakcheck"
)

// headerSession dials n through DialWire and runs the session as far
// as the eth STATUS, as a crawler does. It returns a function that asks
// n for headers once and returns the answer.
func headerSession(t *testing.T, w *simnet.World, n *simnet.SimNode) func(eth.GetBlockHeaders) []*chain.Header {
	t.Helper()
	n.Occupancy = 0
	fd, err := w.DialWire("tcp", n.Node.TCPAddr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fd.Close() })
	key := wireKey(t, 4243)
	conn, err := rlpx.Initiate(fd, key, n.Node.ID)
	if err != nil {
		t.Fatal(err)
	}
	hello := &devp2p.Hello{Version: devp2p.Version, Name: "headers/test",
		Caps: []devp2p.Cap{{Name: "eth", Version: 63}}, ID: enode.PubkeyID(&key.Pub)}
	theirs, err := devp2p.ExchangeHello(conn, hello)
	if err != nil {
		t.Fatal(err)
	}
	ethCap, ok := eth.Negotiate(conn, hello, theirs)
	if !ok {
		t.Fatalf("node offers no eth: %v", theirs.Caps)
	}
	status := eth.MainnetStatus()
	if err := eth.SendStatus(conn, ethCap.Offset, &status); err != nil {
		t.Fatal(err)
	}
	if _, err := eth.ReadStatus(conn, ethCap.Offset); err != nil {
		t.Fatal(err)
	}
	return func(req eth.GetBlockHeaders) []*chain.Header {
		t.Helper()
		if err := eth.RequestHeaders(conn, ethCap.Offset, &req); err != nil {
			t.Fatal(err)
		}
		code, payload, err := conn.ReadMsg()
		if err != nil || code != ethCap.Offset+eth.BlockHeadersMsg {
			t.Fatalf("answer: code %#x, err %v", code, err)
		}
		var headers []*chain.Header
		if err := rlp.DecodeBytes(payload, &headers); err != nil {
			t.Fatal(err)
		}
		return headers
	}
}

// TestServedHeaders asks promoted nodes for headers over the wire. The
// DAO fork header separates pro-fork, anti-fork and pre-fork nodes;
// skips walk forward and back and end rather than wrap the uint64
// range; the answer stops at the head and at genesis, is clamped to
// eth.MaxHeadersServe, and is empty for a hash origin.
func TestServedHeaders(t *testing.T) {
	leakcheck.Check(t)
	w := wireWorld(t, 7, nil)
	now := w.Clock.Now()
	pick := func(what string, ok func(*simnet.SimNode, uint64) bool) *simnet.SimNode {
		for _, n := range w.Nodes {
			if n.Service == simnet.SvcEth && !n.Hostile && n.OnlineAt(now) && ok(n, n.BestBlockAt(now)) {
				return n
			}
		}
		t.Fatalf("no online %s node in the world", what)
		return nil
	}
	pastFork := func(n *simnet.SimNode, best uint64) bool {
		return n.Network.NetworkID == chain.MainnetNetworkID && best >= chain.DAOForkBlock+10
	}
	proFork := pick("pro-fork", func(n *simnet.SimNode, best uint64) bool { return pastFork(n, best) && n.Network.DAOFork })
	antiFork := pick("anti-fork", func(n *simnet.SimNode, best uint64) bool { return pastFork(n, best) && !n.Network.DAOFork })
	preFork := pick("pre-fork", func(n *simnet.SimNode, best uint64) bool {
		return best < chain.DAOForkBlock && best > eth.MaxHeadersServe
	})

	daoReq := eth.GetBlockHeaders{Origin: eth.HashOrNumber{Number: chain.DAOForkBlock}, Amount: 1}
	for _, tc := range []struct {
		name string
		n    *simnet.SimNode
		want []bool // SupportsDAOFork of each header answered
	}{
		{"pro-fork", proFork, []bool{true}},
		{"anti-fork", antiFork, []bool{false}},
		{"pre-fork", preFork, nil},
	} {
		var got []bool
		for _, h := range headerSession(t, w, tc.n)(daoReq) {
			got = append(got, h.SupportsDAOFork())
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s node: DAO fork header stances %v, want %v", tc.name, got, tc.want)
		}
	}

	ask := headerSession(t, w, proFork)
	best := proFork.BestBlockAt(now)
	number := func(n uint64) eth.HashOrNumber { return eth.HashOrNumber{Number: n} }
	for _, tc := range []struct {
		name string
		req  eth.GetBlockHeaders
		want []uint64 // block numbers answered; nil for none
	}{
		{"skip forward", eth.GetBlockHeaders{Origin: number(10), Amount: 3, Skip: 45}, []uint64{10, 56, 102}},
		{"skip back to genesis", eth.GetBlockHeaders{Origin: number(10), Amount: 5, Skip: 4, Reverse: true}, []uint64{10, 5, 0}},
		{"skip past genesis", eth.GetBlockHeaders{Origin: number(10), Amount: 5, Skip: 10, Reverse: true}, []uint64{10}},
		{"skip 2^64-1", eth.GetBlockHeaders{Origin: number(10), Amount: 5, Skip: math.MaxUint64}, []uint64{10}},
		{"skip 2^64-1 reverse", eth.GetBlockHeaders{Origin: number(10), Amount: 5, Skip: math.MaxUint64, Reverse: true}, []uint64{10}},
		{"skip 2^63", eth.GetBlockHeaders{Origin: number(10), Amount: 5, Skip: 1 << 63}, []uint64{10}},
		{"skip 2^63 reverse", eth.GetBlockHeaders{Origin: number(10), Amount: 5, Skip: 1 << 63, Reverse: true}, []uint64{10}},
		{"up to the head", eth.GetBlockHeaders{Origin: number(best - 1), Amount: 5}, []uint64{best - 1, best}},
		{"past the head", eth.GetBlockHeaders{Origin: number(best + 1), Amount: 1}, nil},
		{"zero amount", eth.GetBlockHeaders{Origin: number(10)}, nil},
		{"hash origin", eth.GetBlockHeaders{Origin: eth.HashOrNumber{Hash: chain.MainnetGenesisHash, IsHash: true}, Amount: 1}, nil},
	} {
		var got []uint64
		for _, h := range ask(tc.req) {
			got = append(got, h.Number.Uint64())
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: answered blocks %v, want %v", tc.name, got, tc.want)
		}
	}

	// The fork window is ten blocks long.
	var stances []bool
	for _, h := range ask(eth.GetBlockHeaders{Origin: number(chain.DAOForkBlock + 8), Amount: 3}) {
		stances = append(stances, h.SupportsDAOFork())
	}
	if want := []bool{true, true, false}; !slices.Equal(stances, want) {
		t.Errorf("blocks 8–10 past the fork: stances %v, want %v", stances, want)
	}

	// A demand for 2^64-1 headers gets MaxHeadersServe, either way.
	for _, req := range []eth.GetBlockHeaders{
		{Origin: number(0), Amount: math.MaxUint64},
		{Origin: number(best), Amount: math.MaxUint64, Reverse: true},
	} {
		hs := ask(req)
		if len(hs) != eth.MaxHeadersServe {
			t.Fatalf("reverse=%v: Amount 2^64-1 answered %d headers, want MaxHeadersServe = %d", req.Reverse, len(hs), eth.MaxHeadersServe)
		}
		if last, want := hs[len(hs)-1].Number.Uint64(), req.Origin.Number+eth.MaxHeadersServe-1; !req.Reverse && last != want {
			t.Errorf("forward clamp ends at block %d, want %d", last, want)
		}
	}
}
