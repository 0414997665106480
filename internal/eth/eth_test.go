package eth

import (
	"errors"
	"math"
	"math/big"
	"slices"
	"testing"

	"repro/internal/chain"
	"repro/internal/devp2p"
	"repro/internal/rlp"
)

// chanRW is an in-memory MsgReadWriter pair for protocol tests.
type chanRW struct {
	in, out chan wireMsg
}

type wireMsg struct {
	code    uint64
	payload []byte
}

func newChanRW() (*chanRW, *chanRW) {
	a := make(chan wireMsg, 32)
	b := make(chan wireMsg, 32)
	return &chanRW{in: a, out: b}, &chanRW{in: b, out: a}
}

func (c *chanRW) ReadMsg() (uint64, []byte, error) {
	m, ok := <-c.in
	if !ok {
		return 0, nil, errors.New("closed")
	}
	return m.code, m.payload, nil
}

func (c *chanRW) WriteMsg(code uint64, payload []byte) error {
	c.out <- wireMsg{code, payload}
	return nil
}

const offset = devp2p.BaseProtocolLength

// testStatus is a STATUS for a chain of the given network and genesis.
func testStatus(networkID uint64, genesis chain.Hash) *Status {
	return &Status{
		ProtocolVersion: uint32(Version63),
		NetworkID:       networkID,
		TD:              big.NewInt(5 * 131072),
		BestHash:        chain.Hash{5},
		GenesisHash:     genesis,
	}
}

// testChain is a synthesized header source for ServeHeaders: blocks 0
// to head, with the DAO fork's ten blocks carrying the pro-fork
// extra-data when proFork is set.
func testChain(head uint64, proFork bool) func(uint64) *chain.Header {
	return func(n uint64) *chain.Header {
		if n > head {
			return nil
		}
		h := &chain.Header{Difficulty: big.NewInt(131072), Number: new(big.Int).SetUint64(n)}
		if proFork && n >= chain.DAOForkBlock && n < chain.DAOForkBlock+10 {
			h.Extra = chain.DAOForkBlockExtra
		}
		return h
	}
}

func TestStatusExchange(t *testing.T) {
	sent := testStatus(1, chain.MainnetGenesisHash)
	a, b := newChanRW()

	go func() {
		s, err := ReadStatus(b, offset)
		if err != nil {
			t.Error(err)
			return
		}
		SendStatus(b, offset, s) //nolint:errcheck // echo back
	}()
	if err := SendStatus(a, offset, sent); err != nil {
		t.Fatal(err)
	}
	got, err := ReadStatus(a, offset)
	if err != nil {
		t.Fatal(err)
	}
	if got.NetworkID != 1 || got.GenesisHash != sent.GenesisHash || got.BestHash != sent.BestHash {
		t.Errorf("got %+v", got)
	}
	if got.TD.Cmp(sent.TD) != 0 {
		t.Error("TD mismatch")
	}
}

func TestReadStatusDisconnect(t *testing.T) {
	a, b := newChanRW()
	go devp2p.SendDisconnect(b, devp2p.DiscTooManyPeers) //nolint:errcheck
	_, err := ReadStatus(a, offset)
	var de devp2p.DisconnectError
	if !errors.As(err, &de) || de.Reason != devp2p.DiscTooManyPeers {
		t.Fatalf("got %v", err)
	}
}

func TestCheckCompatibility(t *testing.T) {
	s1, s2 := testStatus(1, chain.MainnetGenesisHash), testStatus(1, chain.MainnetGenesisHash)
	if err := CheckCompatibility(s1, s2); err != nil {
		t.Fatal(err)
	}
	if err := CheckCompatibility(s1, testStatus(3, chain.RopstenGenesisHash)); !errors.Is(err, ErrNetworkMismatch) {
		t.Errorf("network: %v", err)
	}
	if err := CheckCompatibility(s1, testStatus(1, chain.MordenGenesisHash)); !errors.Is(err, ErrGenesisMismatch) {
		t.Errorf("genesis: %v", err)
	}
	older := testStatus(1, chain.MainnetGenesisHash)
	older.ProtocolVersion = uint32(Version62)
	if err := CheckCompatibility(s1, older); !errors.Is(err, ErrProtocolMismatch) {
		t.Errorf("version: %v", err)
	}
}

func TestHashOrNumberRLP(t *testing.T) {
	// Number form.
	n := &GetBlockHeaders{Origin: HashOrNumber{Number: 1920000}, Amount: 1}
	enc, err := rlp.EncodeToBytes(n)
	if err != nil {
		t.Fatal(err)
	}
	var back GetBlockHeaders
	if err := rlp.DecodeBytes(enc, &back); err != nil {
		t.Fatal(err)
	}
	if back.Origin.IsHash || back.Origin.Number != 1920000 || back.Amount != 1 {
		t.Errorf("number form: %+v", back)
	}
	// Hash form.
	h := &GetBlockHeaders{Origin: HashOrNumber{Hash: chain.MainnetGenesisHash, IsHash: true}, Amount: 2, Skip: 3, Reverse: true}
	enc2, err := rlp.EncodeToBytes(h)
	if err != nil {
		t.Fatal(err)
	}
	var back2 GetBlockHeaders
	if err := rlp.DecodeBytes(enc2, &back2); err != nil {
		t.Fatal(err)
	}
	if !back2.Origin.IsHash || back2.Origin.Hash != chain.MainnetGenesisHash || !back2.Reverse || back2.Skip != 3 {
		t.Errorf("hash form: %+v", back2)
	}
}

func TestServeHeaders(t *testing.T) {
	c := testChain(50, false)
	// Forward span.
	hs := ServeHeaders(nil, &GetBlockHeaders{Origin: HashOrNumber{Number: 10}, Amount: 5}, c)
	if len(hs) != 5 || hs[0].Number.Uint64() != 10 || hs[4].Number.Uint64() != 14 {
		t.Fatalf("forward: %d headers", len(hs))
	}
	// With skip.
	hs = ServeHeaders(nil, &GetBlockHeaders{Origin: HashOrNumber{Number: 0}, Amount: 3, Skip: 9}, c)
	if len(hs) != 3 || hs[1].Number.Uint64() != 10 || hs[2].Number.Uint64() != 20 {
		t.Fatalf("skip: %+v", hs)
	}
	// Reverse.
	hs = ServeHeaders(nil, &GetBlockHeaders{Origin: HashOrNumber{Number: 10}, Amount: 3, Reverse: true}, c)
	if len(hs) != 3 || hs[2].Number.Uint64() != 8 {
		t.Fatalf("reverse: %+v", hs)
	}
	// By hash: no source is indexed by hash, so the answer is empty.
	hs = ServeHeaders(nil, &GetBlockHeaders{Origin: HashOrNumber{Hash: c(7).HashValue(), IsHash: true}, Amount: 1}, c)
	if hs != nil {
		t.Fatalf("by hash: %d headers, want none", len(hs))
	}
	// Beyond head truncates.
	hs = ServeHeaders(nil, &GetBlockHeaders{Origin: HashOrNumber{Number: 48}, Amount: 10}, c)
	if len(hs) != 3 {
		t.Fatalf("truncated: %d", len(hs))
	}
	// Unknown origin.
	if hs := ServeHeaders(nil, &GetBlockHeaders{Origin: HashOrNumber{Number: 999}, Amount: 1}, c); hs != nil {
		t.Fatal("phantom origin")
	}
}

// TestServeHeadersClampsAmount is the runtime twin of the
// MaxHeadersServe clamp: a peer asking for 2^64-1 headers gets exactly
// MaxHeadersServe of them, whichever way it walks the chain.
func TestServeHeadersClampsAmount(t *testing.T) {
	const head = MaxHeadersServe + 100
	c := testChain(head, false)
	for _, tc := range []struct {
		name string
		req  GetBlockHeaders
	}{
		{"forward", GetBlockHeaders{Origin: HashOrNumber{Number: 0}}},
		{"reverse from head", GetBlockHeaders{Origin: HashOrNumber{Number: head}, Reverse: true}},
	} {
		tc.req.Amount = math.MaxUint64
		if hs := ServeHeaders(nil, &tc.req, c); len(hs) != MaxHeadersServe {
			t.Errorf("%s: Amount 2^64-1 answered %d headers, want MaxHeadersServe = %d", tc.name, len(hs), MaxHeadersServe)
		}
	}
}

// TestServeHeadersSkipWrap holds ServeHeaders to the uint64 range: a
// Skip whose step would pass the last or the first block number ends
// the answer at the origin instead of wrapping around to it.
func TestServeHeadersSkipWrap(t *testing.T) {
	c := testChain(50, false)
	for _, tc := range []struct {
		name    string
		req     GetBlockHeaders
		numbers []uint64
	}{
		{"skip 2^64-1", GetBlockHeaders{Amount: 5, Skip: math.MaxUint64}, []uint64{10}},
		{"skip 2^64-1 reverse", GetBlockHeaders{Amount: 5, Skip: math.MaxUint64, Reverse: true}, []uint64{10}},
		{"skip 2^64-1 amount 2^64-1", GetBlockHeaders{Amount: math.MaxUint64, Skip: math.MaxUint64}, []uint64{10}},
		{"skip 2^63", GetBlockHeaders{Amount: 5, Skip: 1 << 63}, []uint64{10}},
		{"skip 2^63 reverse", GetBlockHeaders{Amount: 5, Skip: 1 << 63, Reverse: true}, []uint64{10}},
		{"skip to the head", GetBlockHeaders{Amount: 5, Skip: 39}, []uint64{10, 50}},
		{"skip to genesis", GetBlockHeaders{Amount: 5, Skip: 9, Reverse: true}, []uint64{10, 0}},
		{"skip past genesis", GetBlockHeaders{Amount: 5, Skip: 10, Reverse: true}, []uint64{10}},
	} {
		tc.req.Origin = HashOrNumber{Number: 10}
		hs := ServeHeaders(nil, &tc.req, c)
		got := make([]uint64, len(hs))
		for i, h := range hs {
			got[i] = h.Number.Uint64()
		}
		if !slices.Equal(got, tc.numbers) {
			t.Errorf("%s: answered %d headers %v…, want blocks %v", tc.name, len(got), got[:min(len(got), 5)], tc.numbers)
		}
	}
}

func TestVerifyDAOForkSupported(t *testing.T) {
	// Serve from a pro-fork chain.
	a, b := newChanRW()
	go serveOneHeaderRequest(t, b, testChain(chain.DAOForkBlock+1, true))
	support, err := VerifyDAOFork(a, offset)
	if err != nil {
		t.Fatal(err)
	}
	if support != DAOForkSupported {
		t.Fatalf("got %v", support)
	}
}

func TestVerifyDAOForkOpposed(t *testing.T) {
	a, b := newChanRW()
	go serveOneHeaderRequest(t, b, testChain(chain.DAOForkBlock+1, false))
	support, err := VerifyDAOFork(a, offset)
	if err != nil {
		t.Fatal(err)
	}
	if support != DAOForkOpposed {
		t.Fatalf("got %v", support)
	}
}

func TestVerifyDAOForkUnknownForShortChain(t *testing.T) {
	// Peer has not reached the fork block: empty response.
	a, b := newChanRW()
	go serveOneHeaderRequest(t, b, testChain(10, true))
	support, err := VerifyDAOFork(a, offset)
	if err != nil {
		t.Fatal(err)
	}
	if support != DAOForkUnknown {
		t.Fatalf("got %v", support)
	}
}

func serveOneHeaderRequest(t *testing.T, rw devp2p.MsgReadWriter, c func(uint64) *chain.Header) {
	t.Helper()
	code, payload, err := rw.ReadMsg()
	if err != nil || code != offset+GetBlockHeadersMsg {
		t.Errorf("server got code %#x err %v", code, err)
		return
	}
	var req GetBlockHeaders
	if err := rlp.DecodeBytes(payload, &req); err != nil {
		t.Error(err)
		return
	}
	resp, err := rlp.EncodeToBytes(ServeHeaders(nil, &req, c))
	if err != nil {
		t.Error(err)
		return
	}
	rw.WriteMsg(offset+BlockHeadersMsg, resp) //nolint:errcheck
}

func TestReadHeadersSkipsBroadcastNoise(t *testing.T) {
	c := testChain(5, false)
	a, b := newChanRW()
	go func() {
		// Noise first, then the real response.
		b.WriteMsg(offset+TransactionsMsg, []byte{0xC0})   //nolint:errcheck
		b.WriteMsg(offset+NewBlockHashesMsg, []byte{0xC0}) //nolint:errcheck
		resp, _ := rlp.EncodeToBytes(ServeHeaders(nil, &GetBlockHeaders{Origin: HashOrNumber{Number: 1}, Amount: 1}, c))
		b.WriteMsg(offset+BlockHeadersMsg, resp) //nolint:errcheck
	}()
	hs, err := ReadHeaders(a, offset)
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 1 || hs[0].Number.Uint64() != 1 {
		t.Fatalf("got %+v", hs)
	}
}

func TestReadHeadersAnswersPing(t *testing.T) {
	c := testChain(5, false)
	a, b := newChanRW()
	go func() {
		devp2p.SendPing(b) //nolint:errcheck
		// Expect a pong before continuing.
		code, _, _ := b.ReadMsg()
		if code != devp2p.PongMsg {
			t.Errorf("no pong, code %#x", code)
		}
		resp, _ := rlp.EncodeToBytes(ServeHeaders(nil, &GetBlockHeaders{Origin: HashOrNumber{Number: 0}, Amount: 1}, c))
		b.WriteMsg(offset+BlockHeadersMsg, resp) //nolint:errcheck
	}()
	if _, err := ReadHeaders(a, offset); err != nil {
		t.Fatal(err)
	}
}

func TestMsgNames(t *testing.T) {
	if MsgName(TransactionsMsg) != "TRANSACTIONS" {
		t.Error(MsgName(TransactionsMsg))
	}
	if MsgName(GetReceiptsMsg) != "GET_RECEIPTS" {
		t.Error(MsgName(GetReceiptsMsg))
	}
	if MsgName(0x99) != "UNKNOWN(0x99)" {
		t.Error(MsgName(0x99))
	}
}

func TestStatusRLPRoundTrip(t *testing.T) {
	s := &Status{
		ProtocolVersion: 63,
		NetworkID:       1,
		TD:              big.NewInt(123456789),
		BestHash:        chain.MainnetGenesisHash,
		GenesisHash:     chain.MainnetGenesisHash,
	}
	enc, err := rlp.EncodeToBytes(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Status
	if err := rlp.DecodeBytes(enc, &back); err != nil {
		t.Fatal(err)
	}
	if back.TD.Cmp(s.TD) != 0 || back.BestHash != s.BestHash {
		t.Errorf("got %+v", back)
	}
}

// snappySwitch records what Negotiate asks of the transport.
type snappySwitch struct{ on bool }

func (s *snappySwitch) SetSnappy(on bool) { s.on = on }

// TestNegotiate: the shared eth capability is the highest version both
// sides list, its codes start above every shared capability that sorts
// before it (bzz's default 16 here), a peer without eth gets none, and
// snappy is switched on exactly when both sides speak devp2p v5.
func TestNegotiate(t *testing.T) {
	ours := []devp2p.Cap{{Name: "bzz", Version: 1}, {Name: "eth", Version: 62}, {Name: "eth", Version: 63}, {Name: "les", Version: 2}}
	theirs := []devp2p.Cap{{Name: "les", Version: 2}, {Name: "eth", Version: 63}, {Name: "bzz", Version: 1}, {Name: "eth", Version: 62}}
	want := devp2p.NegotiatedCap{Cap: devp2p.Cap{Name: ProtocolName, Version: 63}, Offset: devp2p.BaseProtocolLength + 16, Length: ProtocolLength}
	for _, tc := range []struct {
		name         string
		ours, theirs uint64
		wantCompress bool
	}{
		{"v5 both sides", 5, 5, true},
		{"v4 ours", 4, 5, false},
		{"v4 theirs", 5, 4, false},
		{"v4 both sides", 4, 4, false},
	} {
		var sw snappySwitch
		got, ok := Negotiate(&sw, &devp2p.Hello{Version: tc.ours, Caps: ours}, &devp2p.Hello{Version: tc.theirs, Caps: theirs})
		if !ok || got != want {
			t.Errorf("%s: negotiated %+v, want %+v", tc.name, got, want)
		}
		if sw.on != tc.wantCompress {
			t.Errorf("%s: snappy %v, want %v", tc.name, sw.on, tc.wantCompress)
		}
	}

	var sw snappySwitch
	older := []devp2p.Cap{{Name: "bzz", Version: 1}, {Name: "eth", Version: 62}}
	if got, ok := Negotiate(&sw, &devp2p.Hello{Version: 5, Caps: ours}, &devp2p.Hello{Version: 5, Caps: older}); !ok || got.Version != 62 || got.Offset != devp2p.BaseProtocolLength+16 {
		t.Errorf("eth/62 peer: negotiated %+v, want eth/62 after bzz", got)
	}
	light := []devp2p.Cap{{Name: "bzz", Version: 1}, {Name: "les", Version: 2}}
	if got, ok := Negotiate(&sw, &devp2p.Hello{Version: 5, Caps: ours}, &devp2p.Hello{Version: 5, Caps: light}); ok {
		t.Errorf("peer without eth: negotiated %+v, want none", got)
	}
}
