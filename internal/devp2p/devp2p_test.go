package devp2p

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/enode"
	"repro/internal/rlp"
)

// pipeRW is an in-memory MsgReadWriter pair.
type pipeRW struct {
	in  chan msg
	out chan msg
}

type msg struct {
	code    uint64
	payload []byte
}

func newPipeRW() (*pipeRW, *pipeRW) {
	a := make(chan msg, 16)
	b := make(chan msg, 16)
	return &pipeRW{in: a, out: b}, &pipeRW{in: b, out: a}
}

func (p *pipeRW) ReadMsg() (uint64, []byte, error) {
	m, ok := <-p.in
	if !ok {
		return 0, nil, errors.New("closed")
	}
	return m.code, m.payload, nil
}

func (p *pipeRW) WriteMsg(code uint64, payload []byte) error {
	p.out <- msg{code, payload}
	return nil
}

func testHello(seed int64) *Hello {
	rng := rand.New(rand.NewSource(seed))
	return &Hello{
		Version:    Version,
		Name:       "Geth/v1.7.3-stable/linux-amd64/go1.9",
		Caps:       []Cap{{"eth", 62}, {"eth", 63}},
		ListenPort: 30303,
		ID:         enode.RandomID(rng),
	}
}

func TestHelloExchange(t *testing.T) {
	a, b := newPipeRW()
	ha, hb := testHello(1), testHello(2)

	done := make(chan error, 1)
	var theirsAtB *Hello
	go func() {
		var err error
		theirsAtB, err = ExchangeHello(b, hb)
		done <- err
	}()
	theirsAtA, err := ExchangeHello(a, ha)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if theirsAtA.Name != hb.Name || theirsAtA.ID != hb.ID {
		t.Errorf("A saw %+v", theirsAtA)
	}
	if theirsAtB.ListenPort != 30303 || len(theirsAtB.Caps) != 2 {
		t.Errorf("B saw %+v", theirsAtB)
	}
}

func TestHelloMetDisconnect(t *testing.T) {
	a, b := newPipeRW()
	go SendDisconnect(b, DiscTooManyPeers) //nolint:errcheck
	_, err := ReadHello(a)
	var de DisconnectError
	if !errors.As(err, &de) {
		t.Fatalf("got %v", err)
	}
	if de.Reason != DiscTooManyPeers {
		t.Errorf("reason %v", de.Reason)
	}
}

func TestReadHelloRejectsOtherMessage(t *testing.T) {
	a, b := newPipeRW()
	go b.WriteMsg(PingMsg, []byte{0xC0}) //nolint:errcheck
	if _, err := ReadHello(a); !errors.Is(err, ErrUnexpectedMessage) {
		t.Fatalf("got %v", err)
	}
}

func TestDecodeDisconnectForms(t *testing.T) {
	// List form.
	p1, _ := rlp.EncodeToBytes([]uint64{uint64(DiscUselessPeer)})
	if r := DecodeDisconnect(p1); r != DiscUselessPeer {
		t.Errorf("list form: %v", r)
	}
	// Bare integer form.
	p2, _ := rlp.EncodeToBytes(uint64(DiscSubprotocolError))
	if r := DecodeDisconnect(p2); r != DiscSubprotocolError {
		t.Errorf("bare form: %v", r)
	}
	// Empty.
	if r := DecodeDisconnect(nil); r != DiscRequested {
		t.Errorf("empty: %v", r)
	}
	// Garbage degrades to requested.
	if r := DecodeDisconnect([]byte{0xFF, 0xFF}); r != DiscRequested {
		t.Errorf("garbage: %v", r)
	}
}

func TestReasonStrings(t *testing.T) {
	if DiscTooManyPeers.String() != "Too many peers" {
		t.Error(DiscTooManyPeers.String())
	}
	if DiscSubprotocolError.String() != "Subprotocol error" {
		t.Error(DiscSubprotocolError.String())
	}
	if got := DisconnectReason(0x42).String(); got != "Unknown(0x42)" {
		t.Error(got)
	}
	if DiscTooManyPeers.Error() == "" {
		t.Error("empty error")
	}
}

func TestMatchCapsHighestVersion(t *testing.T) {
	ours := []Cap{{"eth", 62}, {"eth", 63}}
	theirs := []Cap{{"eth", 62}, {"eth", 63}}
	got := MatchCaps(ours, theirs, nil)
	if len(got) != 1 || got[0].Version != 63 {
		t.Fatalf("got %v", got)
	}
}

func TestMatchCapsNone(t *testing.T) {
	if got := MatchCaps([]Cap{{"eth", 63}}, []Cap{{"exp", 1}}, nil); len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

// TestMatchCaps: shared names sorted whatever order either side lists
// them in, the highest version both sides share (not the highest either
// side has), offsets stacked above the base protocol, and the 16-code
// default for a name the lengths map does not know.
func TestMatchCaps(t *testing.T) {
	type nc = NegotiatedCap
	const base = BaseProtocolLength
	lengths := map[string]uint64{"eth": 17, "les": 21}
	cases := []struct {
		name         string
		ours, theirs []Cap
		want         []NegotiatedCap
	}{
		{"eth and shh", []Cap{{"eth", 62}, {"eth", 63}, {"shh", 2}, {"bzz", 1}}, []Cap{{"eth", 63}, {"les", 2}, {"shh", 2}},
			[]nc{{Cap{"eth", 63}, base, 17}, {Cap{"shh", 2}, base + 17, 16}}},
		{"empty", nil, nil, nil},
		{"one side empty", []Cap{{"eth", 63}}, nil, nil},
		{"no version in common", []Cap{{"eth", 62}}, []Cap{{"eth", 63}}, nil},
		{"eth only", []Cap{{"eth", 62}, {"eth", 63}}, []Cap{{"eth", 62}, {"eth", 63}},
			[]nc{{Cap{"eth", 63}, base, 17}}},
		{"highest shared, not highest offered", []Cap{{"eth", 64}, {"eth", 62}}, []Cap{{"eth", 62}, {"eth", 65}, {"eth", 64}},
			[]nc{{Cap{"eth", 64}, base, 17}}},
		{"sorted by name, unknown name gets 16", []Cap{{"shh", 2}, {"les", 2}, {"eth", 63}, {"bzz", 1}},
			[]Cap{{"les", 2}, {"bzz", 1}, {"shh", 2}, {"eth", 63}},
			[]nc{{Cap{"bzz", 1}, base, 16}, {Cap{"eth", 63}, base + 16, 17}, {Cap{"les", 2}, base + 33, 21}, {Cap{"shh", 2}, base + 54, 16}}},
		{"duplicates on both sides", []Cap{{"les", 1}, {"les", 1}, {"les", 2}}, []Cap{{"les", 2}, {"les", 1}, {"les", 2}},
			[]nc{{Cap{"les", 2}, base, 21}}},
		{"empty name sorts first", []Cap{{"eth", 63}, {"", 1}}, []Cap{{"", 1}, {"eth", 63}},
			[]nc{{Cap{"", 1}, base, 16}, {Cap{"eth", 63}, base + 16, 17}}},
	}
	for _, tc := range cases {
		got := MatchCaps(tc.ours, tc.theirs, lengths)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
		// Negotiation is symmetric: the other end computes the same.
		if back := MatchCaps(tc.theirs, tc.ours, lengths); !slices.Equal(back, got) {
			t.Errorf("%s: the two ends disagree: %+v against %+v", tc.name, back, got)
		}
	}
}

// TestMatchCapsAllocatesOnlyResult: a handshake's negotiation costs
// the slice it returns and nothing else.
func TestMatchCapsAllocatesOnlyResult(t *testing.T) {
	ours := []Cap{{"eth", 62}, {"eth", 63}, {"les", 2}}
	theirs := []Cap{{"les", 2}, {"eth", 63}, {"eth", 62}, {"pip", 1}}
	lengths := map[string]uint64{"eth": 17}
	if n := testing.AllocsPerRun(100, func() { MatchCaps(ours, theirs, lengths) }); n > 1 {
		t.Fatalf("MatchCaps allocates %.1f objects, want at most 1", n)
	}
}

func TestCapHelpers(t *testing.T) {
	if (Cap{"eth", 63}).String() != "eth/63" {
		t.Error("Cap.String wrong")
	}
}

func TestPingPongHelpers(t *testing.T) {
	a, b := newPipeRW()
	if err := SendPing(a); err != nil {
		t.Fatal(err)
	}
	code, _, err := b.ReadMsg()
	if err != nil || code != PingMsg {
		t.Fatal(code, err)
	}
	if err := SendPong(b); err != nil {
		t.Fatal(err)
	}
	code, _, err = a.ReadMsg()
	if err != nil || code != PongMsg {
		t.Fatal(code, err)
	}
}

func TestHelloRLPForwardCompat(t *testing.T) {
	// A HELLO with extra fields (from a future client) must decode.
	id := enode.RandomID(rand.New(rand.NewSource(3)))
	enc, list := rlp.ListStart(nil)
	enc = rlp.AppendUint(enc, 6)
	enc = rlp.AppendString(enc, "Future/v9")
	enc = append(enc, 0xC0) // no caps
	enc = rlp.AppendUint(enc, 1)
	enc = rlp.AppendBytes(enc, id[:])
	enc = rlp.AppendUint(enc, 7)            // Extra1
	enc = rlp.AppendBytes(enc, []byte("x")) // Extra2
	enc = rlp.ListEnd(enc, list)
	var h Hello
	if err := rlp.DecodeBytes(enc, &h); err != nil {
		t.Fatal(err)
	}
	if h.Name != "Future/v9" || len(h.Rest) != 2 {
		t.Errorf("got %+v", h)
	}
}
