package eth

import (
	"errors"
	"testing"

	"repro/internal/devp2p"
	"repro/internal/rlp"
)

func TestMsgNamesComplete(t *testing.T) {
	named := map[uint64]string{
		StatusMsg:          "STATUS",
		NewBlockHashesMsg:  "NEW_BLOCK_HASHES",
		TransactionsMsg:    "TRANSACTIONS",
		GetBlockHeadersMsg: "GET_BLOCK_HEADERS",
		BlockHeadersMsg:    "BLOCK_HEADERS",
		GetBlockBodiesMsg:  "GET_BLOCK_BODIES",
		BlockBodiesMsg:     "BLOCK_BODIES",
		NewBlockMsg:        "NEW_BLOCK",
		GetNodeDataMsg:     "GET_NODE_DATA",
		NodeDataMsg:        "NODE_DATA",
		GetReceiptsMsg:     "GET_RECEIPTS",
		ReceiptsMsg:        "RECEIPTS",
	}
	for code, want := range named {
		if got := MsgName(code); got != want {
			t.Errorf("MsgName(%#x) = %s, want %s", code, got, want)
		}
	}
}

func TestReadHeadersMessageBudget(t *testing.T) {
	a, b := newChanRW()
	go func() {
		// Only noise, never a response: the reader must give up.
		for i := 0; i < 40; i++ {
			b.WriteMsg(offset+TransactionsMsg, []byte{0xC0}) //nolint:errcheck
		}
	}()
	if _, err := ReadHeaders(a, offset); err == nil {
		t.Fatal("reader never gave up")
	}
}

func TestReadHeadersDisconnect(t *testing.T) {
	a, b := newChanRW()
	go devp2p.SendDisconnect(b, devp2p.DiscUselessPeer) //nolint:errcheck
	_, err := ReadHeaders(a, offset)
	var de devp2p.DisconnectError
	if !errors.As(err, &de) || de.Reason != devp2p.DiscUselessPeer {
		t.Fatalf("got %v", err)
	}
}

func TestReadStatusRejectsWrongCode(t *testing.T) {
	a, b := newChanRW()
	go b.WriteMsg(offset+TransactionsMsg, []byte{0xC0}) //nolint:errcheck
	if _, err := ReadStatus(a, offset); !errors.Is(err, ErrNoStatus) {
		t.Fatalf("got %v", err)
	}
}

func TestReadStatusRejectsGarbagePayload(t *testing.T) {
	a, b := newChanRW()
	go b.WriteMsg(offset+StatusMsg, []byte{0xFF, 0xFF, 0xFF}) //nolint:errcheck
	if _, err := ReadStatus(a, offset); err == nil {
		t.Fatal("garbage status accepted")
	}
}

func TestServeHeadersZeroAmount(t *testing.T) {
	if hs := ServeHeaders(nil, &GetBlockHeaders{Origin: HashOrNumber{Number: 0}, Amount: 0}, testChain(3, false)); hs != nil {
		t.Fatal("zero amount returned headers")
	}
}

func TestServeHeadersReverseUnderflow(t *testing.T) {
	hs := ServeHeaders(nil, &GetBlockHeaders{Origin: HashOrNumber{Number: 1}, Amount: 10, Reverse: true}, testChain(3, false))
	if len(hs) != 2 { // blocks 1, 0 — stop at genesis
		t.Fatalf("got %d headers", len(hs))
	}
}

func TestDAOForkSupportStrings(t *testing.T) {
	if DAOForkSupported.String() == "" || DAOForkOpposed.String() == "" || DAOForkUnknown.String() == "" {
		t.Fatal("empty stance strings")
	}
	if DAOForkSupported.String() == DAOForkOpposed.String() {
		t.Fatal("stances collide")
	}
}

func TestVerifyDAOForkPropagatesSendError(t *testing.T) {
	rw := failingRW{}
	if _, err := VerifyDAOFork(rw, offset); err == nil {
		t.Fatal("send error swallowed")
	}
}

type failingRW struct{}

func (failingRW) ReadMsg() (uint64, []byte, error) { return 0, nil, errors.New("closed") }
func (failingRW) WriteMsg(uint64, []byte) error    { return errors.New("closed") }

func TestHashOrNumberDecodeErrors(t *testing.T) {
	// A list is neither a hash nor a number.
	enc, err := rlp.EncodeToBytes([]uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	var h HashOrNumber
	if err := rlp.DecodeBytes(enc, &h); err == nil {
		t.Fatal("list accepted as HashOrNumber")
	}
}

// TestVerifyDAOForkRefusesEmptyHeader: a BLOCK_HEADERS body holding an
// empty list where the header should be is malformed. Decoding it to a
// nil *chain.Header would let one hostile answer panic a caller of
// SupportsDAOFork; both readers of the body refuse it.
func TestVerifyDAOForkRefusesEmptyHeader(t *testing.T) {
	a, b := newChanRW()
	b.WriteMsg(offset+BlockHeadersMsg, []byte{0xC1, 0xC0}) //nolint:errcheck
	b.WriteMsg(offset+BlockHeadersMsg, []byte{0xC1, 0xC0}) //nolint:errcheck
	if _, err := VerifyDAOFork(a, offset); err == nil {
		t.Fatal("VerifyDAOFork accepted a body of one empty header")
	}
	if hs, err := ReadHeaders(a, offset); err == nil {
		t.Fatalf("ReadHeaders decoded a body of one empty header to %d headers", len(hs))
	}
}
