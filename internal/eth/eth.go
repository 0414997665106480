// Package eth implements versions 62/63 of the Ethereum wire
// subprotocol — the 'eth' capability negotiated over DEVp2p (§2.3).
//
// Only the subset NodeFinder exercises is fully implemented as peer
// operations: the STATUS handshake and the GET_BLOCK_HEADERS /
// BLOCK_HEADERS exchange used for DAO-fork verification. The
// remaining message codes are defined so traffic models and decoders
// can classify them (Figures 2/3).
package eth

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/big"

	"repro/internal/chain"
	"repro/internal/devp2p"
	"repro/internal/rlp"
)

// Protocol versions.
const (
	Version62 uint = 62
	Version63 uint = 63
)

// ProtocolName is the capability name announced in HELLO.
const ProtocolName = "eth"

// ProtocolLength is the number of message codes eth/63 reserves.
const ProtocolLength uint64 = 17

// Message codes, relative to the negotiated offset.
const (
	StatusMsg uint64 = iota
	NewBlockHashesMsg
	TransactionsMsg
	GetBlockHeadersMsg
	BlockHeadersMsg
	GetBlockBodiesMsg
	BlockBodiesMsg
	NewBlockMsg
	_ // 0x08-0x0c unused in 62/63
	_
	_
	_
	_
	GetNodeDataMsg // 0x0d (eth/63 fast sync)
	NodeDataMsg
	GetReceiptsMsg
	ReceiptsMsg
)

// MsgName returns a human-readable message name for traffic logs.
func MsgName(code uint64) string {
	switch code {
	case StatusMsg:
		return "STATUS"
	case NewBlockHashesMsg:
		return "NEW_BLOCK_HASHES"
	case TransactionsMsg:
		return "TRANSACTIONS"
	case GetBlockHeadersMsg:
		return "GET_BLOCK_HEADERS"
	case BlockHeadersMsg:
		return "BLOCK_HEADERS"
	case GetBlockBodiesMsg:
		return "GET_BLOCK_BODIES"
	case BlockBodiesMsg:
		return "BLOCK_BODIES"
	case NewBlockMsg:
		return "NEW_BLOCK"
	case GetNodeDataMsg:
		return "GET_NODE_DATA"
	case NodeDataMsg:
		return "NODE_DATA"
	case GetReceiptsMsg:
		return "GET_RECEIPTS"
	case ReceiptsMsg:
		return "RECEIPTS"
	default:
		return fmt.Sprintf("UNKNOWN(%#x)", code)
	}
}

// Status is the eth handshake message: the blockchain identity and
// head state a peer advertises.
type Status struct {
	ProtocolVersion uint32
	NetworkID       uint64
	TD              *big.Int
	BestHash        chain.Hash
	GenesisHash     chain.Hash
	// Rest captures the fields a newer version appends. Its tag marks
	// it for the reference codec in internal/rlp's tests.
	Rest []rlp.RawValue `rlp:"tail"`
}

// AppendRLP implements rlp.Encoder.
func (st *Status) AppendRLP(b []byte) []byte {
	b, list := rlp.ListStart(b)
	b = rlp.AppendUint(b, uint64(st.ProtocolVersion))
	b = rlp.AppendUint(b, st.NetworkID)
	b = rlp.AppendBigInt(b, st.TD)
	b = rlp.AppendBytes(b, st.BestHash[:])
	b = rlp.AppendBytes(b, st.GenesisHash[:])
	b = rlp.AppendRaw(b, st.Rest...)
	return rlp.ListEnd(b, list)
}

// DecodeRLP implements rlp.Decoder.
func (st *Status) DecodeRLP(s *rlp.Stream) error {
	td, err := st.scan(s, true)
	if err != nil {
		return err
	}
	st.TD = new(big.Int).SetBytes(td)
	return nil
}

// scan reads a STATUS from s as DecodeRLP does, except that it returns
// the TD in place (a view into s's input), and decodes the tail into
// st.Rest only when keepRest is set, checking and dropping it
// otherwise.
func (st *Status) scan(s *rlp.Stream, keepRest bool) (td []byte, err error) {
	if _, err = s.List(); err != nil {
		return nil, err
	}
	if st.ProtocolVersion, err = s.Uint32(); err != nil {
		return nil, err
	}
	if st.NetworkID, err = s.Uint64(); err != nil {
		return nil, err
	}
	if td, err = s.BigIntView(); err != nil {
		return nil, err
	}
	if err = s.ReadBytes(st.BestHash[:]); err != nil {
		return nil, err
	}
	if err = s.ReadBytes(st.GenesisHash[:]); err != nil {
		return nil, err
	}
	if keepRest {
		st.Rest, err = s.Rest()
	} else {
		err = s.SkipRest()
	}
	if err != nil {
		return nil, err
	}
	return td, s.ListEnd()
}

// MainnetStatus is the STATUS a crawler announces to pass for a
// Mainnet peer: network 1 with Mainnet's genesis as both genesis and
// best hash, and zero total difficulty. A peer that checks the genesis
// (Geth does) then keeps the session past STATUS, so the DAO-fork
// header check can run.
func MainnetStatus() Status {
	return Status{
		ProtocolVersion: uint32(Version63),
		NetworkID:       chain.MainnetNetworkID,
		TD:              new(big.Int),
		BestHash:        chain.MainnetGenesisHash,
		GenesisHash:     chain.MainnetGenesisHash,
	}
}

// GetBlockHeaders requests a span of headers. Origin is either a
// block hash or a number.
type GetBlockHeaders struct {
	Origin  HashOrNumber
	Amount  uint64
	Skip    uint64
	Reverse bool
}

// HashOrNumber is the polymorphic origin field: encoded as a 32-byte
// hash or an integer.
type HashOrNumber struct {
	Hash   chain.Hash
	Number uint64
	IsHash bool
}

// AppendRLP implements rlp.Encoder.
func (g *GetBlockHeaders) AppendRLP(b []byte) []byte {
	b, list := rlp.ListStart(b)
	b = g.Origin.AppendRLP(b)
	b = rlp.AppendUint(b, g.Amount)
	b = rlp.AppendUint(b, g.Skip)
	b = rlp.AppendBool(b, g.Reverse)
	return rlp.ListEnd(b, list)
}

// DecodeRLP implements rlp.Decoder.
func (g *GetBlockHeaders) DecodeRLP(s *rlp.Stream) (err error) {
	if _, err = s.List(); err != nil {
		return err
	}
	if err = g.Origin.DecodeRLP(s); err != nil {
		return err
	}
	if g.Amount, err = s.Uint64(); err != nil {
		return err
	}
	if g.Skip, err = s.Uint64(); err != nil {
		return err
	}
	if g.Reverse, err = s.Bool(); err != nil {
		return err
	}
	return s.ListEnd()
}

// AppendRLP implements rlp.Encoder.
func (h *HashOrNumber) AppendRLP(b []byte) []byte {
	if h.IsHash {
		return rlp.AppendBytes(b, h.Hash[:])
	}
	return rlp.AppendUint(b, h.Number)
}

// DecodeRLP implements rlp.Decoder: a 32-byte string is a hash,
// anything else must be a number.
func (h *HashOrNumber) DecodeRLP(s *rlp.Stream) error {
	_, size, err := s.Kind()
	if err != nil {
		return err
	}
	if size == 32 {
		h.IsHash = true
		return s.ReadBytes(h.Hash[:])
	}
	h.IsHash = false
	h.Number, err = s.Uint64()
	return err
}

// Message-size bounds for untrusted input. A legitimate STATUS is
// under 200 bytes (the TD of a real chain fits in a dozen); a
// BLOCK_HEADERS response is bounded by the header count NodeFinder
// ever requests. Payloads beyond these are hostile padding and are
// rejected before RLP decoding.
const (
	MaxStatusSize  = 4096
	MaxHeadersSize = 1 << 19
)

// MaxHeadersServe caps how many headers one GET_BLOCK_HEADERS request
// can demand. Without it a peer's req.Amount of 2^64-1 walks the whole
// chain and builds the response slice to match — the serve-side twin
// of the MaxHeadersSize read cap.
const MaxHeadersServe = 1024

// Handshake errors, classified the way NodeFinder's logs need them.
var (
	ErrNetworkMismatch  = errors.New("eth: network ID mismatch")
	ErrGenesisMismatch  = errors.New("eth: genesis hash mismatch")
	ErrProtocolMismatch = errors.New("eth: protocol version mismatch")
	ErrNoStatus         = errors.New("eth: peer sent non-status message first")
	ErrMsgTooBig        = errors.New("eth: message exceeds size limit")
)

// SendStatus writes a STATUS message at the negotiated code offset.
func SendStatus(rw devp2p.MsgReadWriter, offset uint64, s *Status) error {
	return devp2p.WriteValue(rw, offset+StatusMsg, s)
}

// ReadStatus reads the peer's STATUS. A DISCONNECT in its place is
// surfaced as devp2p.DisconnectError.
func ReadStatus(rw devp2p.MsgReadWriter, offset uint64) (*Status, error) {
	payload, err := readStatusPayload(rw, offset)
	if err != nil {
		return nil, err
	}
	st := new(Status)
	if err := rlp.DecodeBytes(payload, st); err != nil {
		return nil, fmt.Errorf("eth: decoding status: %w", err)
	}
	return st, nil
}

// SkipStatus reads the peer's STATUS and drops it, refusing exactly
// what ReadStatus refuses: for a server that answers whatever the peer
// announces. It allocates nothing but an error.
func SkipStatus(rw devp2p.MsgReadWriter, offset uint64) error {
	payload, err := readStatusPayload(rw, offset)
	if err != nil {
		return err
	}
	err = rlp.Scan(payload, func(s *rlp.Stream) error {
		var st Status
		_, err := st.scan(s, false)
		return err
	})
	if err != nil {
		return fmt.Errorf("eth: decoding status: %w", err)
	}
	return nil
}

// readStatusPayload reads the message that must be the peer's STATUS
// and returns its payload, valid until the next read. A DISCONNECT in
// its place is surfaced as devp2p.DisconnectError.
func readStatusPayload(rw devp2p.MsgReadWriter, offset uint64) ([]byte, error) {
	code, payload, err := rw.ReadMsg()
	if err != nil {
		return nil, err
	}
	switch code {
	case devp2p.DiscMsg:
		return nil, devp2p.DisconnectError{Reason: devp2p.DecodeDisconnect(payload)}
	case offset + StatusMsg:
		if len(payload) > MaxStatusSize {
			return nil, fmt.Errorf("%w: status is %d bytes (max %d)", ErrMsgTooBig, len(payload), MaxStatusSize)
		}
		return payload, nil
	default:
		return nil, fmt.Errorf("%w: code %#x", ErrNoStatus, code)
	}
}

// CheckCompatibility compares two statuses the way clients decide
// whether to keep a peer.
func CheckCompatibility(ours, theirs *Status) error {
	if ours.NetworkID != theirs.NetworkID {
		return fmt.Errorf("%w: ours %d, theirs %d", ErrNetworkMismatch, ours.NetworkID, theirs.NetworkID)
	}
	if ours.GenesisHash != theirs.GenesisHash {
		return fmt.Errorf("%w: ours %s, theirs %s", ErrGenesisMismatch, ours.GenesisHash.Short(), theirs.GenesisHash.Short())
	}
	if ours.ProtocolVersion != theirs.ProtocolVersion {
		return fmt.Errorf("%w: ours %d, theirs %d", ErrProtocolMismatch, ours.ProtocolVersion, theirs.ProtocolVersion)
	}
	return nil
}

// capLengths gives MatchCaps the message space of eth, the one
// subprotocol this package speaks. Read-only: every session shares it.
var capLengths = map[string]uint64{ProtocolName: ProtocolLength}

// Negotiate settles a session once both HELLOs are known, the same
// way on either end: it turns on snappy compression of conn's later
// payloads when both sides speak devp2p v5, and returns the shared eth
// capability with its message-code offset, with ok false when there
// is none. *rlpx.Conn is the conn every caller passes.
func Negotiate(conn interface{ SetSnappy(bool) }, ours, theirs *devp2p.Hello) (ethCap devp2p.NegotiatedCap, ok bool) {
	if ours.Version >= devp2p.Version && theirs.Version >= devp2p.Version {
		conn.SetSnappy(true)
	}
	var room [4]devp2p.NegotiatedCap
	for _, c := range devp2p.AppendMatchCaps(room[:0], ours.Caps, theirs.Caps, capLengths) {
		if c.Name == ProtocolName {
			return c, true
		}
	}
	return devp2p.NegotiatedCap{}, false
}

// RequestHeaders sends GET_BLOCK_HEADERS.
func RequestHeaders(rw devp2p.MsgReadWriter, offset uint64, req *GetBlockHeaders) error {
	return devp2p.WriteValue(rw, offset+GetBlockHeadersMsg, req)
}

// ReadHeaders reads a BLOCK_HEADERS response, skipping unrelated
// broadcast messages (transactions, new blocks) that may interleave.
func ReadHeaders(rw devp2p.MsgReadWriter, offset uint64) ([]*chain.Header, error) {
	payload, err := readHeadersPayload(rw, offset)
	if err != nil {
		return nil, err
	}
	var headers []*chain.Header
	if err := rlp.DecodeBytes(payload, &headers); err != nil {
		return nil, fmt.Errorf("eth: decoding headers: %w", err)
	}
	return headers, nil
}

// readHeadersPayload waits for a BLOCK_HEADERS message, answering
// pings and skipping broadcast traffic, and returns its payload, valid
// until the next read.
func readHeadersPayload(rw devp2p.MsgReadWriter, offset uint64) ([]byte, error) {
	for i := 0; i < 32; i++ { // bounded tolerance for broadcast noise
		code, payload, err := rw.ReadMsg()
		if err != nil {
			return nil, err
		}
		switch code {
		case offset + BlockHeadersMsg:
			if len(payload) > MaxHeadersSize {
				return nil, fmt.Errorf("%w: headers response is %d bytes (max %d)", ErrMsgTooBig, len(payload), MaxHeadersSize)
			}
			return payload, nil
		case devp2p.DiscMsg:
			return nil, devp2p.DisconnectError{Reason: devp2p.DecodeDisconnect(payload)}
		case devp2p.PingMsg:
			if err := devp2p.SendPong(rw); err != nil {
				return nil, err
			}
		default:
			// Ignore broadcast traffic while waiting.
		}
	}
	return nil, errors.New("eth: no header response within message budget")
}

// ServeHeaders appends to dst the answer to one GET_BLOCK_HEADERS
// request from a chain whose header at each block number header
// returns (nil where the chain has none). The answer stops at the
// first missing block, and its count is clamped to MaxHeadersServe
// regardless of what the request demands. A hash origin is answered
// empty: nothing served here indexes its headers by hash.
func ServeHeaders(dst []*chain.Header, req *GetBlockHeaders, header func(uint64) *chain.Header) []*chain.Header {
	amount := min(req.Amount, MaxHeadersServe)
	if amount == 0 || req.Origin.IsHash {
		return dst
	}
	num := req.Origin.Number
	h := header(num)
	if h == nil {
		return dst
	}
	start := len(dst)
	dst = append(dst, h)
	for uint64(len(dst)-start) < amount {
		next, ok := req.Next(num)
		if !ok {
			break
		}
		if h = header(next); h == nil {
			break
		}
		dst = append(dst, h)
		num = next
	}
	return dst
}

// Next returns the block number the request asks for after n: Skip+1
// blocks on, or back when Reverse. ok is false when that number would
// leave the uint64 range. Skip is peer-chosen, so Skip+1 (which wraps
// to 0 at 2^64-1 and would answer the same block forever) is never
// computed.
func (req *GetBlockHeaders) Next(n uint64) (next uint64, ok bool) {
	if req.Reverse {
		if req.Skip >= n {
			return 0, false
		}
		return n - req.Skip - 1, true
	}
	if req.Skip >= math.MaxUint64-n {
		return 0, false
	}
	return n + req.Skip + 1, true
}

// VerifyDAOFork performs NodeFinder's fork check: request the DAO
// fork header and inspect its extra-data. The return value
// distinguishes pro-fork (Mainnet), anti-fork (Classic), and unknown
// (peer has not reached the fork block).
type DAOForkSupport int

// Fork stances.
const (
	DAOForkUnknown DAOForkSupport = iota
	DAOForkSupported
	DAOForkOpposed
)

func (s DAOForkSupport) String() string {
	switch s {
	case DAOForkSupported:
		return "supports DAO fork"
	case DAOForkOpposed:
		return "opposes DAO fork"
	default:
		return "DAO fork stance unknown"
	}
}

// daoRequest is the DAO check's GET_BLOCK_HEADERS body, encoded once:
// every dial sends it, and nothing writes it.
var daoRequest = (&GetBlockHeaders{Origin: HashOrNumber{Number: chain.DAOForkBlock}, Amount: 1}).AppendRLP(nil)

// VerifyDAOFork runs the request/response round. It reads only the
// first header's extra-data, in place, while refusing every answer
// ReadHeaders refuses, so a check allocates nothing but an error.
func VerifyDAOFork(rw devp2p.MsgReadWriter, offset uint64) (DAOForkSupport, error) {
	if err := rw.WriteMsg(offset+GetBlockHeadersMsg, daoRequest); err != nil {
		return DAOForkUnknown, err
	}
	payload, err := readHeadersPayload(rw, offset)
	if err != nil {
		return DAOForkUnknown, err
	}
	extra, ok, err := chain.FirstHeaderExtra(payload)
	switch {
	case err != nil:
		return DAOForkUnknown, fmt.Errorf("eth: decoding headers: %w", err)
	case !ok:
		return DAOForkUnknown, nil
	case bytes.Equal(extra, chain.DAOForkBlockExtra):
		return DAOForkSupported, nil
	}
	return DAOForkOpposed, nil
}
