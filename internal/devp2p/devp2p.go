// Package devp2p implements the DEVp2p application-session layer that
// runs on top of an RLPx connection (§2.2 of the paper).
//
// After the RLPx handshake, each side sends a HELLO message carrying
// its node ID, DEVp2p version, client name, supported subprotocol
// capabilities, and listening port. Subprotocol messages are then
// multiplexed above the base protocol using per-capability message
// code offsets. Idle connections exchange DEVp2p PING/PONG, and
// sessions end with a DISCONNECT that may carry one of the reason
// codes tabulated in the paper's Table 1.
package devp2p

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/enode"
	"repro/internal/rlp"
)

// Base protocol message codes.
const (
	HelloMsg uint64 = 0x00
	DiscMsg  uint64 = 0x01
	PingMsg  uint64 = 0x02
	PongMsg  uint64 = 0x03
	// BaseProtocolLength is the size of the reserved base message
	// space; subprotocol codes start here.
	BaseProtocolLength uint64 = 16
)

// Version is the DEVp2p base protocol version advertised in HELLO.
// Clients of the paper's era advertise 5, which implies snappy
// compression of message payloads after the HELLO exchange; the rlpx
// package implements it (Conn.SetSnappy) and both the crawler and
// simnet's served nodes enable it when negotiated.
const Version = 5

// MaxHelloSize bounds the encoded HELLO payload accepted from a peer.
// Real HELLOs are a few hundred bytes (client name, a handful of
// caps); a multi-kilobyte one is a hostile peer padding the message,
// and is rejected before the RLP decoder walks it.
const MaxHelloSize = 4096

// MaxDisconnectSize bounds the DISCONNECT payload worth parsing; the
// legitimate encodings are at most a few bytes.
const MaxDisconnectSize = 64

// DisconnectReason is the reason code in a DISCONNECT message.
type DisconnectReason uint64

// The reason codes of Table 1.
const (
	DiscRequested           DisconnectReason = 0x00
	DiscNetworkError        DisconnectReason = 0x01
	DiscProtocolError       DisconnectReason = 0x02
	DiscUselessPeer         DisconnectReason = 0x03
	DiscTooManyPeers        DisconnectReason = 0x04
	DiscAlreadyConnected    DisconnectReason = 0x05
	DiscIncompatibleVersion DisconnectReason = 0x06
	DiscInvalidIdentity     DisconnectReason = 0x07
	DiscQuitting            DisconnectReason = 0x08
	DiscUnexpectedIdentity  DisconnectReason = 0x09
	DiscSelf                DisconnectReason = 0x0a
	DiscReadTimeout         DisconnectReason = 0x0b
	DiscSubprotocolError    DisconnectReason = 0x10
)

var reasonNames = map[DisconnectReason]string{
	DiscRequested:           "Disconnect requested",
	DiscNetworkError:        "Network error",
	DiscProtocolError:       "Breach of protocol",
	DiscUselessPeer:         "Useless peer",
	DiscTooManyPeers:        "Too many peers",
	DiscAlreadyConnected:    "Already connected",
	DiscIncompatibleVersion: "Incompatible P2P protocol version",
	DiscInvalidIdentity:     "Invalid node identity",
	DiscQuitting:            "Client quitting",
	DiscUnexpectedIdentity:  "Unexpected identity",
	DiscSelf:                "Connected to self",
	DiscReadTimeout:         "Read timeout",
	DiscSubprotocolError:    "Subprotocol error",
}

// String implements fmt.Stringer; unknown codes print numerically,
// mirroring how Parity treats codes beyond 0x0b as "Unknown" (§3).
func (r DisconnectReason) String() string {
	if s, ok := reasonNames[r]; ok {
		return s
	}
	return fmt.Sprintf("Unknown(0x%02x)", uint64(r))
}

// Error makes a DisconnectReason usable as an error value.
func (r DisconnectReason) Error() string { return r.String() }

// Cap is one advertised capability: a subprotocol name and version.
type Cap struct {
	Name    string
	Version uint
}

// String renders the conventional name/version form, e.g. "eth/63".
func (c Cap) String() string { return c.Name + "/" + strconv.FormatUint(uint64(c.Version), 10) }

// AppendRLP implements rlp.Encoder.
func (c *Cap) AppendRLP(b []byte) []byte {
	b, list := rlp.ListStart(b)
	b = rlp.AppendString(b, c.Name)
	b = rlp.AppendUint(b, uint64(c.Version))
	return rlp.ListEnd(b, list)
}

// DecodeRLP implements rlp.Decoder.
func (c *Cap) DecodeRLP(s *rlp.Stream) (err error) {
	if _, err = s.List(); err != nil {
		return err
	}
	if c.Name, err = s.Text(); err != nil {
		return err
	}
	v, err := s.Uint64()
	if err != nil {
		return err
	}
	c.Version = uint(v)
	return s.ListEnd()
}

// Hello is the DEVp2p handshake message.
type Hello struct {
	Version    uint64
	Name       string // client identifier, e.g. "Geth/v1.7.3-stable/linux-amd64/go1.9"
	Caps       []Cap
	ListenPort uint64
	ID         enode.ID
	// Rest captures the fields a newer version appends. Its tag marks
	// it for the reference codec in internal/rlp's tests.
	Rest []rlp.RawValue `rlp:"tail"`
}

// AppendRLP implements rlp.Encoder.
func (h *Hello) AppendRLP(b []byte) []byte {
	b, list := rlp.ListStart(b)
	b = rlp.AppendUint(b, h.Version)
	b = rlp.AppendString(b, h.Name)
	b, caps := rlp.ListStart(b)
	for i := range h.Caps {
		b = h.Caps[i].AppendRLP(b)
	}
	b = rlp.ListEnd(b, caps)
	b = rlp.AppendUint(b, h.ListenPort)
	b = rlp.AppendBytes(b, h.ID[:])
	b = rlp.AppendRaw(b, h.Rest...)
	return rlp.ListEnd(b, list)
}

// DecodeRLP implements rlp.Decoder.
func (h *Hello) DecodeRLP(s *rlp.Stream) error { return h.decode(s, true, nil) }

// decode reads a HELLO into h. With all set it decodes every field.
// Otherwise it keeps only what negotiating against known needs and
// allocates nothing once h.Caps has room: the name and the tail are
// checked and dropped, and of the capabilities only those equal to one
// in known are kept, once each, as known's values (AppendMatchCaps
// matches nothing else). Either way it refuses the same inputs.
func (h *Hello) decode(s *rlp.Stream, all bool, known []Cap) (err error) {
	if _, err = s.List(); err != nil {
		return err
	}
	if h.Version, err = s.Uint64(); err != nil {
		return err
	}
	if all {
		if h.Name, err = s.Text(); err != nil {
			return err
		}
		h.Caps, err = rlp.DecodeList[Cap](s)
	} else {
		if _, err = s.BytesView(); err != nil {
			return err
		}
		h.Name = ""
		h.Caps, err = appendKnownCaps(h.Caps[:0], s, known)
	}
	if err != nil {
		return err
	}
	if h.ListenPort, err = s.Uint64(); err != nil {
		return err
	}
	if err = s.ReadBytes(h.ID[:]); err != nil {
		return err
	}
	if all {
		h.Rest, err = s.Rest()
	} else {
		h.Rest, err = nil, s.SkipRest()
	}
	if err != nil {
		return err
	}
	return s.ListEnd()
}

// appendKnownCaps reads a capability list as Cap.DecodeRLP reads each
// entry, appending to dst the entries in known that it finds.
func appendKnownCaps(dst []Cap, s *rlp.Stream, known []Cap) ([]Cap, error) {
	if _, err := s.List(); err != nil {
		return nil, err
	}
	for s.MoreDataInList() {
		if _, err := s.List(); err != nil {
			return nil, err
		}
		name, err := s.BytesView()
		if err != nil {
			return nil, err
		}
		v, err := s.Uint64()
		if err != nil {
			return nil, err
		}
		if err := s.ListEnd(); err != nil {
			return nil, err
		}
		for _, k := range known {
			if k.Name == string(name) && k.Version == uint(v) && !slices.Contains(dst, k) {
				dst = append(dst, k)
			}
		}
	}
	return dst, s.ListEnd()
}

// MsgReadWriter is the framed-message transport devp2p runs over;
// *rlpx.Conn implements it. A payload ReadMsg returns may be reused by
// the next ReadMsg, so it is decoded (decoded values never alias it)
// before the next read.
type MsgReadWriter interface {
	ReadMsg() (code uint64, payload []byte, err error)
	WriteMsg(code uint64, payload []byte) error
}

// ValueWriter is the optional fast path a transport may offer for
// sending RLP-encoded values: *rlpx.Conn encodes straight into its
// frame scratch, skipping the intermediate payload allocation.
type ValueWriter interface {
	WriteMsgValue(code uint64, v any) error
}

// WriteValue sends one message whose payload is the RLP encoding of
// v, using the transport's ValueWriter fast path when it has one.
func WriteValue(rw MsgReadWriter, code uint64, v any) error {
	if vw, ok := rw.(ValueWriter); ok {
		return vw.WriteMsgValue(code, v)
	}
	payload, err := rlp.EncodeToBytes(v)
	if err != nil {
		return err
	}
	return rw.WriteMsg(code, payload)
}

// Errors.
var (
	ErrUnexpectedMessage = errors.New("devp2p: unexpected message before hello")
	ErrNoCommonProtocol  = errors.New("devp2p: no matching subprotocols")
	ErrMsgTooBig         = errors.New("devp2p: message exceeds size limit")
)

// DisconnectError wraps the reason a peer gave for disconnecting.
type DisconnectError struct{ Reason DisconnectReason }

func (e DisconnectError) Error() string {
	return fmt.Sprintf("devp2p: peer disconnected: %s", e.Reason)
}

// SendHello writes our HELLO message.
func SendHello(rw MsgReadWriter, h *Hello) error {
	return WriteValue(rw, HelloMsg, h)
}

// ReadHello reads the peer's HELLO, tolerating a DISCONNECT in its
// place (returned as DisconnectError — the common "Too many peers"
// case the paper's scanner must classify).
func ReadHello(rw MsgReadWriter) (*Hello, error) {
	payload, err := readHelloPayload(rw)
	if err != nil {
		return nil, err
	}
	h := new(Hello)
	if err := rlp.DecodeBytes(payload, h); err != nil {
		return nil, fmt.Errorf("devp2p: decoding hello: %w", err)
	}
	return h, nil
}

// ReadHelloCaps reads the peer's HELLO into h as ReadHello does,
// refusing the same inputs, but keeps only what negotiating against
// known needs: h.Version, h.ListenPort, h.ID, and in h.Caps (reusing
// its storage) the capabilities of known the peer lists. For a server
// that negotiates and forgets the peer, one HELLO read allocates
// nothing but an error.
func ReadHelloCaps(rw MsgReadWriter, h *Hello, known []Cap) error {
	payload, err := readHelloPayload(rw)
	if err != nil {
		return err
	}
	if err := rlp.Scan(payload, func(s *rlp.Stream) error { return h.decode(s, false, known) }); err != nil {
		return fmt.Errorf("devp2p: decoding hello: %w", err)
	}
	return nil
}

// readHelloPayload reads the message that must be the peer's HELLO and
// returns its payload, valid until the next read. A DISCONNECT in its
// place is surfaced as DisconnectError.
func readHelloPayload(rw MsgReadWriter) ([]byte, error) {
	code, payload, err := rw.ReadMsg()
	if err != nil {
		return nil, err
	}
	switch code {
	case HelloMsg:
		if len(payload) > MaxHelloSize {
			return nil, fmt.Errorf("%w: hello is %d bytes (max %d)", ErrMsgTooBig, len(payload), MaxHelloSize)
		}
		return payload, nil
	case DiscMsg:
		return nil, DisconnectError{DecodeDisconnect(payload)}
	default:
		return nil, fmt.Errorf("%w: code %#x", ErrUnexpectedMessage, code)
	}
}

// ExchangeHello sends ours and reads theirs concurrently-safely over
// a full-duplex transport (write first, then read).
func ExchangeHello(rw MsgReadWriter, ours *Hello) (*Hello, error) {
	if err := SendHello(rw, ours); err != nil {
		return nil, err
	}
	return ReadHello(rw)
}

// SendDisconnect writes a DISCONNECT with the given reason.
func SendDisconnect(rw MsgReadWriter, reason DisconnectReason) error {
	return WriteValue(rw, DiscMsg, disconnectMsg(reason))
}

// disconnectMsg encodes DISCONNECT's payload, the list [reason]. Every
// reason fits in a byte, and Go boxes such an integer into an `any`
// without allocating, which a []uint64{reason} payload could not do.
type disconnectMsg DisconnectReason

func (m disconnectMsg) AppendRLP(b []byte) []byte {
	b, list := rlp.ListStart(b)
	b = rlp.AppendUint(b, uint64(m))
	return rlp.ListEnd(b, list)
}

// DecodeDisconnect parses a DISCONNECT payload, accepting both the
// spec's list form [reason] and the bare-integer form some clients
// emit, and an empty payload (reason 0). Oversized or undecodable
// payloads degrade to DiscRequested rather than failing: the session
// is over either way, and hostile padding earns no error path.
func DecodeDisconnect(payload []byte) DisconnectReason {
	if len(payload) == 0 || len(payload) > MaxDisconnectSize {
		return DiscRequested
	}
	var list []uint64
	if err := rlp.DecodeBytes(payload, &list); err == nil {
		if len(list) == 0 {
			return DiscRequested
		}
		return DisconnectReason(list[0])
	}
	var bare uint64
	if err := rlp.DecodeBytes(payload, &bare); err == nil {
		return DisconnectReason(bare)
	}
	return DiscRequested
}

// SendPing / SendPong implement the base keepalive.
func SendPing(rw MsgReadWriter) error { return rw.WriteMsg(PingMsg, []byte{0xC0}) }

// SendPong answers a ping.
func SendPong(rw MsgReadWriter) error { return rw.WriteMsg(PongMsg, []byte{0xC0}) }

// MatchCaps computes the shared capabilities and their message-code
// offsets. Both sides sort shared caps by name (then version) and
// stack their message spaces above the base protocol, so equal HELLOs
// yield equal offsets on both ends. For equal names the highest
// shared version wins. A name lengths does not list gets 16 codes.
func MatchCaps(ours, theirs []Cap, lengths map[string]uint64) []NegotiatedCap {
	// Every shared name is in both lists once at least.
	return AppendMatchCaps(make([]NegotiatedCap, 0, min(len(ours), len(theirs))), ours, theirs, lengths)
}

// AppendMatchCaps is MatchCaps appending to dst, so that a caller with
// room for the result allocates nothing. Cap lists are a handful of
// entries, so it scans them rather than building a map, and keeps the
// result sorted as it grows.
func AppendMatchCaps(dst []NegotiatedCap, ours, theirs []Cap, lengths map[string]uint64) []NegotiatedCap {
	start := len(dst)
	for _, oc := range ours {
		if !slices.Contains(theirs, oc) {
			continue
		}
		out := dst[start:]
		i := 0
		for i < len(out) && out[i].Name < oc.Name {
			i++
		}
		if i < len(out) && out[i].Name == oc.Name {
			out[i].Version = max(out[i].Version, oc.Version)
			continue
		}
		dst = slices.Insert(dst, start+i, NegotiatedCap{Cap: oc})
	}
	offset := BaseProtocolLength
	for i := start; i < len(dst); i++ {
		length := lengths[dst[i].Name]
		if length == 0 {
			length = 16 // conservative default message space
		}
		dst[i].Offset, dst[i].Length = offset, length
		offset += length
	}
	return dst
}

// NegotiatedCap is a shared capability with its assigned code space.
type NegotiatedCap struct {
	Cap
	Offset uint64 // first message code
	Length uint64 // number of codes reserved
}
