package rlpx

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/crypto/secp256k1"
	"repro/internal/enode"
	"repro/internal/rlp"
	"repro/internal/snappy"
)

// Timeouts matching the Geth constants the paper lists in §4.
const (
	// FrameReadTimeout bounds a single message read.
	FrameReadTimeout = 30 * time.Second
	// FrameWriteTimeout bounds a single message write.
	FrameWriteTimeout = 20 * time.Second
	// HandshakeTimeout bounds the whole auth/ack key exchange. A peer
	// that connects and never completes (or never starts) the
	// handshake is cut off here instead of pinning a goroutine and a
	// socket forever.
	HandshakeTimeout = 5 * time.Second
)

// DefaultMaxReadFrame bounds inbound frame payloads (and, with snappy
// enabled, the decompressed payload). The devp2p base protocol and
// the eth subset this repository speaks never legitimately approach
// it; a peer advertising more in a frame header is cut off before the
// frame buffer is allocated. Callers that really expect bigger
// messages raise it per connection with SetMaxReadFrame, up to the
// absolute MaxFrameSize.
const DefaultMaxReadFrame = 1 << 20

// Conn is an established RLPx connection carrying framed messages.
// Option fields (timeouts, snappy, RTT) may be set from a different
// goroutine than the reader/writer and are therefore atomic; the
// frame reader and writer themselves must each be used from at most
// one goroutine at a time.
//
// A Conn is one allocation, made before the handshake starts: it holds
// the handshake's keys and packets, the session keys, the frame layer
// and every scratch buffer either direction uses, each sized so that
// an honest session's messages fit.
type Conn struct {
	fd       net.Conn
	rw       frameRW
	remoteID enode.ID
	hs       handshakeState

	// pbuf is the WriteMsgValue payload scratch and zbuf the snappy
	// output scratch, owned by the single writer goroutine; dbuf holds
	// the decompressed payload ReadMsg returns, owned by the reader.
	// Like the frame buffers in frameRW they are reused across
	// messages and start on the arrays below.
	pbuf []byte
	zbuf []byte
	dbuf []byte

	readTimeout  atomic.Int64 // nanoseconds; 0 disables
	writeTimeout atomic.Int64
	rtt          atomic.Int64
	maxReadFrame atomic.Int64
	snappy       atomic.Bool

	pscratch, zscratch, dscratch [honestPayload]byte
}

// honestPayload sizes a Conn's scratch arrays: every message an honest
// session of this stack carries (HELLO, STATUS, a DAO-fork header,
// DISCONNECT) fits, so such a session grows no buffer. A larger
// message moves its buffer to the heap, where it is kept for later
// messages up to maxKeepPayload.
const honestPayload = 1024

// maxKeepPayload caps each scratch buffer retained between messages;
// a rare oversized message should not pin its buffer forever.
const maxKeepPayload = 1 << 17

// Initiate performs the initiator handshake over an established TCP
// connection toward the node with the given identity, bounded by
// HandshakeTimeout.
func Initiate(fd net.Conn, priv *secp256k1.PrivateKey, remoteID enode.ID) (*Conn, error) {
	return InitiateTimeout(fd, priv, remoteID, HandshakeTimeout)
}

// InitiateTimeout is Initiate with an explicit handshake deadline
// (zero disables it — the caller manages fd deadlines itself).
func InitiateTimeout(fd net.Conn, priv *secp256k1.PrivateKey, remoteID enode.ID, timeout time.Duration) (*Conn, error) {
	c := &Conn{fd: fd}
	armHandshakeDeadline(fd, timeout)
	err := c.hs.initiate(fd, priv, remoteID)
	return c.established(timeout, err)
}

// Accept performs the recipient handshake on an inbound connection
// and learns the initiator's identity, bounded by HandshakeTimeout. A
// client that opens a socket and never sends auth ("never-ACK") is
// disconnected when the deadline fires.
func Accept(fd net.Conn, priv *secp256k1.PrivateKey) (*Conn, error) {
	return AcceptTimeout(fd, priv, HandshakeTimeout)
}

// AcceptTimeout is Accept with an explicit handshake deadline (zero
// disables it).
func AcceptTimeout(fd net.Conn, priv *secp256k1.PrivateKey, timeout time.Duration) (*Conn, error) {
	c := &Conn{fd: fd}
	armHandshakeDeadline(fd, timeout)
	err := c.hs.accept(fd, priv)
	return c.established(timeout, err)
}

func armHandshakeDeadline(fd net.Conn, timeout time.Duration) {
	if timeout > 0 {
		// Wall time by design: socket deadlines are absolute wall-clock
		// instants the kernel compares against real time.
		fd.SetDeadline(time.Now().Add(timeout)) //nolint:errcheck
	}
}

// established finishes a handshake that returned err: it counts the
// attempt and, on success, clears the handshake deadline and keys the
// frame layer from the session secrets.
func (c *Conn) established(timeout time.Duration, err error) (*Conn, error) {
	countHandshake(err)
	if err != nil {
		return nil, err
	}
	if timeout > 0 {
		c.fd.SetDeadline(time.Time{}) //nolint:errcheck
	}
	c.remoteID = c.hs.sec.remoteID
	c.rw.init(c.fd, &c.hs.sec)
	c.pbuf, c.zbuf, c.dbuf = c.pscratch[:0], c.zscratch[:0], c.dscratch[:0]
	c.readTimeout.Store(int64(FrameReadTimeout))
	c.writeTimeout.Store(int64(FrameWriteTimeout))
	c.maxReadFrame.Store(DefaultMaxReadFrame)
	return c, nil
}

// RemoteID returns the authenticated peer identity.
func (c *Conn) RemoteID() enode.ID { return c.remoteID }

// SetTimeouts overrides the per-message deadlines (zero disables).
func (c *Conn) SetTimeouts(read, write time.Duration) {
	c.readTimeout.Store(int64(read))
	c.writeTimeout.Store(int64(write))
}

// SetSnappy enables devp2p-v5 payload compression. Real clients turn
// this on right after the HELLO exchange when both sides advertise
// base protocol version ≥ 5; message codes stay uncompressed.
func (c *Conn) SetSnappy(on bool) { c.snappy.Store(on) }

// SetMaxReadFrame overrides the inbound frame-size cap (which also
// bounds decompressed snappy payloads). Values outside
// (0, MaxFrameSize] are clamped to the absolute limit.
func (c *Conn) SetMaxReadFrame(n int) {
	if n <= 0 || n > MaxFrameSize {
		n = MaxFrameSize
	}
	c.maxReadFrame.Store(int64(n))
}

// WriteMsg sends one message with the standard write deadline.
func (c *Conn) WriteMsg(code uint64, payload []byte) error {
	if d := c.writeTimeout.Load(); d > 0 {
		// Wall time by design: socket deadlines are absolute wall-clock
		// instants the kernel compares against real time.
		c.fd.SetWriteDeadline(time.Now().Add(time.Duration(d))) //nolint:errcheck
	}
	if c.snappy.Load() {
		enc, err := snappy.AppendEncode(c.zbuf[:0], payload)
		if err != nil {
			return fmt.Errorf("rlpx: compressing payload: %w", err)
		}
		keep(&c.zbuf, enc)
		payload = enc
	}
	err := c.rw.WriteMsg(code, payload)
	if err == nil {
		countWrite(len(payload))
	}
	return err
}

// WriteMsgValue RLP-encodes v straight into the connection's payload
// scratch and sends it as one message, skipping the per-message
// payload allocation that WriteMsg(code, rlp.EncodeToBytes(v)) pays.
// Wire types append their own encoding, so steady-state sends
// allocate nothing on the encode side.
func (c *Conn) WriteMsgValue(code uint64, v any) error {
	payload, err := rlp.EncodeAppend(c.pbuf[:0], v)
	if err != nil {
		return fmt.Errorf("rlpx: encoding message: %w", err)
	}
	keep(&c.pbuf, payload)
	return c.WriteMsg(code, payload)
}

// keep makes b, the result of appending to *buf, the scratch for
// later messages unless it outgrew maxKeepPayload.
func keep(buf *[]byte, b []byte) {
	if cap(b) <= maxKeepPayload {
		*buf = b[:0]
	}
}

// ReadMsg receives one message with the standard read deadline. The
// payload lives in the connection's read scratch and is valid until
// the next ReadMsg: decode it (decoded values never alias it) or copy
// it before reading again.
func (c *Conn) ReadMsg() (code uint64, payload []byte, err error) {
	if d := c.readTimeout.Load(); d > 0 {
		// Wall time by design: socket deadlines are absolute wall-clock
		// instants the kernel compares against real time.
		c.fd.SetReadDeadline(time.Now().Add(time.Duration(d))) //nolint:errcheck
	}
	max := int(c.maxReadFrame.Load())
	compressed := c.snappy.Load()
	code, payload, err = c.rw.ReadMsg(max)
	if err != nil {
		return 0, nil, err
	}
	countRead(len(payload))
	if compressed && len(payload) > 0 {
		// The decompressed payload is held to the same cap as the wire
		// frame, so a snappy bomb cannot expand past it.
		dec, err := snappy.AppendDecodeCapped(c.dbuf[:0], payload, max)
		if err != nil {
			return 0, nil, fmt.Errorf("rlpx: decompressing payload: %w", err)
		}
		keep(&c.dbuf, dec)
		payload = dec
	}
	return code, payload, nil
}

// Close tears down the underlying connection.
func (c *Conn) Close() error { return c.fd.Close() }

// SmoothedRTT reports the connection's round-trip estimate. Real
// kernels expose TCP's sRTT; portably we cannot, so this returns the
// value recorded by the dialer (set via SetRTT) — NodeFinder stores
// its handshake timing here, mirroring how the paper samples latency
// from the TCP socket (§4).
func (c *Conn) SmoothedRTT() time.Duration { return time.Duration(c.rtt.Load()) }

// SetRTT records a measured round-trip estimate for SmoothedRTT.
func (c *Conn) SetRTT(d time.Duration) { c.rtt.Store(int64(d)) }
