package rlpx

import (
	"crypto/aes"
	"crypto/cipher"
	"errors"
	"fmt"
	"io"

	"repro/internal/crypto/ctr"
	"repro/internal/crypto/keccak"
	"repro/internal/rlp"
)

// Frame layer errors.
var (
	ErrBadHeaderMAC = errors.New("rlpx: bad header MAC")
	ErrBadFrameMAC  = errors.New("rlpx: bad frame MAC")
	ErrFrameTooBig  = errors.New("rlpx: frame exceeds size limit")
)

// MaxFrameSize bounds a single frame's payload; the devp2p base
// protocol never needs more in this repository.
const MaxFrameSize = 16 * 1024 * 1024

// zeroHeader is the constant header-data (an RLP list [0, 0]) that
// fills bytes 3..5 of every frame header.
var zeroHeader = []byte{0xC2, 0x80, 0x80}

// macState is one direction's rolling MAC: a running Keccak-256
// absorbing frame ciphertext, combined with an AES-ECB step keyed by
// the MAC secret. The sponge is held by value, so a MAC step is
// arithmetic on this struct with no interface call or heap traffic.
// Each direction of a Conn is driven by at most one goroutine (see
// Conn); a digest returned by the compute methods aliases sum and is
// valid until the next MAC operation on the same state.
type macState struct {
	hash  keccak.Sponge
	block cipher.Block
	sum   [32]byte // digest of everything absorbed so far, if fresh
	fresh bool     // sum matches hash; false after any write
	aes   [16]byte // AES-ECB output for the update step
}

// write absorbs p into the running hash.
func (m *macState) write(p []byte) {
	m.hash.Write(p)
	m.fresh = false
}

// digest returns the first 16 bytes of the running hash's digest. A
// frame MAC ends on the digest the next header MAC starts from, so
// the value is kept rather than squeezed out of the same state twice.
func (m *macState) digest() []byte {
	if !m.fresh {
		m.hash.Sum(m.sum[:0])
		m.fresh = true
	}
	return m.sum[:16]
}

// computeHeaderMAC advances the MAC over a header ciphertext.
func (m *macState) computeHeaderMAC(headerCiphertext []byte) []byte {
	return m.update(headerCiphertext)
}

// computeFrameMAC advances the MAC over frame ciphertext; the seed of
// the update step is the digest after absorbing it.
func (m *macState) computeFrameMAC(frameCiphertext []byte) []byte {
	m.write(frameCiphertext)
	return m.update(m.digest())
}

// update implements the odd RLPx MAC step: AES-encrypt the current
// digest, XOR with the seed, absorb, and return the new digest half.
// seed may alias the current digest.
func (m *macState) update(seed []byte) []byte {
	m.block.Encrypt(m.aes[:], m.digest())
	for i := range m.aes {
		m.aes[i] ^= seed[i]
	}
	m.write(m.aes[:])
	return m.digest()
}

// frameRW encrypts and authenticates frames in both directions.
// wbuf and rbuf are per-direction scratch reused across frames; the
// Conn contract of one goroutine per direction makes that safe. They
// start on the arrays frameRW carries, which hold every frame of an
// honest session, and move to the heap only for a larger frame.
type frameRW struct {
	conn    io.ReadWriter
	enc     ctr.Stream // egress AES-CTR keystream
	dec     ctr.Stream // ingress AES-CTR keystream
	em      macState
	im      macState
	wbuf    []byte   // whole egress wire frame: header|hmac|frame|fmac
	rbuf    []byte   // ingress frame+fmac; the payload ReadMsg returns lives here
	headbuf [32]byte // ingress header ciphertext + MAC

	wscratch, rscratch [frameScratch]byte
}

// frameScratch fits the wire image of an honestPayload-sized message:
// header and its MAC, code and padding, frame MAC.
const frameScratch = 32 + honestPayload + 16 + 16

// zeroIV is the CTR streams' IV: the key is session-unique.
var zeroIV [aes.BlockSize]byte

// init keys rw from the handshake's secrets. One AES block per key is
// shared by the two directions: cipher.Block is stateless, and each
// CTR stream and MAC state keeps its own position.
func (rw *frameRW) init(conn io.ReadWriter, s *secrets) {
	frameBlock, err := aes.NewCipher(s.aes[:])
	if err != nil {
		panic("rlpx: aes secret has wrong length: " + err.Error())
	}
	macBlock, err := aes.NewCipher(s.mac[:])
	if err != nil {
		panic("rlpx: mac secret has wrong length: " + err.Error())
	}
	rw.conn = conn
	rw.enc.Init(frameBlock, zeroIV[:])
	rw.dec.Init(frameBlock, zeroIV[:])
	rw.em = macState{hash: s.egressMAC, block: macBlock}
	rw.im = macState{hash: s.ingressMAC, block: macBlock}
	rw.wbuf = rw.wscratch[:0]
	rw.rbuf = rw.rscratch[:0]
}

// scratch returns *buf resliced to n bytes, or a new n-byte buffer
// when it is too small, kept in *buf for later messages only up to
// maxKeepPayload: a rare oversized message should not pin its buffer.
func scratch(buf *[]byte, n int) []byte {
	if cap(*buf) >= n {
		return (*buf)[:n]
	}
	b := make([]byte, n)
	if n <= maxKeepPayload {
		*buf = b
	}
	return b
}

// WriteMsg frames one message: code plus pre-encoded RLP payload.
// The wire image is assembled in rw.wbuf.
func (rw *frameRW) WriteMsg(code uint64, payload []byte) error {
	var codeArr [9]byte
	codeBytes := rlp.AppendUint(codeArr[:0], code)
	frameSize := len(codeBytes) + len(payload)
	if frameSize > MaxFrameSize {
		return ErrFrameTooBig
	}
	padded := frameSize
	if over := frameSize % 16; over != 0 {
		padded += 16 - over
	}
	wbuf := scratch(&rw.wbuf, 32+padded+16)

	// Header: 3-byte size, zero header-data, zero padding to 16. The
	// tail must be cleared explicitly since the buffer is reused.
	header := wbuf[:16]
	header[0] = byte(frameSize >> 16)
	header[1] = byte(frameSize >> 8)
	header[2] = byte(frameSize)
	copy(header[3:], zeroHeader)
	for i := 3 + len(zeroHeader); i < 16; i++ {
		header[i] = 0
	}
	rw.enc.XORKeyStream(header, header)
	// The MAC result aliases macState scratch; copy it into the wire
	// buffer before the frame MAC runs.
	copy(wbuf[16:32], rw.em.computeHeaderMAC(header))

	// Frame data padded to a 16-byte boundary; clear the stale tail.
	frame := wbuf[32 : 32+padded]
	n := copy(frame, codeBytes)
	n += copy(frame[n:], payload)
	for i := n; i < padded; i++ {
		frame[i] = 0
	}
	rw.enc.XORKeyStream(frame, frame)
	copy(wbuf[32+padded:], rw.em.computeFrameMAC(frame))

	_, err := rw.conn.Write(wbuf)
	return err
}

// ReadMsg reads and authenticates one frame, returning the message
// code and payload. maxFrame caps the advertised frame size; the
// check runs before the frame buffer is sized, so a hostile header
// announcing (say) 16 MiB costs nothing but the 32-byte header read.
// Non-positive maxFrame falls back to the absolute limit. The payload
// is decrypted in place in rw.rbuf and is valid until the next
// ReadMsg.
func (rw *frameRW) ReadMsg(maxFrame int) (code uint64, payload []byte, err error) {
	if maxFrame <= 0 || maxFrame > MaxFrameSize {
		maxFrame = MaxFrameSize
	}
	headbuf := rw.headbuf[:]
	if _, err := io.ReadFull(rw.conn, headbuf); err != nil {
		return 0, nil, err
	}
	wantHeaderMAC := rw.im.computeHeaderMAC(headbuf[:16])
	if !hmacEqual(wantHeaderMAC, headbuf[16:]) {
		return 0, nil, ErrBadHeaderMAC
	}
	rw.dec.XORKeyStream(headbuf[:16], headbuf[:16])
	frameSize := int(headbuf[0])<<16 | int(headbuf[1])<<8 | int(headbuf[2])
	if frameSize > maxFrame {
		return 0, nil, fmt.Errorf("%w: %d > %d", ErrFrameTooBig, frameSize, maxFrame)
	}
	padded := frameSize
	if over := frameSize % 16; over != 0 {
		padded += 16 - over
	}
	framebuf := scratch(&rw.rbuf, padded+16)
	if _, err := io.ReadFull(rw.conn, framebuf); err != nil {
		return 0, nil, fmt.Errorf("rlpx: reading frame: %w", err)
	}
	frame, mac := framebuf[:padded], framebuf[padded:]
	wantFrameMAC := rw.im.computeFrameMAC(frame)
	if !hmacEqual(wantFrameMAC, mac) {
		return 0, nil, ErrBadFrameMAC
	}
	rw.dec.XORKeyStream(frame, frame)
	content := frame[:frameSize]

	// Message code is a single RLP value at the front.
	rest, err := readMsgCode(content, &code)
	if err != nil {
		return 0, nil, err
	}
	return code, rest, nil
}

func readMsgCode(b []byte, code *uint64) ([]byte, error) {
	content, rest, err := rlp.SplitString(b)
	if err != nil {
		return nil, fmt.Errorf("rlpx: reading message code: %w", err)
	}
	var v uint64
	for _, c := range content {
		v = v<<8 | uint64(c)
	}
	// A single byte < 0x80 is its own value; empty string is zero.
	*code = v
	return rest, nil
}

func hmacEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	var v byte
	for i := range a {
		v |= a[i] ^ b[i]
	}
	return v == 0
}
