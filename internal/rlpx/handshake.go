// Package rlpx implements the RLPx transport protocol: the encrypted,
// authenticated TCP session layer of Ethereum's network stack.
//
// A connection is established in two phases (§2.1 of the paper):
//
//  1. An ECIES key-exchange handshake. The initiator sends an
//     encrypted "auth" message carrying a signature made with an
//     ephemeral key over (static-shared-secret XOR nonce); the
//     recipient answers with an encrypted "ack" carrying its own
//     ephemeral public key and nonce. Both sides then derive frame
//     secrets from the ephemeral ECDH result and the two nonces.
//
//  2. Framed messaging. Every message travels in a frame encrypted
//     with AES-256-CTR and authenticated with a rolling Keccak-256
//     MAC keyed per direction.
//
// The handshake uses the EIP-8 format (2-byte size prefix and RLP
// bodies with trailing padding) that clients of the paper's era emit.
// Snappy payload compression (devp2p ≥ 5) is supported via
// Conn.SetSnappy, which callers enable after the HELLO exchange when
// both sides advertise base protocol version 5, exactly as real
// clients do.
package rlpx

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"

	"repro/internal/crypto/ecies"
	"repro/internal/crypto/keccak"
	"repro/internal/crypto/secp256k1"
	"repro/internal/enode"
	"repro/internal/rlp"
)

const (
	// handshake message versions.
	authVersion = 4
	ackVersion  = 4

	shaLen   = 32
	sigLen   = secp256k1.SignatureLength
	pubLen   = 64
	nonceLen = 32
)

// Handshake errors.
var (
	ErrBadHandshake = errors.New("rlpx: bad handshake")
)

// authMsgV4 is the EIP-8 auth body (initiator → recipient). Rest
// captures the fields a newer version appends; its tag marks it for
// the reference codec in internal/rlp's tests.
type authMsgV4 struct {
	Signature   [sigLen]byte
	InitiatorPK [pubLen]byte
	Nonce       [nonceLen]byte
	Version     uint
	Rest        []rlp.RawValue `rlp:"tail"`
}

func (m *authMsgV4) AppendRLP(b []byte) []byte {
	b, list := rlp.ListStart(b)
	b = rlp.AppendBytes(b, m.Signature[:])
	b = rlp.AppendBytes(b, m.InitiatorPK[:])
	return appendBodyTail(b, list, m.Nonce[:], m.Version, m.Rest)
}

func (m *authMsgV4) DecodeRLP(s *rlp.Stream) (err error) {
	if _, err = s.List(); err != nil {
		return err
	}
	if err = s.ReadBytes(m.Signature[:]); err != nil {
		return err
	}
	if err = s.ReadBytes(m.InitiatorPK[:]); err != nil {
		return err
	}
	return decodeBodyTail(s, m.Nonce[:], &m.Version, &m.Rest)
}

// authAckV4 is the EIP-8 ack body (recipient → initiator).
type authAckV4 struct {
	EphemeralPK [pubLen]byte
	Nonce       [nonceLen]byte
	Version     uint
	Rest        []rlp.RawValue `rlp:"tail"`
}

func (m *authAckV4) AppendRLP(b []byte) []byte {
	b, list := rlp.ListStart(b)
	b = rlp.AppendBytes(b, m.EphemeralPK[:])
	return appendBodyTail(b, list, m.Nonce[:], m.Version, m.Rest)
}

func (m *authAckV4) DecodeRLP(s *rlp.Stream) (err error) {
	if _, err = s.List(); err != nil {
		return err
	}
	if err = s.ReadBytes(m.EphemeralPK[:]); err != nil {
		return err
	}
	return decodeBodyTail(s, m.Nonce[:], &m.Version, &m.Rest)
}

// appendBodyTail and decodeBodyTail code the nonce, version and Rest
// both bodies end with, and close the body's list.
func appendBodyTail(b []byte, list int, nonce []byte, version uint, rest []rlp.RawValue) []byte {
	b = rlp.AppendBytes(b, nonce)
	b = rlp.AppendUint(b, uint64(version))
	b = rlp.AppendRaw(b, rest...)
	return rlp.ListEnd(b, list)
}

func decodeBodyTail(s *rlp.Stream, nonce []byte, version *uint, rest *[]rlp.RawValue) error {
	if err := s.ReadBytes(nonce); err != nil {
		return err
	}
	v, err := s.Uint64()
	if err != nil {
		return err
	}
	*version = uint(v)
	if *rest, err = s.Rest(); err != nil {
		return err
	}
	return s.ListEnd()
}

// secrets are the symmetric session keys derived by the handshake,
// with each direction's MAC sponge already seeded.
type secrets struct {
	aes, mac              [32]byte
	egressMAC, ingressMAC keccak.Sponge
	remoteID              enode.ID
}

// handshakeState accumulates one side's handshake and owns everything
// it works on, by value: the keys, the two bodies, the derived
// secrets, the two raw packets (kept whole because they seed the frame
// MACs) and one plaintext buffer that serves the outbound body before
// sealing and the inbound body after opening. It lives inside its
// Conn, so a handshake between two of these stacks allocates nothing
// of its own beyond the ECIES ciphers.
type handshakeState struct {
	initiator bool
	remotePub secp256k1.PublicKey // remote static key

	initNonce, respNonce [nonceLen]byte
	ephemeralKey         secp256k1.PrivateKey
	remoteEphemeralPub   secp256k1.PublicKey
	// entropy receives the random reads that land nowhere else: a
	// buffer handed to an io.Reader escapes, so a local one would be
	// an allocation per read.
	entropy [32]byte

	// The bodies, held here so that rlp.DecodeFirst's `any` takes a
	// pointer into the Conn rather than moving a local to the heap.
	auth authMsgV4
	ack  authAckV4

	sec secrets

	rbuf  []byte // raw inbound packet, size prefix included
	wbuf  []byte // raw outbound packet, size prefix included
	plain []byte // handshake body scratch

	// scratch backs the three slices above, each capped to its own
	// region so an oversized packet reallocates instead of running
	// into its neighbour.
	scratch [2*maxPacket + maxPlainLen]byte
}

// maxPlainLen bounds the bodies sealEIP8 produces: the auth message
// (65-, 64- and 32-byte strings with their headers, the version and
// the list header: 169 bytes; the ack is smaller) plus the padding,
// which is drawn from [100, maxPadLen). Sizing the scratch to it means
// a handshake between two of these stacks never grows a buffer.
const (
	maxPadLen   = 300
	maxPlainLen = 169 + maxPadLen
	maxPacket   = 2 + ecies.Overhead + maxPlainLen
)

func (h *handshakeState) init(initiator bool) {
	h.initiator = initiator
	h.rbuf = h.scratch[0:0:maxPacket]
	h.wbuf = h.scratch[maxPacket : maxPacket : 2*maxPacket]
	h.plain = h.scratch[2*maxPacket : 2*maxPacket]
}

// staticSharedXorNonce is what the auth signature covers: the static
// ECDH secret XOR the initiator's nonce.
func (h *handshakeState) staticSharedXorNonce(priv *secp256k1.PrivateKey) (signed [32]byte, err error) {
	if err := secp256k1.SharedSecretInto(&signed, priv, &h.remotePub); err != nil {
		return signed, fmt.Errorf("rlpx: static ECDH: %w", err)
	}
	for i := range signed {
		signed[i] ^= h.initNonce[i]
	}
	return signed, nil
}

// initiate runs the auth/ack exchange from the dialing side and
// leaves the session keys in h.sec. remoteID must be the expected
// node identity.
func (h *handshakeState) initiate(conn io.ReadWriter, priv *secp256k1.PrivateKey, remoteID enode.ID) error {
	h.init(true)
	if err := secp256k1.ParsePublicKeyInto(&h.remotePub, remoteID[:]); err != nil {
		return fmt.Errorf("rlpx: remote ID is not a valid key: %w", err)
	}
	if err := h.makeAuthMsg(priv); err != nil {
		return err
	}
	if _, err := conn.Write(h.wbuf); err != nil {
		return fmt.Errorf("rlpx: writing auth: %w", err)
	}

	if err := h.readHandshakeMsg(conn, priv); err != nil {
		return err
	}
	// DecodeFirst: EIP-8 bodies carry random padding after the list.
	if err := rlp.DecodeFirst(h.plain, &h.ack); err != nil {
		return fmt.Errorf("%w: decoding ack: %v", ErrBadHandshake, err)
	}
	h.respNonce = h.ack.Nonce
	if err := secp256k1.ParsePublicKeyInto(&h.remoteEphemeralPub, h.ack.EphemeralPK[:]); err != nil {
		return fmt.Errorf("%w: bad ephemeral key in ack: %v", ErrBadHandshake, err)
	}
	return h.deriveSecrets(remoteID)
}

// accept runs the exchange from the listening side and leaves the
// session keys, with the discovered initiator identity, in h.sec.
func (h *handshakeState) accept(conn io.ReadWriter, priv *secp256k1.PrivateKey) error {
	h.init(false)
	if err := h.readHandshakeMsg(conn, priv); err != nil {
		return err
	}
	if err := rlp.DecodeFirst(h.plain, &h.auth); err != nil {
		return fmt.Errorf("%w: decoding auth: %v", ErrBadHandshake, err)
	}
	if err := secp256k1.ParsePublicKeyInto(&h.remotePub, h.auth.InitiatorPK[:]); err != nil {
		return fmt.Errorf("%w: bad initiator key: %v", ErrBadHandshake, err)
	}
	h.initNonce = h.auth.Nonce

	// Recover the initiator's ephemeral key from the signature over
	// (static-shared-secret XOR nonce).
	signed, err := h.staticSharedXorNonce(priv)
	if err != nil {
		return err
	}
	if err := secp256k1.RecoverPubkeyInto(&h.remoteEphemeralPub, signed[:], h.auth.Signature[:]); err != nil {
		return fmt.Errorf("%w: recovering ephemeral key: %v", ErrBadHandshake, err)
	}

	// Send the ack.
	if err := h.makeAuthAck(); err != nil {
		return err
	}
	if _, err := conn.Write(h.wbuf); err != nil {
		return fmt.Errorf("rlpx: writing ack: %w", err)
	}
	return h.deriveSecrets(enode.PubkeyID(&h.remotePub))
}

// makeAuthMsg builds the sealed auth packet in h.wbuf.
func (h *handshakeState) makeAuthMsg(priv *secp256k1.PrivateKey) error {
	if _, err := rand.Read(h.initNonce[:]); err != nil {
		return err
	}
	if err := secp256k1.GenerateKeyInto(&h.ephemeralKey, rand.Reader, &h.entropy); err != nil {
		return err
	}
	signed, err := h.staticSharedXorNonce(priv)
	if err != nil {
		return err
	}
	if err := secp256k1.SignInto(&h.auth.Signature, &h.ephemeralKey, signed[:]); err != nil {
		return fmt.Errorf("rlpx: signing auth: %w", err)
	}
	priv.Pub.PutRaw(&h.auth.InitiatorPK)
	h.auth.Nonce, h.auth.Version = h.initNonce, authVersion
	return h.sealEIP8(&h.auth)
}

// makeAuthAck builds the sealed ack packet in h.wbuf.
func (h *handshakeState) makeAuthAck() error {
	if _, err := rand.Read(h.respNonce[:]); err != nil {
		return err
	}
	if err := secp256k1.GenerateKeyInto(&h.ephemeralKey, rand.Reader, &h.entropy); err != nil {
		return err
	}
	h.ephemeralKey.Pub.PutRaw(&h.ack.EphemeralPK)
	h.ack.Nonce, h.ack.Version = h.respNonce, ackVersion
	return h.sealEIP8(&h.ack)
}

// sealEIP8 RLP-encodes, pads, encrypts, and prefixes a handshake
// message per EIP-8, leaving the packet in h.wbuf.
func (h *handshakeState) sealEIP8(msg rlp.Encoder) error {
	body := msg.AppendRLP(h.plain[:0])
	// Random padding of 100-300 bytes disguises the message type.
	n := len(body)
	body = append(body, make([]byte, 100+h.randInt(maxPadLen-100))...)
	rand.Read(body[n:])
	h.plain = body[:0]

	ctLen := len(body) + ecies.Overhead
	h.wbuf = append(h.wbuf[:0], byte(ctLen>>8), byte(ctLen))
	var err error
	h.wbuf, err = ecies.Seal(h.wbuf, rand.Reader, &h.remotePub, body, nil, h.wbuf[:2])
	return err
}

// randInt draws from [0, n) for n ≤ 1<<16, reading into h.entropy.
func (h *handshakeState) randInt(n int) int {
	b := h.entropy[:2]
	rand.Read(b)
	return (int(b[0])<<8 | int(b[1])) % n
}

// readHandshakeMsg reads a size-prefixed EIP-8 handshake packet into
// h.rbuf and decrypts it into h.plain.
func (h *handshakeState) readHandshakeMsg(r io.Reader, priv *secp256k1.PrivateKey) error {
	h.rbuf = h.rbuf[:2]
	if _, err := io.ReadFull(r, h.rbuf); err != nil {
		return fmt.Errorf("rlpx: reading handshake size: %w", err)
	}
	size := int(h.rbuf[0])<<8 | int(h.rbuf[1])
	if size < ecies.Overhead {
		return fmt.Errorf("%w: handshake size %d too small", ErrBadHandshake, size)
	}
	// size is a 16-bit prefix, so this grows to 64 KiB at most.
	h.rbuf = append(h.rbuf, make([]byte, size)...)
	if _, err := io.ReadFull(r, h.rbuf[2:]); err != nil {
		return fmt.Errorf("rlpx: reading handshake body: %w", err)
	}
	var err error
	h.plain, err = ecies.Open(h.plain[:0], priv, h.rbuf[2:], nil, h.rbuf[:2])
	if err != nil {
		return fmt.Errorf("%w: decrypting: %v", ErrBadHandshake, err)
	}
	return nil
}

// deriveSecrets computes the frame keys and MAC states (§ "secrets"
// of the RLPx spec) into h.sec.
func (h *handshakeState) deriveSecrets(remoteID enode.ID) error {
	var eph [32]byte
	if err := secp256k1.SharedSecretInto(&eph, &h.ephemeralKey, &h.remoteEphemeralPub); err != nil {
		return fmt.Errorf("rlpx: ephemeral ECDH: %w", err)
	}
	// shared-secret = keccak(eph || keccak(respNonce || initNonce))
	nonceHash := hashPair(&h.respNonce, &h.initNonce)
	sharedSecret := hashPair(&eph, &nonceHash)
	s := &h.sec
	s.remoteID = remoteID
	s.aes = hashPair(&eph, &sharedSecret)
	s.mac = hashPair(&eph, &s.aes)

	// MAC states: egress seeded with (mac-secret ^ remote-nonce) and
	// our outbound handshake packet; ingress with (mac-secret ^ own
	// nonce) and the inbound packet.
	egressNonce, ingressNonce := &h.initNonce, &h.respNonce
	if h.initiator {
		egressNonce, ingressNonce = ingressNonce, egressNonce
	}
	s.egressMAC = seedMAC(&s.mac, egressNonce, h.wbuf)
	s.ingressMAC = seedMAC(&s.mac, ingressNonce, h.rbuf)
	return nil
}

// hashPair is keccak(a || b), hashed from one stack buffer.
func hashPair(a, b *[32]byte) [32]byte {
	var buf [64]byte
	copy(buf[:32], a[:])
	copy(buf[32:], b[:])
	return keccak.Sum256(buf[:])
}

// seedMAC starts one direction's MAC sponge: it absorbs
// (mac-secret ^ nonce) and then the raw handshake packet.
func seedMAC(macSecret, nonce *[32]byte, packet []byte) keccak.Sponge {
	var x [32]byte
	for i := range x {
		x[i] = macSecret[i] ^ nonce[i]
	}
	d := keccak.New256Sponge()
	d.Write(x[:])
	d.Write(packet)
	return d
}
