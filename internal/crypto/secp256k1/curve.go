// Package secp256k1 implements the secp256k1 elliptic curve and the
// ECDSA operations Ethereum's network stack depends on: key
// generation, deterministic signing (RFC 6979), verification, public
// key recovery from signatures, and ECDH shared-secret computation.
//
// Ethereum node IDs are secp256k1 public keys; RLPx discovery packets
// are ECDSA-signed with recoverable signatures; and the RLPx transport
// handshake derives its symmetric keys from secp256k1 ECDH. Keys hold
// their coordinates as fixed-limb field and scalar values (field.go,
// scalar.go) and every key operation stays in that form: a precomputed
// table walk for base-point multiples and a GLV-split wNAF ladder for
// variable points (table.go). math/big appears only at the edges: the
// published curve parameters and the Point API (the original math/big
// implementation is the differential-test oracle, in oracle_test.go).
// Nothing here is constant-time and it must not be used to protect
// real funds; this package exists to drive a protocol measurement
// stack.
package secp256k1

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Curve parameters (SEC 2: y² = x³ + 7 over F_p).
var (
	// P is the field prime 2^256 - 2^32 - 977.
	P, _ = new(big.Int).SetString("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f", 16)
	// N is the order of the base point G.
	N, _ = new(big.Int).SetString("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141", 16)
	// B is the constant term of the curve equation.
	B = big.NewInt(7)
	// Gx, Gy are the base point coordinates.
	Gx, _ = new(big.Int).SetString("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798", 16)
	Gy, _ = new(big.Int).SetString("483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8", 16)

	halfN = new(big.Int).Rsh(N, 1)
)

// Point is an affine point on the curve with math/big coordinates:
// the general-purpose form for callers that compute with points. The
// zero value is the point at infinity.
type Point struct {
	X, Y *big.Int
}

// IsInfinity reports whether p is the point at infinity.
func (p *Point) IsInfinity() bool { return p.X == nil || p.Y == nil }

// Equal reports whether two points are the same affine point.
func (p *Point) Equal(q *Point) bool {
	if p.IsInfinity() || q.IsInfinity() {
		return p.IsInfinity() == q.IsInfinity()
	}
	return p.X.Cmp(q.X) == 0 && p.Y.Cmp(q.Y) == 0
}

// OnCurve reports whether p satisfies y² = x³ + 7 (mod P).
func (p *Point) OnCurve() bool {
	if p.IsInfinity() {
		return false
	}
	if p.X.Sign() < 0 || p.X.Cmp(P) >= 0 || p.Y.Sign() < 0 || p.Y.Cmp(P) >= 0 {
		return false
	}
	a := p.affine()
	return a.onCurve()
}

// affine converts a finite p to limb form, reducing coordinates mod P.
func (p *Point) affine() (a affinePoint) {
	a.x.setBig(p.X)
	a.y.setBig(p.Y)
	return a
}

// onCurve reports whether a satisfies y² = x³ + 7.
func (a *affinePoint) onCurve() bool {
	var y2, x3 fieldElement
	y2.sqr(&a.y)
	x3.sqr(&a.x)
	x3.mul(&x3, &a.x)
	x3.add(&x3, &feB)
	return y2.equal(&x3)
}

func pointToJac(p *Point) jacPoint {
	if p.IsInfinity() {
		return jacPoint{}
	}
	var j jacPoint
	a := p.affine()
	j.setAffine(&a)
	return j
}

func jacToPoint(j *jacPoint) *Point {
	a, ok := j.toAffine()
	if !ok {
		return &Point{}
	}
	return &Point{X: a.x.toBig(), Y: a.y.toBig()}
}

// ScalarMult returns k*p for a point p and scalar k.
func ScalarMult(p *Point, k *big.Int) *Point {
	if p.IsInfinity() {
		return &Point{}
	}
	var s scalar
	s.setBig(new(big.Int).Mod(k, N))
	a := p.affine()
	j := scalarMultJac(&a, &s)
	return jacToPoint(&j)
}

// ScalarBaseMult returns k*G.
func ScalarBaseMult(k *big.Int) *Point {
	var s scalar
	s.setBig(new(big.Int).Mod(k, N))
	j := scalarBaseMultJac(&s)
	return jacToPoint(&j)
}

// Add returns p + q in affine coordinates.
func Add(p, q *Point) *Point {
	pj, qj := pointToJac(p), pointToJac(q)
	pj.add(&pj, &qj)
	return jacToPoint(&pj)
}

// Neg returns -p.
func Neg(p *Point) *Point {
	if p.IsInfinity() {
		return &Point{}
	}
	return &Point{new(big.Int).Set(p.X), new(big.Int).Sub(P, p.Y)}
}

// PrivateKey is a secp256k1 private key with its public point.
type PrivateKey struct {
	d   scalar // in [1, N-1]
	Pub PublicKey
}

// PublicKey is a finite point on the curve, held in limb form. Values
// come from GenerateKey, ParsePublicKey or RecoverPubkey (or their
// in-place forms, which fill caller storage), all of which
// establish the curve equation; the zero value is not a valid key and
// every operation that takes one rejects it.
type PublicKey struct {
	p affinePoint
}

// GenerateKey creates a private key using entropy from rand: 32 bytes
// per attempt, retried until they encode a scalar in [1, N-1].
func GenerateKey(rand io.Reader) (*PrivateKey, error) {
	k := new(PrivateKey)
	if err := GenerateKeyInto(k, rand, new([32]byte)); err != nil {
		return nil, err
	}
	return k, nil
}

// GenerateKeyInto is GenerateKey writing the key into k. The entropy
// is read into buf, storage the caller owns: a buffer handed to an
// io.Reader escapes, so one of this function's own would cost an
// allocation per call. k is unspecified on error.
func GenerateKeyInto(k *PrivateKey, rand io.Reader, buf *[32]byte) error {
	for {
		if _, err := io.ReadFull(rand, buf[:]); err != nil {
			return fmt.Errorf("secp256k1: reading entropy: %w", err)
		}
		if k.setBytes(buf) {
			return nil
		}
	}
}

// PrivateKeyFromScalar builds a key pair from a scalar in [1, N-1].
func PrivateKeyFromScalar(d *big.Int) (*PrivateKey, error) {
	if d.Sign() <= 0 || d.Cmp(N) >= 0 {
		return nil, errors.New("secp256k1: scalar out of range")
	}
	var b [32]byte
	d.FillBytes(b[:])
	return PrivateKeyFromBytes(b[:])
}

// PrivateKeyFromBytes parses a 32-byte big-endian scalar.
func PrivateKeyFromBytes(b []byte) (*PrivateKey, error) {
	if len(b) != 32 {
		return nil, fmt.Errorf("secp256k1: private key must be 32 bytes, got %d", len(b))
	}
	k := new(PrivateKey)
	if !k.setBytes((*[32]byte)(b)) {
		return nil, errors.New("secp256k1: scalar out of range")
	}
	return k, nil
}

// setBytes loads k from a big-endian scalar and derives its public
// point, reporting false when b is not in [1, N-1].
func (k *PrivateKey) setBytes(b *[32]byte) bool {
	if !k.d.setBytes(b) || k.d.isZero() {
		return false
	}
	j := scalarBaseMultJac(&k.d)
	k.Pub.p, _ = j.toAffine() // d ∈ [1, N-1], so d·G is finite
	return true
}

// D returns the private scalar as a big.Int.
func (k *PrivateKey) D() *big.Int { return k.d.toBig() }

// Bytes returns the 32-byte big-endian scalar.
func (k *PrivateKey) Bytes() []byte {
	out := make([]byte, 32)
	k.d.putBytes(out)
	return out
}

// Point returns the key as a math/big affine point.
func (p *PublicKey) Point() *Point {
	return &Point{X: p.p.x.toBig(), Y: p.p.y.toBig()}
}

// Equal reports whether p and q are the same point.
func (p *PublicKey) Equal(q *PublicKey) bool { return p.p == q.p }

// OnCurve reports whether the key satisfies y² = x³ + 7 (mod P).
func (p *PublicKey) OnCurve() bool { return p.p.onCurve() }

// SerializeUncompressed returns the 65-byte 0x04-prefixed encoding.
func (p *PublicKey) SerializeUncompressed() []byte {
	out := make([]byte, 65)
	out[0] = 0x04
	p.PutRaw((*[64]byte)(out[1:]))
	return out
}

// SerializeRaw returns the 64-byte X||Y encoding used for Ethereum
// node IDs (no prefix byte).
func (p *PublicKey) SerializeRaw() []byte {
	out := make([]byte, 64)
	p.PutRaw((*[64]byte)(out))
	return out
}

// PutRaw writes the 64-byte X||Y encoding into out.
func (p *PublicKey) PutRaw(out *[64]byte) {
	p.p.x.putBytes(out[:32])
	p.p.y.putBytes(out[32:])
}

// ParsePublicKey accepts 65-byte (0x04-prefixed) or 64-byte raw
// encodings and validates that the coordinates are canonical (< P)
// and the point is on the curve.
func ParsePublicKey(b []byte) (*PublicKey, error) {
	pub := new(PublicKey)
	if err := ParsePublicKeyInto(pub, b); err != nil {
		return nil, err
	}
	return pub, nil
}

// ParsePublicKeyInto is ParsePublicKey writing the key into pub,
// which is unspecified on error.
func ParsePublicKeyInto(pub *PublicKey, b []byte) error {
	switch len(b) {
	case 65:
		if b[0] != 0x04 {
			return fmt.Errorf("secp256k1: unsupported public key prefix 0x%02x", b[0])
		}
		b = b[1:]
	case 64:
	default:
		return fmt.Errorf("secp256k1: invalid public key length %d", len(b))
	}
	xok := pub.p.x.setBytes((*[32]byte)(b[:32]))
	yok := pub.p.y.setBytes((*[32]byte)(b[32:]))
	if !xok || !yok || !pub.p.onCurve() {
		return errors.New("secp256k1: point not on curve")
	}
	return nil
}

// SharedSecret computes the ECDH shared secret: the X coordinate of
// d*Q, as a 32-byte value. This is the agreement used by RLPx/ECIES.
func SharedSecret(priv *PrivateKey, pub *PublicKey) ([]byte, error) {
	out := make([]byte, 32)
	if err := SharedSecretInto((*[32]byte)(out), priv, pub); err != nil {
		return nil, err
	}
	return out, nil
}

// SharedSecretInto is SharedSecret writing into caller storage.
func SharedSecretInto(out *[32]byte, priv *PrivateKey, pub *PublicKey) error {
	if pub == nil || !pub.p.onCurve() {
		return errors.New("secp256k1: invalid public key")
	}
	j := scalarMultJac(&pub.p, &priv.d)
	a, ok := j.toAffine()
	if !ok {
		return errors.New("secp256k1: ECDH produced point at infinity")
	}
	a.x.putBytes(out[:])
	return nil
}

// hmacSHA256 is HMAC-SHA256 over the concatenation of parts with a
// 32-byte key, computed in fixed stack buffers: RFC 6979 feeds it at
// most 97 bytes, so the padded-key block and the message fit in one
// array and sha256.Sum256 does the rest without a hash object.
func hmacSHA256(key *[32]byte, parts ...[]byte) [32]byte {
	var inner [64 + 97]byte
	var outer [64 + 32]byte
	for i := 0; i < 64; i++ {
		inner[i], outer[i] = 0x36, 0x5c
	}
	for i, b := range key {
		inner[i] ^= b
		outer[i] ^= b
	}
	n := 64
	for _, p := range parts {
		n += copy(inner[n:], p)
	}
	sum := sha256.Sum256(inner[:n])
	copy(outer[64:], sum[:])
	return sha256.Sum256(outer[:])
}

// rfc6979Nonce is the RFC 6979 deterministic nonce generator over
// HMAC-SHA256: the attempt-th candidate in [1, N-1] for signing hash
// with priv.
func rfc6979Nonce(priv *PrivateKey, z *scalar, attempt int) scalar {
	var x, h [32]byte
	priv.d.putBytes(x[:])
	z.putBytes(h[:]) // bits2octets: the hash reduced mod N

	var v, k [32]byte
	for i := range v {
		v[i] = 0x01
	}
	k = hmacSHA256(&k, v[:], []byte{0x00}, x[:], h[:])
	v = hmacSHA256(&k, v[:])
	k = hmacSHA256(&k, v[:], []byte{0x01}, x[:], h[:])
	v = hmacSHA256(&k, v[:])

	for i := 0; ; i++ {
		v = hmacSHA256(&k, v[:])
		var t scalar
		if t.setBytes(&v) && !t.isZero() && i >= attempt {
			return t
		}
		k = hmacSHA256(&k, v[:], []byte{0x00})
		v = hmacSHA256(&k, v[:])
	}
}
