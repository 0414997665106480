package secp256k1

import (
	"errors"
	"fmt"
)

// SignatureLength is the byte length of a recoverable signature:
// 32-byte R, 32-byte S, 1-byte recovery id.
const SignatureLength = 65

// Sign produces a recoverable ECDSA signature of a 32-byte message
// hash. The result is r || s || v where v ∈ {0, 1} identifies which
// of the two candidate public keys is the signer's — the format RLPx
// discovery packets carry. S is canonicalized to the lower half of
// the group order so signatures are unique.
func Sign(priv *PrivateKey, hash []byte) ([]byte, error) {
	sig := new([SignatureLength]byte)
	if err := SignInto(sig, priv, hash); err != nil {
		return nil, err
	}
	return sig[:], nil
}

// SignInto is Sign writing the signature into sig.
func SignInto(sig *[SignatureLength]byte, priv *PrivateKey, hash []byte) error {
	if len(hash) != 32 {
		return fmt.Errorf("secp256k1: hash must be 32 bytes, got %d", len(hash))
	}
	var z scalar
	z.setBytes((*[32]byte)(hash)) // N is 256 bits: no truncation, just mod N
	for attempt := 0; attempt < 100; attempt++ {
		k := rfc6979Nonce(priv, &z, attempt)
		rj := scalarBaseMultJac(&k)
		rp, _ := rj.toAffine() // k ∈ [1, N-1], so k·G is finite
		var r scalar
		xBelowN := r.setField(&rp.x) // R.x < p < 2N, so this is R.x mod N
		if r.isZero() {
			continue
		}
		// s = k⁻¹ (z + r·d) mod N
		var kinv, s scalar
		kinv.inverse(&k)
		s.mul(&r, &priv.d)
		s.add(&s, &z)
		s.mul(&s, &kinv)
		if s.isZero() {
			continue
		}
		// Recovery id: bit 0 is the parity of R.y, bit 1 set if
		// R.x >= N (astronomically rare).
		var v byte
		if rp.y.isOdd() {
			v = 1
		}
		if !xBelowN {
			v |= 2
		}
		// Enforce low-S; flipping s negates the parity bit.
		if s.isHigh() {
			s.neg(&s)
			v ^= 1
		}
		r.putBytes(sig[:32])
		s.putBytes(sig[32:64])
		sig[64] = v
		return nil
	}
	return errors.New("secp256k1: could not produce signature")
}

// parseRS loads the r and s halves of a signature, requiring both in
// [1, N-1].
func parseRS(sig []byte) (r, s scalar, ok bool) {
	rok := r.setBytes((*[32]byte)(sig[:32]))
	sok := s.setBytes((*[32]byte)(sig[32:64]))
	return r, s, rok && sok && !r.isZero() && !s.isZero()
}

// Verify checks a 64- or 65-byte signature (recovery id ignored)
// against a 32-byte hash and public key: R = u1·G + u2·Q must have
// R.x ≡ r (mod N).
func Verify(pub *PublicKey, hash, sig []byte) bool {
	if len(hash) != 32 || (len(sig) != 64 && len(sig) != 65) {
		return false
	}
	r, s, ok := parseRS(sig)
	if !ok || !pub.p.onCurve() {
		return false
	}
	var z, w, u1, u2 scalar
	z.setBytes((*[32]byte)(hash))
	w.inverse(&s)
	u1.mul(&z, &w)
	u2.mul(&r, &w)
	pj := doubleScalarMultJac(&u1, &pub.p, &u2)
	p, finite := pj.toAffine()
	if !finite {
		return false
	}
	var x scalar
	x.setField(&p.x)
	return x.equal(&r)
}

// RecoverPubkey returns the public key that produced the given
// recoverable signature over hash. sig is r || s || v. The recovery
// equation is Q = r⁻¹(s·R − z·G) = (−z·r⁻¹)·G + (s·r⁻¹)·R.
func RecoverPubkey(hash, sig []byte) (*PublicKey, error) {
	pub := new(PublicKey)
	if err := RecoverPubkeyInto(pub, hash, sig); err != nil {
		return nil, err
	}
	return pub, nil
}

// RecoverPubkeyInto is RecoverPubkey writing the key into pub, which
// is unspecified on error.
func RecoverPubkeyInto(pub *PublicKey, hash, sig []byte) error {
	if len(hash) != 32 {
		return fmt.Errorf("secp256k1: hash must be 32 bytes, got %d", len(hash))
	}
	if len(sig) != SignatureLength {
		return fmt.Errorf("secp256k1: signature must be %d bytes, got %d", SignatureLength, len(sig))
	}
	v := sig[64]
	if v > 3 {
		return fmt.Errorf("secp256k1: invalid recovery id %d", v)
	}
	r, s, ok := parseRS(sig)
	if !ok {
		return errors.New("secp256k1: signature values out of range")
	}

	// R.x = r (+ N if bit 1 of v set), which must stay below p;
	// recover R.y from the curve equation using the parity in bit 0.
	var rp affinePoint
	rp.x.n = r.n
	if v&2 != 0 {
		var carry uint64
		rp.x.n, carry = add256(r.n, scN.n)
		if carry != 0 || rp.x.condSubP() {
			return errors.New("secp256k1: recovery x out of field range")
		}
	}
	if !rp.liftX(v&1 == 1) {
		return errors.New("secp256k1: x is not on the curve")
	}

	var z, rinv, u1, u2 scalar
	z.setBytes((*[32]byte)(hash))
	rinv.inverse(&r)
	u1.mul(&z, &rinv)
	u1.neg(&u1)
	u2.mul(&s, &rinv)
	qj := doubleScalarMultJac(&u1, &rp, &u2)
	var finite bool
	if pub.p, finite = qj.toAffine(); !finite {
		return errors.New("secp256k1: recovered point at infinity")
	}
	if !pub.p.onCurve() {
		return errors.New("secp256k1: recovered point not on curve")
	}
	return nil
}

// liftX sets a.y to the square root of a.x³ + 7 with the requested
// parity, reporting false when a.x is not the abscissa of a curve
// point.
func (a *affinePoint) liftX(odd bool) bool {
	var y2 fieldElement
	y2.sqr(&a.x)
	y2.mul(&y2, &a.x)
	y2.add(&y2, &feB)
	if !a.y.sqrt(&y2) {
		return false
	}
	if a.y.isOdd() != odd {
		a.y.neg(&a.y)
	}
	return true
}
