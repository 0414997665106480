package secp256k1

import (
	"encoding/binary"
	"math/big"
	"math/bits"
)

// scalar is an integer modulo the group order N, stored as four
// little-endian uint64 limbs in plain (non-Montgomery) form and kept
// fully reduced. Multiplication round-trips through Montgomery form
// internally; N is not close enough to 2^256 for the field's cheap
// folding reduction.
type scalar struct {
	n [4]uint64
}

var (
	scN = scalar{n: [4]uint64{
		0xBFD25E8CD0364141, 0xBAAEDCE6AF48A03B, 0xFFFFFFFFFFFFFFFE, 0xFFFFFFFFFFFFFFFF,
	}}

	// Derived from the big.Int N in initScalarConstants so the limb
	// forms cannot drift from the authoritative parameter: R² mod N
	// (for entering Montgomery form, R = 2^256), −N⁻¹ mod 2^64, and
	// (N−1)/2, the low-S threshold.
	scRR     scalar
	scNPrime uint64
	scHalfN  scalar
)

func initScalarConstants() {
	r := new(big.Int).Lsh(big.NewInt(1), 256)
	scRR.n = limbsFromBig(new(big.Int).Mod(new(big.Int).Mul(r, r), N))
	scHalfN.n = limbsFromBig(halfN)

	// −N⁻¹ mod 2^64 by Newton iteration: each step doubles the number
	// of correct low bits of the inverse.
	inv := scN.n[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - scN.n[0]*inv
	}
	scNPrime = -inv
}

// setBytes loads a 32-byte big-endian value, reducing mod N, and
// reports whether the value was already canonical (< N). One
// conditional subtraction suffices because 2^256 < 2N.
func (r *scalar) setBytes(b *[32]byte) (canonical bool) {
	for i := 0; i < 4; i++ {
		r.n[i] = binary.BigEndian.Uint64(b[(3-i)*8:])
	}
	return !r.condSubN()
}

// setField loads a field element's value, reducing mod N, and reports
// whether it was already below N: the step from a point's x
// coordinate to a signature's r.
func (r *scalar) setField(x *fieldElement) (canonical bool) {
	r.n = x.n
	return !r.condSubN()
}

// setBig loads a big.Int in [0, 2^256), reducing mod N.
func (r *scalar) setBig(x *big.Int) {
	r.n = limbsFromBig(x)
	r.condSubN()
}

func (r *scalar) toBig() *big.Int { return limbsToBig(&r.n) }

// putBytes writes the canonical 32-byte big-endian form into b.
func (r *scalar) putBytes(b []byte) {
	for i := 0; i < 4; i++ {
		binary.BigEndian.PutUint64(b[(3-i)*8:], r.n[i])
	}
}

func (r *scalar) isZero() bool { return r.n[0]|r.n[1]|r.n[2]|r.n[3] == 0 }

func (r *scalar) equal(a *scalar) bool { return r.n == a.n }

// isHigh reports s > (N−1)/2, the non-canonical half for low-S.
func (r *scalar) isHigh() bool { return r.cmp(&scHalfN) > 0 }

func (r *scalar) cmp(a *scalar) int {
	for i := 3; i >= 0; i-- {
		if r.n[i] > a.n[i] {
			return 1
		}
		if r.n[i] < a.n[i] {
			return -1
		}
	}
	return 0
}

func (r *scalar) gteN() bool { return r.cmp(&scN) >= 0 }

// condSubN subtracts N once if r ≥ N and reports whether it did.
func (r *scalar) condSubN() bool {
	if !r.gteN() {
		return false
	}
	r.n, _ = sub256(r.n, scN.n)
	return true
}

// sub256 returns a − b mod 2^256 and the borrow out.
func sub256(a, b [4]uint64) (d [4]uint64, borrow uint64) {
	d[0], borrow = bits.Sub64(a[0], b[0], 0)
	d[1], borrow = bits.Sub64(a[1], b[1], borrow)
	d[2], borrow = bits.Sub64(a[2], b[2], borrow)
	d[3], borrow = bits.Sub64(a[3], b[3], borrow)
	return d, borrow
}

// add256 returns a + b mod 2^256 and the carry out.
func add256(a, b [4]uint64) (s [4]uint64, carry uint64) {
	s[0], carry = bits.Add64(a[0], b[0], 0)
	s[1], carry = bits.Add64(a[1], b[1], carry)
	s[2], carry = bits.Add64(a[2], b[2], carry)
	s[3], carry = bits.Add64(a[3], b[3], carry)
	return s, carry
}

// add sets r = a + b mod N. Result aliasing is allowed.
func (r *scalar) add(a, b *scalar) {
	var c uint64
	r.n, c = add256(a.n, b.n)
	if c != 0 || r.gteN() {
		// With canonical inputs a+b < 2N, so one subtraction is
		// enough; a 2^256 carry cancels against the borrow.
		r.n, _ = sub256(r.n, scN.n)
	}
}

// sub sets r = a − b mod N. Result aliasing is allowed.
func (r *scalar) sub(a, b *scalar) {
	var br uint64
	r.n, br = sub256(a.n, b.n)
	if br != 0 {
		r.n, _ = add256(r.n, scN.n)
	}
}

// neg sets r = −a mod N.
func (r *scalar) neg(a *scalar) {
	if a.isZero() {
		*r = scalar{}
		return
	}
	r.n, _ = sub256(scN.n, a.n)
}

// montMul sets r = a · b · R⁻¹ mod N (CIOS Montgomery multiplication,
// R = 2^256). Result aliasing is allowed.
func montMul(r, a, b *scalar) {
	var t [4]uint64
	var tExtra, tHi uint64 // limbs 4 and 5 of the accumulator
	for i := 0; i < 4; i++ {
		// t += a[i] * b
		var carry uint64
		for j := 0; j < 4; j++ {
			hi, lo := bits.Mul64(a.n[i], b.n[j])
			v, c1 := bits.Add64(t[j], lo, 0)
			v, c2 := bits.Add64(v, carry, 0)
			t[j] = v
			carry = hi + c1 + c2
		}
		var c uint64
		tExtra, c = bits.Add64(tExtra, carry, 0)
		tHi += c

		// t = (t + m·N) / 2^64 with m chosen to zero the low limb.
		m := t[0] * scNPrime
		hi, lo := bits.Mul64(m, scN.n[0])
		_, c1 := bits.Add64(t[0], lo, 0)
		carry = hi + c1
		for j := 1; j < 4; j++ {
			hi, lo = bits.Mul64(m, scN.n[j])
			v, c2 := bits.Add64(t[j], lo, 0)
			v, c3 := bits.Add64(v, carry, 0)
			t[j-1] = v
			carry = hi + c2 + c3
		}
		var c4 uint64
		t[3], c4 = bits.Add64(tExtra, carry, 0)
		tExtra = tHi + c4
		tHi = 0
	}
	r.n = t
	if tExtra != 0 || r.gteN() {
		// The CIOS invariant keeps the result below 2N, so a single
		// subtraction restores canonical form (tExtra absorbs the
		// borrow when set).
		r.n, _ = sub256(r.n, scN.n)
	}
}

// mul sets r = a · b mod N for plain-form scalars.
func (r *scalar) mul(a, b *scalar) {
	var aR scalar
	montMul(&aR, a, &scRR) // aR = a·R
	montMul(r, &aR, b)     // aR·b·R⁻¹ = a·b
}

// inverse sets r = a⁻¹ mod N by the safegcd inversion (modinv.go);
// inverse(0) = 0.
func (r *scalar) inverse(a *scalar) {
	r.n = a.n
	modInv(&r.n, &modN)
}

// GLV endomorphism. secp256k1 has φ(x, y) = (β·x, y) with φ(P) = λ·P,
// where β and λ are primitive cube roots of unity mod p and mod N. A
// scalar k is split as k ≡ k1 + k2·λ (mod N) with |k1|, |k2| < 2^128
// by rounding k against a short basis (a1, b1), (a2, b2) of the
// lattice {(x, y) : x + y·λ ≡ 0 mod N} (Gallant–Lambert–Vanstone 2001;
// constants as in libsecp256k1). Only λ, β and the basis are written
// down; the rounding multipliers g1 = ⌊2^384·b2/N⌉, g2 = ⌊2^384·(−b1)/N⌉
// are derived in initGLV, which also checks every identity the split
// relies on and panics at start-up if one fails.
var (
	glvLambda, _ = new(big.Int).SetString("5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72", 16)
	glvBeta, _   = new(big.Int).SetString("7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee", 16)
	glvA1, _     = new(big.Int).SetString("3086d221a7d46bcde86c90e49284eb15", 16)
	glvNegB1, _  = new(big.Int).SetString("e4437ed6010e88286f547fa90abfe4c3", 16) // b1 is negative
	glvA2, _     = new(big.Int).SetString("114ca50f7a8e2f3f657c1108d9d44cfd8", 16)
	// b2 = a1.

	scLambda, scNegB1, scNegB2, scG1, scG2 scalar
	feBeta                                 fieldElement
)

func initGLV() {
	one := big.NewInt(1)
	isCubeRoot := func(x, m *big.Int) bool { // x² + x + 1 ≡ 0 and x ≠ 1
		v := new(big.Int).Mul(x, x)
		v.Add(v, x).Add(v, one)
		return v.Mod(v, m).Sign() == 0 && x.Cmp(one) != 0
	}
	inLattice := func(x, y *big.Int) bool {
		v := new(big.Int).Mul(y, glvLambda)
		return v.Add(v, x).Mod(v, N).Sign() == 0
	}
	b1 := new(big.Int).Neg(glvNegB1)
	b2 := glvA1
	// det = a1·b2 − a2·b1 must be N for (a1,b1),(a2,b2) to be a basis
	// of the whole lattice, not a sublattice.
	det := new(big.Int).Mul(glvA1, b2)
	det.Sub(det, new(big.Int).Mul(glvA2, b1))
	if !isCubeRoot(glvLambda, N) || !isCubeRoot(glvBeta, P) ||
		!inLattice(glvA1, b1) || !inLattice(glvA2, b2) || det.Cmp(N) != 0 {
		panic("secp256k1: inconsistent GLV constants")
	}
	round384 := func(num *big.Int) [4]uint64 { // ⌊2^384·num/N⌉
		v := new(big.Int).Lsh(num, 384)
		v.Add(v, halfN)
		return limbsFromBig(v.Div(v, N))
	}
	scLambda.n = limbsFromBig(glvLambda)
	scNegB1.n = limbsFromBig(glvNegB1)
	scNegB2.n = limbsFromBig(new(big.Int).Sub(N, b2))
	scG1.n = round384(b2)
	scG2.n = round384(glvNegB1)
	feBeta.n = limbsFromBig(glvBeta)

	// λ and β must be the *matching* pair of roots: λ·G = (β·Gx, Gy).
	// (Runs after buildBaseTables.)
	lg := scalarBaseMultJac(&scLambda)
	got, _ := lg.toAffine()
	var want affinePoint
	want.x.setBig(Gx)
	want.x.mul(&want.x, &feBeta)
	want.y.setBig(Gy)
	if got != want {
		panic("secp256k1: GLV λ and β are not a matching pair")
	}
}

// splitLambda sets k1, k2 so that k ≡ k1 + k2·λ (mod N), each either
// below 2^128 or above N − 2^128 (a small negative value mod N).
func (k *scalar) splitLambda(k1, k2 *scalar) {
	var c1, c2 scalar
	c1.mulShift384(k, &scG1) // ≈ k·b2/N
	c2.mulShift384(k, &scG2) // ≈ −k·b1/N
	c1.mul(&c1, &scNegB1)
	c2.mul(&c2, &scNegB2)
	k2.add(&c1, &c2) // k2 = −c1·b1 − c2·b2
	k1.mul(k2, &scLambda)
	k1.sub(k, k1) // k1 = k − k2·λ
}

// mulShift384 sets r = ⌊a·b / 2^384⌉ (rounded to nearest), a value
// below 2^128.
func (r *scalar) mulShift384(a, b *scalar) {
	var t [8]uint64
	for i := 0; i < 4; i++ {
		var carry uint64
		for j := 0; j < 4; j++ {
			hi, lo := bits.Mul64(a.n[i], b.n[j])
			v, c1 := bits.Add64(t[i+j], lo, 0)
			v, c2 := bits.Add64(v, carry, 0)
			t[i+j] = v
			carry = hi + c1 + c2
		}
		t[i+4] = carry
	}
	var c uint64
	r.n[0], c = bits.Add64(t[6], t[5]>>63, 0) // round on bit 383
	r.n[1] = t[7] + c
	r.n[2], r.n[3] = 0, 0
}

// wnafWidth is the window width used for variable-base
// multiplication: odd digits in ±{1..15}, eight precomputed points.
const wnafWidth = 5

// wnafLen bounds the digits of a half-width scalar: 128 bits plus one
// for the carry a final negative digit pushes up.
const wnafLen = 129

// wnaf writes the width-5 non-adjacent form of s (< 2^128), least
// significant digit first, into out and returns the number of digits
// up to and including the most significant non-zero one.
func (s *scalar) wnaf(out *[wnafLen]int8) int {
	// A third limb absorbs the temporary overflow when a negative
	// digit is added back.
	k0, k1, k2 := s.n[0], s.n[1], uint64(0)
	n := 0
	for i := 0; k0|k1|k2 != 0; i++ {
		var d int64
		if k0&1 == 1 {
			d = int64(k0 & (1<<wnafWidth - 1))
			if d > 1<<(wnafWidth-1) {
				d -= 1 << wnafWidth
			}
			// k -= d, as three-limb two's complement.
			var br uint64
			k0, br = bits.Sub64(k0, uint64(d), 0)
			k1, br = bits.Sub64(k1, uint64(d>>63), br)
			k2, _ = bits.Sub64(k2, uint64(d>>63), br)
			n = i + 1
		}
		out[i] = int8(d)
		k0 = k0>>1 | k1<<63
		k1 = k1>>1 | k2<<63
		k2 >>= 1
	}
	return n
}
