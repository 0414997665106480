package secp256k1

import (
	"encoding/binary"
	"math/big"
	"math/bits"
)

// fieldElement is an integer modulo the field prime
// p = 2^256 − 2^32 − 977, stored as four little-endian uint64 limbs.
// Every operation leaves its result fully reduced (< p), so equality
// is plain limb comparison. Like the rest of this package the
// arithmetic is variable-time by design: this is a measurement stack,
// not a wallet (see DESIGN.md).
type fieldElement struct {
	n [4]uint64
}

// pC is 2^256 − p = 2^32 + 977. Because p is this close to 2^256,
// reduction is "folding": v mod p = low 256 bits + pC * high bits.
const pC = 0x1000003D1

var (
	feZero = fieldElement{}
	feOne  = fieldElement{n: [4]uint64{1, 0, 0, 0}}
	feB    = fieldElement{n: [4]uint64{7, 0, 0, 0}} // curve constant b

	feP = fieldElement{n: [4]uint64{
		0xFFFFFFFEFFFFFC2F, 0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF,
	}}
)

// limbsFromBig converts a non-negative big.Int < 2^256 to limbs.
func limbsFromBig(x *big.Int) [4]uint64 {
	var b [32]byte
	x.FillBytes(b[:])
	var l [4]uint64
	for i := 0; i < 4; i++ {
		l[i] = binary.BigEndian.Uint64(b[(3-i)*8:])
	}
	return l
}

func limbsToBig(l *[4]uint64) *big.Int {
	var b [32]byte
	for i := 0; i < 4; i++ {
		binary.BigEndian.PutUint64(b[(3-i)*8:], l[i])
	}
	return new(big.Int).SetBytes(b[:])
}

// setBytes loads a 32-byte big-endian value, reducing mod p, and
// reports whether the value was already canonical (< p). A single
// conditional subtraction suffices because 2^256 < 2p.
func (r *fieldElement) setBytes(b *[32]byte) (canonical bool) {
	for i := 0; i < 4; i++ {
		r.n[i] = binary.BigEndian.Uint64(b[(3-i)*8:])
	}
	return !r.condSubP()
}

// putBytes writes the canonical 32-byte big-endian form into b.
func (r *fieldElement) putBytes(b []byte) {
	for i := 0; i < 4; i++ {
		binary.BigEndian.PutUint64(b[(3-i)*8:], r.n[i])
	}
}

// setBig loads a big.Int in [0, 2^256), reducing mod p.
func (r *fieldElement) setBig(x *big.Int) {
	r.n = limbsFromBig(x)
	r.condSubP()
}

func (r *fieldElement) toBig() *big.Int { return limbsToBig(&r.n) }

func (r *fieldElement) isZero() bool {
	return r.n[0]|r.n[1]|r.n[2]|r.n[3] == 0
}

func (r *fieldElement) isOdd() bool { return r.n[0]&1 == 1 }

func (r *fieldElement) equal(a *fieldElement) bool { return r.n == a.n }

// condSubP subtracts p once if r ≥ p and reports whether it did.
// Subtracting p is adding pC and discarding the 2^256 carry, and
// r ≥ p exactly when that carry appears.
func (r *fieldElement) condSubP() bool {
	n0, c := bits.Add64(r.n[0], pC, 0)
	n1, c := bits.Add64(r.n[1], 0, c)
	n2, c := bits.Add64(r.n[2], 0, c)
	n3, c := bits.Add64(r.n[3], 0, c)
	if c != 0 {
		r.n = [4]uint64{n0, n1, n2, n3}
	}
	return c != 0
}

// add sets r = a + b mod p. Result aliasing is allowed.
func (r *fieldElement) add(a, b *fieldElement) {
	var c uint64
	n0, c := bits.Add64(a.n[0], b.n[0], 0)
	n1, c := bits.Add64(a.n[1], b.n[1], c)
	n2, c := bits.Add64(a.n[2], b.n[2], c)
	n3, c := bits.Add64(a.n[3], b.n[3], c)
	// Fold the 2^256 overflow bit: 2^256 ≡ pC. With canonical inputs
	// the folded sum cannot overflow again (a+b−2^256+pC < 2^256).
	n0, c2 := bits.Add64(n0, c*pC, 0)
	n1, c2 = bits.Add64(n1, 0, c2)
	n2, c2 = bits.Add64(n2, 0, c2)
	n3, _ = bits.Add64(n3, 0, c2)
	r.n = [4]uint64{n0, n1, n2, n3}
	r.condSubP()
}

// sub sets r = a − b mod p. Result aliasing is allowed. A borrow
// means the register value is a−b+2^256; subtracting pC then yields
// a−b+p, which is in range and cannot underflow. The correction is
// masked rather than branched on: the borrow is a coin flip on random
// operands and a mispredicted branch costs more than four subtractions.
func (r *fieldElement) sub(a, b *fieldElement) {
	n0, br := bits.Sub64(a.n[0], b.n[0], 0)
	n1, br := bits.Sub64(a.n[1], b.n[1], br)
	n2, br := bits.Sub64(a.n[2], b.n[2], br)
	n3, br := bits.Sub64(a.n[3], b.n[3], br)
	n0, br = bits.Sub64(n0, pC&-br, 0)
	n1, br = bits.Sub64(n1, 0, br)
	n2, br = bits.Sub64(n2, 0, br)
	n3, _ = bits.Sub64(n3, 0, br)
	r.n = [4]uint64{n0, n1, n2, n3}
}

// neg sets r = −a mod p.
func (r *fieldElement) neg(a *fieldElement) {
	if a.isZero() {
		*r = feZero
		return
	}
	var br uint64
	r.n[0], br = bits.Sub64(feP.n[0], a.n[0], 0)
	r.n[1], br = bits.Sub64(feP.n[1], a.n[1], br)
	r.n[2], br = bits.Sub64(feP.n[2], a.n[2], br)
	r.n[3], _ = bits.Sub64(feP.n[3], a.n[3], br)
}

// mulSmall sets r = a * k mod p for a small constant k (used for the
// 2·, 3·, 4·, 8· steps of the point formulas).
func (r *fieldElement) mulSmall(a *fieldElement, k uint64) {
	var carry uint64
	var n [4]uint64
	for i := 0; i < 4; i++ {
		h, lo := bits.Mul64(a.n[i], k)
		v, c := bits.Add64(lo, carry, 0)
		n[i] = v
		carry = h + c
	}
	// carry < k; fold carry*pC.
	h, lo := bits.Mul64(carry, pC)
	var c uint64
	n[0], c = bits.Add64(n[0], lo, 0)
	n[1], c = bits.Add64(n[1], h, c)
	n[2], c = bits.Add64(n[2], 0, c)
	n[3], c = bits.Add64(n[3], 0, c)
	n[0] += c * pC // a second wrap leaves the low limb tiny
	r.n = n
	r.condSubP()
}

// mul sets r = a · b mod p. Result aliasing is allowed. The 4×4
// schoolbook product is written out row by row so each row is two
// carry chains (low halves, then high halves) the compiler turns into
// ADC runs; no row's top limb can overflow because a 64×256-bit
// product plus a 256-bit accumulator fits in 320 bits.
func (r *fieldElement) mul(a, b *fieldElement) {
	a0, a1, a2, a3 := a.n[0], a.n[1], a.n[2], a.n[3]
	b0, b1, b2, b3 := b.n[0], b.n[1], b.n[2], b.n[3]
	var c uint64

	h0, t0 := bits.Mul64(a0, b0)
	h1, l1 := bits.Mul64(a0, b1)
	h2, l2 := bits.Mul64(a0, b2)
	h3, l3 := bits.Mul64(a0, b3)
	t1, c := bits.Add64(h0, l1, 0)
	t2, c := bits.Add64(h1, l2, c)
	t3, c := bits.Add64(h2, l3, c)
	t4 := h3 + c

	h0, l0 := bits.Mul64(a1, b0)
	h1, l1 = bits.Mul64(a1, b1)
	h2, l2 = bits.Mul64(a1, b2)
	h3, l3 = bits.Mul64(a1, b3)
	t1, c = bits.Add64(t1, l0, 0)
	t2, c = bits.Add64(t2, l1, c)
	t3, c = bits.Add64(t3, l2, c)
	t4, c = bits.Add64(t4, l3, c)
	t5 := c
	t2, c = bits.Add64(t2, h0, 0)
	t3, c = bits.Add64(t3, h1, c)
	t4, c = bits.Add64(t4, h2, c)
	t5 += h3 + c

	h0, l0 = bits.Mul64(a2, b0)
	h1, l1 = bits.Mul64(a2, b1)
	h2, l2 = bits.Mul64(a2, b2)
	h3, l3 = bits.Mul64(a2, b3)
	t2, c = bits.Add64(t2, l0, 0)
	t3, c = bits.Add64(t3, l1, c)
	t4, c = bits.Add64(t4, l2, c)
	t5, c = bits.Add64(t5, l3, c)
	t6 := c
	t3, c = bits.Add64(t3, h0, 0)
	t4, c = bits.Add64(t4, h1, c)
	t5, c = bits.Add64(t5, h2, c)
	t6 += h3 + c

	h0, l0 = bits.Mul64(a3, b0)
	h1, l1 = bits.Mul64(a3, b1)
	h2, l2 = bits.Mul64(a3, b2)
	h3, l3 = bits.Mul64(a3, b3)
	t3, c = bits.Add64(t3, l0, 0)
	t4, c = bits.Add64(t4, l1, c)
	t5, c = bits.Add64(t5, l2, c)
	t6, c = bits.Add64(t6, l3, c)
	t7 := c
	t4, c = bits.Add64(t4, h0, 0)
	t5, c = bits.Add64(t5, h1, c)
	t6, c = bits.Add64(t6, h2, c)
	t7 += h3 + c

	r.reduce512(t0, t1, t2, t3, t4, t5, t6, t7)
}

// sqr sets r = a² mod p: the six cross products once, doubled, plus
// the four squares — ten multiplications instead of sixteen.
func (r *fieldElement) sqr(a *fieldElement) {
	a0, a1, a2, a3 := a.n[0], a.n[1], a.n[2], a.n[3]
	var c uint64

	// Cross products a_i·a_j, i < j, accumulated at limb i+j.
	h01, t1 := bits.Mul64(a0, a1)
	h02, l02 := bits.Mul64(a0, a2)
	h03, l03 := bits.Mul64(a0, a3)
	t2, c := bits.Add64(h01, l02, 0)
	t3, c := bits.Add64(h02, l03, c)
	t4 := h03 + c

	h12, l12 := bits.Mul64(a1, a2)
	h13, l13 := bits.Mul64(a1, a3)
	t3, c = bits.Add64(t3, l12, 0)
	t4, c = bits.Add64(t4, l13, c)
	t5 := c
	t4, c = bits.Add64(t4, h12, 0)
	t5 += h13 + c

	h23, l23 := bits.Mul64(a2, a3)
	t5, c = bits.Add64(t5, l23, 0)
	t6 := h23 + c

	// Double (the cross sum is below 2^447, so the shift loses nothing).
	t7 := t6 >> 63
	t6 = t6<<1 | t5>>63
	t5 = t5<<1 | t4>>63
	t4 = t4<<1 | t3>>63
	t3 = t3<<1 | t2>>63
	t2 = t2<<1 | t1>>63
	t1 <<= 1

	// Add the squares a_i² at limbs 2i, 2i+1.
	h00, t0 := bits.Mul64(a0, a0)
	h11, l11 := bits.Mul64(a1, a1)
	h22, l22 := bits.Mul64(a2, a2)
	h33, l33 := bits.Mul64(a3, a3)
	t1, c = bits.Add64(t1, h00, 0)
	t2, c = bits.Add64(t2, l11, c)
	t3, c = bits.Add64(t3, h11, c)
	t4, c = bits.Add64(t4, l22, c)
	t5, c = bits.Add64(t5, h22, c)
	t6, c = bits.Add64(t6, l33, c)
	t7 += h33 + c

	r.reduce512(t0, t1, t2, t3, t4, t5, t6, t7)
}

// reduce512 reduces the 512-bit value t7…t0 into r by folding the
// high half down with 2^256 ≡ pC, three times at most.
func (r *fieldElement) reduce512(t0, t1, t2, t3, t4, t5, t6, t7 uint64) {
	// First fold: s = t[0..3] + pC·t[4..7], a 290-bit value whose top
	// limb s4 stays below 2^34 because pC is 33 bits.
	h4, l4 := bits.Mul64(t4, pC)
	h5, l5 := bits.Mul64(t5, pC)
	h6, l6 := bits.Mul64(t6, pC)
	h7, l7 := bits.Mul64(t7, pC)
	s0, c := bits.Add64(t0, l4, 0)
	s1, c := bits.Add64(t1, l5, c)
	s2, c := bits.Add64(t2, l6, c)
	s3, c := bits.Add64(t3, l7, c)
	s4 := c
	s1, c = bits.Add64(s1, h4, 0)
	s2, c = bits.Add64(s2, h5, c)
	s3, c = bits.Add64(s3, h6, c)
	s4 += h7 + c

	// Second fold: s4·pC < 2^67.
	hi, lo := bits.Mul64(s4, pC)
	s0, c = bits.Add64(s0, lo, 0)
	s1, c = bits.Add64(s1, hi, c)
	s2, c = bits.Add64(s2, 0, c)
	s3, c = bits.Add64(s3, 0, c)

	// Third fold: if that carried out, what is left is below 2^67 and
	// adding pC once more cannot carry out again.
	s0, c = bits.Add64(s0, c*pC, 0)
	s1, c = bits.Add64(s1, 0, c)
	s2, c = bits.Add64(s2, 0, c)
	s3 += c

	r.n = [4]uint64{s0, s1, s2, s3}
	r.condSubP()
}

// sqrN squares r in place n times.
func (r *fieldElement) sqrN(n int) {
	for i := 0; i < n; i++ {
		r.sqr(r)
	}
}

// pow223 sets r = a^(2^223 − 1) and x2 = a^3, x22 = a^(2^22 − 1):
// the prefix of the square-root addition chain, since (p + 1)/4
// starts with 223 one bits, then a zero, then 22 one bits; runs of
// ones are built by doubling their length
// (2^2n − 1 = (2^n − 1)·2^n + (2^n − 1)).
func (r *fieldElement) pow223(a, x2, x22 *fieldElement) {
	var x3, x6, x9, x11, x44, x88, x176, x220 fieldElement
	x2.sqr(a)
	x2.mul(x2, a)
	x3.sqr(x2)
	x3.mul(&x3, a)
	x6 = x3
	x6.sqrN(3)
	x6.mul(&x6, &x3)
	x9 = x6
	x9.sqrN(3)
	x9.mul(&x9, &x3)
	x11 = x9
	x11.sqrN(2)
	x11.mul(&x11, x2)
	*x22 = x11
	x22.sqrN(11)
	x22.mul(x22, &x11)
	x44 = *x22
	x44.sqrN(22)
	x44.mul(&x44, x22)
	x88 = x44
	x88.sqrN(44)
	x88.mul(&x88, &x44)
	x176 = x88
	x176.sqrN(88)
	x176.mul(&x176, &x88)
	x220 = x176
	x220.sqrN(44)
	x220.mul(&x220, &x44)
	*r = x220
	r.sqrN(3)
	r.mul(r, &x3)
}

// inv sets r = a⁻¹ mod p by the safegcd inversion (modinv.go);
// inv(0) = 0.
func (r *fieldElement) inv(a *fieldElement) {
	r.n = a.n
	modInv(&r.n, &modP)
}

// sqrt sets r to a square root of a and reports whether a is a
// quadratic residue. p ≡ 3 (mod 4), so the candidate is a^((p+1)/4),
// whose low 31 bits after the pow223 prefix are 0, 22 ones, 0000, 11,
// 00.
func (r *fieldElement) sqrt(a *fieldElement) bool {
	var t, x2, x22, check fieldElement
	t.pow223(a, &x2, &x22)
	t.sqrN(23)
	t.mul(&t, &x22)
	t.sqrN(6)
	t.mul(&t, &x2)
	t.sqrN(2)
	check.sqr(&t)
	if !check.equal(a) {
		return false
	}
	*r = t
	return true
}
