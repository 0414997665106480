// Package keccak implements the legacy Keccak hash family used by
// Ethereum.
//
// Ethereum adopted Keccak before NIST finalized SHA-3, so it uses the
// original Keccak padding (domain byte 0x01) rather than the SHA-3
// padding (0x06). All Ethereum identifiers that the network protocols
// depend on — node distance keys (Keccak-256 of the node ID), block
// and genesis hashes, RLPx MAC states — use this legacy variant.
//
// The sponge is a plain value type over an unrolled Keccak-f[1600]
// with no assembly and no dependencies beyond the standard library.
package keccak

import (
	"encoding/binary"
	"hash"
	"math/bits"
)

// Size256 is the byte length of a Keccak-256 digest.
const Size256 = 32

// Size512 is the byte length of a Keccak-512 digest.
const Size512 = 64

// Sponge rates in bytes: 200 − 2·digest size.
const (
	rate256 = 136
	rate512 = 72
)

// roundConstants for Keccak-f[1600] (24 rounds).
var roundConstants = [24]uint64{
	0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
	0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
	0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
	0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
	0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
	0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
}

// keccakF1600 applies the 24-round Keccak-f permutation in place. The
// 25 lanes live in locals for the whole permutation; each round is
// theta, then rho+pi+chi fused one output row at a time, then iota.
// Local aNN is lane a[NN], i.e. (x, y) = (NN%5, NN/5).
func keccakF1600(a *[25]uint64) {
	a00, a01, a02, a03, a04 := a[0], a[1], a[2], a[3], a[4]
	a05, a06, a07, a08, a09 := a[5], a[6], a[7], a[8], a[9]
	a10, a11, a12, a13, a14 := a[10], a[11], a[12], a[13], a[14]
	a15, a16, a17, a18, a19 := a[15], a[16], a[17], a[18], a[19]
	a20, a21, a22, a23, a24 := a[20], a[21], a[22], a[23], a[24]

	for _, rc := range roundConstants {
		// theta: column parities, then d[x] = c[x-1] ^ rotl(c[x+1], 1).
		c0 := a00 ^ a05 ^ a10 ^ a15 ^ a20
		c1 := a01 ^ a06 ^ a11 ^ a16 ^ a21
		c2 := a02 ^ a07 ^ a12 ^ a17 ^ a22
		c3 := a03 ^ a08 ^ a13 ^ a18 ^ a23
		c4 := a04 ^ a09 ^ a14 ^ a19 ^ a24
		d0 := c4 ^ bits.RotateLeft64(c1, 1)
		d1 := c0 ^ bits.RotateLeft64(c2, 1)
		d2 := c1 ^ bits.RotateLeft64(c3, 1)
		d3 := c2 ^ bits.RotateLeft64(c4, 1)
		d4 := c3 ^ bits.RotateLeft64(c0, 1)

		// rho + pi: output lane (y, 2x+3y) takes input lane (x, y)
		// rotated by its fixed offset. Row y' of the output is built
		// from the five inputs that land in it, then chi is applied.
		b0 := a00 ^ d0
		b1 := bits.RotateLeft64(a06^d1, 44)
		b2 := bits.RotateLeft64(a12^d2, 43)
		b3 := bits.RotateLeft64(a18^d3, 21)
		b4 := bits.RotateLeft64(a24^d4, 14)
		t00 := b0 ^ (^b1 & b2) ^ rc // iota lands on lane 0
		t01 := b1 ^ (^b2 & b3)
		t02 := b2 ^ (^b3 & b4)
		t03 := b3 ^ (^b4 & b0)
		t04 := b4 ^ (^b0 & b1)

		b0 = bits.RotateLeft64(a03^d3, 28)
		b1 = bits.RotateLeft64(a09^d4, 20)
		b2 = bits.RotateLeft64(a10^d0, 3)
		b3 = bits.RotateLeft64(a16^d1, 45)
		b4 = bits.RotateLeft64(a22^d2, 61)
		t05 := b0 ^ (^b1 & b2)
		t06 := b1 ^ (^b2 & b3)
		t07 := b2 ^ (^b3 & b4)
		t08 := b3 ^ (^b4 & b0)
		t09 := b4 ^ (^b0 & b1)

		b0 = bits.RotateLeft64(a01^d1, 1)
		b1 = bits.RotateLeft64(a07^d2, 6)
		b2 = bits.RotateLeft64(a13^d3, 25)
		b3 = bits.RotateLeft64(a19^d4, 8)
		b4 = bits.RotateLeft64(a20^d0, 18)
		t10 := b0 ^ (^b1 & b2)
		t11 := b1 ^ (^b2 & b3)
		t12 := b2 ^ (^b3 & b4)
		t13 := b3 ^ (^b4 & b0)
		t14 := b4 ^ (^b0 & b1)

		b0 = bits.RotateLeft64(a04^d4, 27)
		b1 = bits.RotateLeft64(a05^d0, 36)
		b2 = bits.RotateLeft64(a11^d1, 10)
		b3 = bits.RotateLeft64(a17^d2, 15)
		b4 = bits.RotateLeft64(a23^d3, 56)
		t15 := b0 ^ (^b1 & b2)
		t16 := b1 ^ (^b2 & b3)
		t17 := b2 ^ (^b3 & b4)
		t18 := b3 ^ (^b4 & b0)
		t19 := b4 ^ (^b0 & b1)

		b0 = bits.RotateLeft64(a02^d2, 62)
		b1 = bits.RotateLeft64(a08^d3, 55)
		b2 = bits.RotateLeft64(a14^d4, 39)
		b3 = bits.RotateLeft64(a15^d0, 41)
		b4 = bits.RotateLeft64(a21^d1, 2)
		a20 = b0 ^ (^b1 & b2)
		a21 = b1 ^ (^b2 & b3)
		a22 = b2 ^ (^b3 & b4)
		a23 = b3 ^ (^b4 & b0)
		a24 = b4 ^ (^b0 & b1)

		a00, a01, a02, a03, a04 = t00, t01, t02, t03, t04
		a05, a06, a07, a08, a09 = t05, t06, t07, t08, t09
		a10, a11, a12, a13, a14 = t10, t11, t12, t13, t14
		a15, a16, a17, a18, a19 = t15, t16, t17, t18, t19
	}

	a[0], a[1], a[2], a[3], a[4] = a00, a01, a02, a03, a04
	a[5], a[6], a[7], a[8], a[9] = a05, a06, a07, a08, a09
	a[10], a[11], a[12], a[13], a[14] = a10, a11, a12, a13, a14
	a[15], a[16], a[17], a[18], a[19] = a15, a16, a17, a18, a19
	a[20], a[21], a[22], a[23], a[24] = a20, a21, a22, a23, a24
}

// Sponge is a Keccak sponge with a digest no longer than its rate
// (true of every variant here, so one squeeze always suffices). Input
// is XORed into the state as it arrives — whole lanes straight from
// the caller's slice when aligned — so there is no staging buffer and
// the struct is a 200-byte state plus four small fields. It has no
// interior pointers: a copy is a snapshot, and short-lived sponges
// (Sum256, Sum) stay on the stack. *Sponge implements hash.Hash; use
// New256Sponge where the concrete value should live inside another
// struct. The zero value is not usable.
type Sponge struct {
	a      [25]uint64
	pos    int  // bytes absorbed into the current block, < rate
	rate   int  // sponge rate in bytes (block size)
	size   int  // output size in bytes, ≤ rate
	dsbyte byte // domain separation + first padding byte
}

// New256Sponge returns a legacy Keccak-256 sponge by value.
func New256Sponge() Sponge { return Sponge{rate: rate256, size: Size256, dsbyte: 0x01} }

// New256 returns a legacy Keccak-256 hash (Ethereum's variant, NOT
// NIST SHA3-256).
func New256() hash.Hash { d := New256Sponge(); return &d }

// New512 returns a legacy Keccak-512 hash.
func New512() hash.Hash { return &Sponge{rate: rate512, size: Size512, dsbyte: 0x01} }

// NewSHA3_256 returns a NIST SHA3-256 hash (domain byte 0x06),
// provided for comparison and tests.
func NewSHA3_256() hash.Hash { return &Sponge{rate: rate256, size: Size256, dsbyte: 0x06} }

// Sum256 computes the legacy Keccak-256 digest of data. The sponge
// lives on the stack and squeezes straight into the result, so a call
// performs no heap allocation.
func Sum256(data []byte) [Size256]byte {
	var out [Size256]byte
	d := New256Sponge()
	d.Write(data)
	d.finalize(out[:])
	return out
}

// Sum512 computes the legacy Keccak-512 digest of data without heap
// allocation.
func Sum512(data []byte) [Size512]byte {
	var out [Size512]byte
	d := Sponge{rate: rate512, size: Size512, dsbyte: 0x01}
	d.Write(data)
	d.finalize(out[:])
	return out
}

// Size returns the digest length in bytes.
func (d *Sponge) Size() int { return d.size }

// BlockSize returns the sponge rate in bytes.
func (d *Sponge) BlockSize() int { return d.rate }

// Reset returns the sponge to its initial, empty state.
func (d *Sponge) Reset() {
	d.a = [25]uint64{}
	d.pos = 0
}

// Write absorbs p. It never fails.
func (d *Sponge) Write(p []byte) (int, error) {
	n := len(p)
	// Bytes up to the next lane boundary.
	for d.pos&7 != 0 && len(p) > 0 {
		d.absorbByte(p[0])
		p = p[1:]
	}
	// Whole lanes, read straight from the input.
	for len(p) >= 8 {
		d.a[d.pos>>3] ^= binary.LittleEndian.Uint64(p)
		p = p[8:]
		if d.pos += 8; d.pos == d.rate {
			keccakF1600(&d.a)
			d.pos = 0
		}
	}
	for _, b := range p {
		d.absorbByte(b)
	}
	return n, nil
}

func (d *Sponge) absorbByte(b byte) {
	d.a[d.pos>>3] ^= uint64(b) << (8 * uint(d.pos&7))
	if d.pos++; d.pos == d.rate {
		keccakF1600(&d.a)
		d.pos = 0
	}
}

// Sum appends the digest to b without disturbing the running state:
// the sponge is a plain value, so a stack copy snapshots it. With
// enough capacity in b the call is allocation-free.
func (d *Sponge) Sum(b []byte) []byte {
	total := len(b) + d.size
	var ret []byte
	if cap(b) >= total {
		ret = b[:total]
	} else {
		ret = make([]byte, total)
		copy(ret, b)
	}
	dup := *d
	dup.finalize(ret[len(b):])
	return ret
}

// finalize pads (dsbyte, zeros, final 0x80: multi-rate pad10*1),
// permutes and squeezes size bytes into out. It consumes the sponge.
func (d *Sponge) finalize(out []byte) {
	d.a[d.pos>>3] ^= uint64(d.dsbyte) << (8 * uint(d.pos&7))
	d.a[(d.rate-1)>>3] ^= 0x80 << 56
	keccakF1600(&d.a)
	for i := 0; i < d.size/8; i++ {
		binary.LittleEndian.PutUint64(out[i*8:], d.a[i])
	}
}
