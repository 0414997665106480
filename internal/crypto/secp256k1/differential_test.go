package secp256k1

// Differential tests: every operation of the fixed-limb fast path is
// checked against independent arithmetic — math/big for field and
// scalar ops, the retained oracleBackend for point ops, and a
// math/big + crypto/hmac ECDSA built on that oracle (oracleSign,
// oracleRecover, oracleSharedSecret below) for the key operations.
// The Fuzz* functions are `go test -fuzz`-compatible; under plain
// `go test` they run their seed corpus, which deliberately includes
// the boundary values 0, 1, p−1, p, N−1, N and all-ones.

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"math/big"
	"testing"
)

// fuzzSeeds are 32-byte big-endian boundary values every fuzz target
// seeds with (pairwise).
func fuzzSeeds() [][32]byte {
	mk := func(x *big.Int) (b [32]byte) {
		x.FillBytes(b[:])
		return
	}
	fill := func(head, rest byte) (b [32]byte) {
		for i := range b {
			b[i] = rest
		}
		b[0] = head
		return
	}
	one := big.NewInt(1)
	pow2 := func(k uint) *big.Int { return new(big.Int).Lsh(one, k) }
	return [][32]byte{
		mk(big.NewInt(0)),
		mk(one),
		mk(big.NewInt(2)),
		mk(new(big.Int).Sub(P, one)),
		mk(P),
		mk(new(big.Int).Add(P, one)),
		mk(new(big.Int).Sub(N, one)),
		mk(N),
		mk(halfN),
		fill(0xFF, 0xFF),
		// Appended after the indices other tests name. For the
		// inversion: powers of two and long runs of trailing zeros
		// (the divstep batching), small values and values just below
		// the moduli (f and g shrink to one limb at different paces).
		mk(big.NewInt(3)),
		mk(pow2(62)),
		mk(pow2(64)),
		mk(pow2(255)),
		mk(new(big.Int).Mul(big.NewInt(3), pow2(200))),
		mk(new(big.Int).Sub(pow2(62), one)),
		mk(new(big.Int).Sub(P, big.NewInt(2))),
		mk(new(big.Int).Sub(N, big.NewInt(2))),
		// For the base table's signed digits (in [−127, 128]): (N+1)/2,
		// the first scalar it negates, whose top digit is +128 as
		// (N−1)/2's is; +128 in the lowest window alone and in every
		// window but the top; all-0x80 bytes, which are negated; a
		// lowest digit of −127; a carry through 31 windows.
		mk(new(big.Int).Add(halfN, one)),
		mk(big.NewInt(0x80)),
		fill(0x7F, 0x80),
		fill(0x80, 0x80),
		fill(0x7F, 0x81),
		mk(new(big.Int).Sub(pow2(248), one)),
	}
}

func to32(b []byte) (out [32]byte) {
	copy(out[32-min32(len(b)):], b[:min32(len(b))])
	return
}

func min32(n int) int {
	if n > 32 {
		return 32
	}
	return n
}

// checkFieldPair cross-checks every field op on one input pair.
func checkFieldPair(t *testing.T, ab, bb [32]byte) {
	t.Helper()
	var fa, fb fieldElement
	fa.setBytes(&ab)
	fb.setBytes(&bb)
	ba := new(big.Int).Mod(new(big.Int).SetBytes(ab[:]), P)
	bbi := new(big.Int).Mod(new(big.Int).SetBytes(bb[:]), P)

	if fa.toBig().Cmp(ba) != 0 {
		t.Fatalf("setBytes: %x != %x", fa.toBig(), ba)
	}

	var r fieldElement
	r.add(&fa, &fb)
	want := new(big.Int).Mod(new(big.Int).Add(ba, bbi), P)
	if r.toBig().Cmp(want) != 0 {
		t.Errorf("add(%x, %x) = %x, want %x", ba, bbi, r.toBig(), want)
	}

	r.sub(&fa, &fb)
	want = new(big.Int).Mod(new(big.Int).Sub(ba, bbi), P)
	if r.toBig().Cmp(want) != 0 {
		t.Errorf("sub(%x, %x) = %x, want %x", ba, bbi, r.toBig(), want)
	}

	r.mul(&fa, &fb)
	want = new(big.Int).Mod(new(big.Int).Mul(ba, bbi), P)
	if r.toBig().Cmp(want) != 0 {
		t.Errorf("mul(%x, %x) = %x, want %x", ba, bbi, r.toBig(), want)
	}

	r.sqr(&fa)
	want = new(big.Int).Mod(new(big.Int).Mul(ba, ba), P)
	if r.toBig().Cmp(want) != 0 {
		t.Errorf("sqr(%x) = %x, want %x", ba, r.toBig(), want)
	}

	r.neg(&fa)
	want = new(big.Int).Mod(new(big.Int).Neg(ba), P)
	if r.toBig().Cmp(want) != 0 {
		t.Errorf("neg(%x) = %x, want %x", ba, r.toBig(), want)
	}

	for _, k := range []uint64{2, 3, 4, 8} {
		r.mulSmall(&fa, k)
		want = new(big.Int).Mod(new(big.Int).Mul(ba, new(big.Int).SetUint64(k)), P)
		if r.toBig().Cmp(want) != 0 {
			t.Errorf("mulSmall(%x, %d) = %x, want %x", ba, k, r.toBig(), want)
		}
	}

	r.inv(&fa)
	want = new(big.Int).ModInverse(ba, P)
	if want == nil {
		want = new(big.Int) // inv(0) = 0
	}
	if r.toBig().Cmp(want) != 0 {
		t.Errorf("inv(%x) = %x, want %x", ba, r.toBig(), want)
	}

	// sqrt must accept exactly the quadratic residues.
	var any fieldElement
	if got, want := any.sqrt(&fa), new(big.Int).ModSqrt(ba, P) != nil; got != want {
		t.Errorf("sqrt(%x) accepted = %v, want %v", ba, got, want)
	}

	// sqrt(a²) must return a root whose square is a².
	var sq, root fieldElement
	sq.sqr(&fa)
	if !root.sqrt(&sq) {
		t.Errorf("sqrt rejected the square of %x", ba)
	} else {
		var back fieldElement
		back.sqr(&root)
		if !back.equal(&sq) {
			t.Errorf("sqrt(%x)² = %x", sq.toBig(), back.toBig())
		}
	}
}

// checkScalarPair cross-checks every scalar op on one input pair.
func checkScalarPair(t *testing.T, ab, bb [32]byte) {
	t.Helper()
	var sa, sb scalar
	sa.setBytes(&ab)
	sb.setBytes(&bb)
	ba := new(big.Int).Mod(new(big.Int).SetBytes(ab[:]), N)
	bbi := new(big.Int).Mod(new(big.Int).SetBytes(bb[:]), N)

	if sa.toBig().Cmp(ba) != 0 {
		t.Fatalf("scalar setBytes: %x != %x", sa.toBig(), ba)
	}

	var r scalar
	r.add(&sa, &sb)
	want := new(big.Int).Mod(new(big.Int).Add(ba, bbi), N)
	if r.toBig().Cmp(want) != 0 {
		t.Errorf("scalar add(%x, %x) = %x, want %x", ba, bbi, r.toBig(), want)
	}

	r.mul(&sa, &sb)
	want = new(big.Int).Mod(new(big.Int).Mul(ba, bbi), N)
	if r.toBig().Cmp(want) != 0 {
		t.Errorf("scalar mul(%x, %x) = %x, want %x", ba, bbi, r.toBig(), want)
	}

	r.neg(&sa)
	want = new(big.Int).Mod(new(big.Int).Neg(ba), N)
	if r.toBig().Cmp(want) != 0 {
		t.Errorf("scalar neg(%x) = %x, want %x", ba, r.toBig(), want)
	}

	r.inverse(&sa)
	want = new(big.Int).ModInverse(ba, N)
	if want == nil {
		want = new(big.Int) // inverse(0) = 0
	}
	if r.toBig().Cmp(want) != 0 {
		t.Errorf("scalar inverse(%x) = %x, want %x", ba, r.toBig(), want)
	}

	if got, want := sa.isHigh(), ba.Cmp(halfN) > 0; got != want {
		t.Errorf("isHigh(%x) = %v, want %v", ba, got, want)
	}

	r.sub(&sa, &sb)
	want = new(big.Int).Mod(new(big.Int).Sub(ba, bbi), N)
	if r.toBig().Cmp(want) != 0 {
		t.Errorf("scalar sub(%x, %x) = %x, want %x", ba, bbi, r.toBig(), want)
	}

	checkSplit(t, ba)
}

// signedMod reads a scalar as the representative of least magnitude.
func signedMod(s *scalar) *big.Int {
	v := s.toBig()
	if v.Cmp(halfN) > 0 {
		v.Sub(v, N)
	}
	return v
}

// checkSplit checks the decomposition the ladder relies on:
// k ≡ k1 + k2·λ (mod N) with |k1|, |k2| < 2^128.
func checkSplit(t *testing.T, k *big.Int) {
	t.Helper()
	var ks, k1, k2 scalar
	ks.setBig(k)
	ks.splitLambda(&k1, &k2)
	v1, v2 := signedMod(&k1), signedMod(&k2)
	bound := new(big.Int).Lsh(big.NewInt(1), 128)
	if v1.CmpAbs(bound) >= 0 || v2.CmpAbs(bound) >= 0 {
		t.Fatalf("split of %x not short: k1=%x k2=%x", k, v1, v2)
	}
	back := new(big.Int).Mul(v2, glvLambda)
	back.Add(back, v1).Mod(back, N)
	if back.Cmp(k) != 0 {
		t.Fatalf("split of %x recombines to %x", k, back)
	}
}

// checkPointPair cross-checks fast point arithmetic against the
// math/big oracle for one scalar pair.
func checkPointPair(t *testing.T, kb, mb [32]byte) {
	t.Helper()
	oracle := oracleBackend{}
	k := new(big.Int).Mod(new(big.Int).SetBytes(kb[:]), N)
	m := new(big.Int).Mod(new(big.Int).SetBytes(mb[:]), N)

	wantKG := oracle.scalarBaseMult(k)
	gotKG := ScalarBaseMult(k)
	if !gotKG.Equal(wantKG) {
		t.Fatalf("scalarBaseMult(%x) mismatch", k)
	}
	wantMG := oracle.scalarBaseMult(m)

	if !wantKG.IsInfinity() {
		got := ScalarMult(wantKG, m)
		want := oracle.scalarMult(wantKG, m)
		if !got.Equal(want) {
			t.Errorf("scalarMult(%x·G, %x) mismatch", k, m)
		}
	}

	got := Add(wantKG, wantMG)
	want := oracle.add(wantKG, wantMG)
	if !got.Equal(want) {
		t.Errorf("add(%x·G, %x·G) mismatch", k, m)
	}

	if !wantMG.IsInfinity() {
		got = doubleScalarBaseMult(k, wantMG, m)
		want = oracle.doubleScalarBaseMult(k, wantMG, m)
		if !got.Equal(want) {
			t.Errorf("doubleScalarBaseMult(%x, %x·G, %x) mismatch", k, m, m)
		}
	}
}

// doubleScalarBaseMult is k1·G + k2·p on the fast path, in the
// oracle's math/big types.
func doubleScalarBaseMult(k1 *big.Int, p *Point, k2 *big.Int) *Point {
	var s1, s2 scalar
	s1.setBig(k1)
	s2.setBig(k2)
	a := p.affine()
	j := doubleScalarMultJac(&s1, &a, &s2)
	return jacToPoint(&j)
}

func TestFieldDifferentialEdgeAndRandom(t *testing.T) {
	seeds := fuzzSeeds()
	for _, a := range seeds {
		for _, b := range seeds {
			checkFieldPair(t, a, b)
		}
	}
	rng := testRand(1001)
	for i := 0; i < 200; i++ {
		var a, b [32]byte
		rng.Read(a[:])
		rng.Read(b[:])
		checkFieldPair(t, a, b)
	}
}

func TestScalarDifferentialEdgeAndRandom(t *testing.T) {
	seeds := fuzzSeeds()
	for _, a := range seeds {
		for _, b := range seeds {
			checkScalarPair(t, a, b)
		}
	}
	rng := testRand(1002)
	for i := 0; i < 200; i++ {
		var a, b [32]byte
		rng.Read(a[:])
		rng.Read(b[:])
		checkScalarPair(t, a, b)
	}
}

func TestPointDifferentialEdgeAndRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle point arithmetic is slow")
	}
	seeds := fuzzSeeds()
	// The oracle is ~1.5 ms per multiplication, so pair edges with a
	// fixed partner instead of the full cross product.
	partner := to32([]byte{0x42, 0x42, 0x42})
	for _, a := range seeds {
		checkPointPair(t, a, partner)
	}
	rng := testRand(1003)
	for i := 0; i < 8; i++ {
		var a, b [32]byte
		rng.Read(a[:])
		rng.Read(b[:])
		checkPointPair(t, a, b)
	}
}

// TestReduceThirdFold drives reduce512 through its rarest path: a
// product whose second pC fold carries out of 2^256 again. Random
// operands reach it with probability ~2^-190, so the pair is built:
// with a' = ⌊2^257/pC⌋, a = 2a' and b = 2^255, the product is
// a'·2^256, the first fold leaves 2^257 − δ (δ = 2^257 mod pC), and
// adding the second fold's pC overflows.
func TestReduceThirdFold(t *testing.T) {
	c := big.NewInt(pC)
	two256 := new(big.Int).Lsh(big.NewInt(1), 256)
	aPrime := new(big.Int).Div(new(big.Int).Lsh(big.NewInt(1), 257), c)
	a := new(big.Int).Lsh(aPrime, 1)
	b := new(big.Int).Lsh(big.NewInt(1), 255)

	// Replay the folds in math/big to prove the operands take the path.
	prod := new(big.Int).Mul(a, b)
	hi, lo := new(big.Int).Rsh(prod, 256), new(big.Int).Mod(prod, two256)
	s := new(big.Int).Add(lo, new(big.Int).Mul(hi, c))
	s4, sLow := new(big.Int).Rsh(s, 256), new(big.Int).Mod(s, two256)
	if second := new(big.Int).Add(sLow, new(big.Int).Mul(s4, c)); second.Cmp(two256) < 0 {
		t.Fatalf("operands do not overflow the second fold (s4=%v)", s4)
	}

	var fa, fb, r fieldElement
	fa.setBig(a)
	fb.setBig(b)
	r.mul(&fa, &fb)
	if want := prod.Mod(prod, P); r.toBig().Cmp(want) != 0 {
		t.Errorf("mul = %x, want %x", r.toBig(), want)
	}
	// sqr shares reduce512; (p−1)² = 1 fills every product limb.
	fa.setBig(new(big.Int).Sub(P, big.NewInt(1)))
	r.sqr(&fa)
	if !r.equal(&feOne) {
		t.Errorf("(p−1)² = %x, want 1", r.toBig())
	}
}

// TestModInfo holds the safegcd moduli to the curve parameters: the
// signed 62-bit limbs sum to P and N, and inv62 inverts each mod 2^62.
func TestModInfo(t *testing.T) {
	for _, c := range []struct {
		mi   *modInfo
		want *big.Int
	}{{&modP, P}, {&modN, N}} {
		v := new(big.Int)
		for i := len(c.mi.m) - 1; i >= 0; i-- {
			v.Lsh(v, 62).Add(v, big.NewInt(c.mi.m[i]))
		}
		if v.Cmp(c.want) != 0 {
			t.Errorf("modulus limbs sum to %x, want %x", v, c.want)
		}
		if got := uint64(c.mi.m[0]) * c.mi.inv62 & (1<<62 - 1); got != 1 {
			t.Errorf("inv62 of %x: m·inv62 ≡ %#x (mod 2^62), want 1", c.want, got)
		}
	}
}

// TestSetBytesCanonical pins the range report ParsePublicKey and the
// signature parsers rely on.
func TestSetBytesCanonical(t *testing.T) {
	for _, b := range fuzzSeeds() {
		v := new(big.Int).SetBytes(b[:])
		var f fieldElement
		if got, want := f.setBytes(&b), v.Cmp(P) < 0; got != want {
			t.Errorf("field setBytes(%x) canonical = %v, want %v", v, got, want)
		}
		var s scalar
		if got, want := s.setBytes(&b), v.Cmp(N) < 0; got != want {
			t.Errorf("scalar setBytes(%x) canonical = %v, want %v", v, got, want)
		}
	}
}

// TestWNAFReconstruction rebuilds half-width scalars from their wNAF
// digits.
func TestWNAFReconstruction(t *testing.T) {
	rng := testRand(1004)
	check := func(k *big.Int) {
		var s scalar
		s.setBig(k)
		var naf [wnafLen]int8
		n := s.wnaf(&naf)
		sum := new(big.Int)
		for i := n - 1; i >= 0; i-- {
			sum.Lsh(sum, 1)
			sum.Add(sum, big.NewInt(int64(naf[i])))
		}
		if sum.Cmp(k) != 0 {
			t.Fatalf("wNAF of %x reconstructs to %x", k, sum)
		}
		if n > 0 && naf[n-1] == 0 {
			t.Fatalf("wNAF of %x has a leading zero digit", k)
		}
		for i := 0; i < n; i++ {
			if d := naf[i]; d != 0 && (d%2 == 0 || d > 15 || d < -15) {
				t.Fatalf("wNAF digit %d of %x out of range", d, k)
			}
			// Width 5: a non-zero digit is followed by four zeros.
			for j := i + 1; naf[i] != 0 && j < i+wnafWidth && j < n; j++ {
				if naf[j] != 0 {
					t.Fatalf("wNAF of %x: digits %d and %d both non-zero", k, i, j)
				}
			}
		}
	}
	max128 := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 128), big.NewInt(1))
	check(big.NewInt(0))
	check(big.NewInt(1))
	check(big.NewInt(17)) // first value whose low digit goes negative
	check(max128)         // carries into digit 128
	for i := 0; i < 200; i++ {
		var b [16]byte
		rng.Read(b[:])
		check(new(big.Int).SetBytes(b[:]))
	}
}

// TestGLVSplit runs checkSplit on the boundary scalars and a random
// sample (FuzzScalarArithmetic reaches it too).
func TestGLVSplit(t *testing.T) {
	one := big.NewInt(1)
	for _, k := range []*big.Int{
		big.NewInt(0), one, big.NewInt(2),
		new(big.Int).Sub(N, one),
		glvLambda, new(big.Int).Sub(N, glvLambda),
		new(big.Int).Add(glvLambda, one), new(big.Int).Sub(glvLambda, one),
		new(big.Int).Set(halfN), new(big.Int).Add(halfN, one),
		new(big.Int).Lsh(one, 128), new(big.Int).Sub(new(big.Int).Lsh(one, 128), one),
		new(big.Int).Lsh(one, 255),
	} {
		checkSplit(t, k)
	}
	rng := testRand(1005)
	for i := 0; i < 2000; i++ {
		var b [32]byte
		rng.Read(b[:])
		checkSplit(t, new(big.Int).Mod(new(big.Int).SetBytes(b[:]), N))
	}
}

// TestEndomorphism checks φ(x, y) = (β·x, y) is multiplication by λ
// on points other than G (init checks G itself).
func TestEndomorphism(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		p := testKey(t, 1100+seed).Pub.Point()
		want := oracleBackend{}.scalarMult(p, glvLambda)
		bx := new(big.Int).Mul(p.X, glvBeta)
		if got := (&Point{bx.Mod(bx, P), p.Y}); !got.Equal(want) {
			t.Fatalf("φ(P) != λ·P for seed %d", seed)
		}
	}
}

// TestScalarMultBoundaryScalars runs the GLV ladder against the oracle
// on the scalars where the split, the wNAF carry or a sign flip sits
// on an edge.
func TestScalarMultBoundaryScalars(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle point arithmetic is slow")
	}
	one := big.NewInt(1)
	p := testKey(t, 1200).Pub.Point()
	for _, k := range []*big.Int{
		big.NewInt(0), one, big.NewInt(2), big.NewInt(15), big.NewInt(16), big.NewInt(17),
		new(big.Int).Sub(N, one), new(big.Int).Sub(N, big.NewInt(2)),
		glvLambda, new(big.Int).Sub(N, glvLambda), new(big.Int).Add(glvLambda, one),
		new(big.Int).Set(halfN), new(big.Int).Add(halfN, one),
		new(big.Int).Lsh(one, 127), new(big.Int).Lsh(one, 128),
		new(big.Int).Sub(new(big.Int).Lsh(one, 128), one),
	} {
		got := ScalarMult(p, k)
		want := oracleBackend{}.scalarMult(p, k)
		if !got.Equal(want) {
			t.Errorf("ScalarMult(P, %x) mismatch", k)
		}
	}
}

// TestOddMultiples checks the effective-affine table: entry i, read
// back through the returned scale, is (2i+1)·P.
func TestOddMultiples(t *testing.T) {
	p := testKey(t, 1300).Pub
	var tbl [8]affinePoint
	z := oddMultiples(&tbl, &p.p)
	for i := range tbl {
		j := jacPoint{x: tbl[i].x, y: tbl[i].y, z: z}
		got := jacToPoint(&j)
		want := oracleBackend{}.scalarMult(p.Point(), big.NewInt(int64(2*i+1)))
		if !got.Equal(want) {
			t.Errorf("table entry %d is not %d·P", i, 2*i+1)
		}
	}
}

// TestAddMixedBranches covers the special cases of mixed addition the
// ladder can meet: the accumulator at infinity, equal to the table
// point (doubling), and equal to its negation (infinity) — each with
// a non-trivial Z so the cross-multiplied comparison is exercised.
func TestAddMixedBranches(t *testing.T) {
	oracle := oracleBackend{}
	p := testKey(t, 1400).Pub
	q := testKey(t, 1401).Pub

	// a = P in Jacobian form with Z ≠ 1: (q + P) − q via general adds.
	var a, qj, negq jacPoint
	a.setAffine(&p.p)
	qj.setAffine(&q.p)
	negq = qj
	negq.y.neg(&negq.y)
	a.add(&a, &qj)
	a.add(&a, &negq)
	if a.z.equal(&feOne) || !jacToPoint(&a).Equal(p.Point()) {
		t.Fatal("setup: a is not P with a non-trivial Z")
	}

	var r jacPoint
	r.addMixed(&jacPoint{}, &p.p, nil)
	if !jacToPoint(&r).Equal(p.Point()) {
		t.Error("∞ + P != P")
	}
	r.addMixed(&a, &p.p, nil)
	if want := oracle.add(p.Point(), p.Point()); !jacToPoint(&r).Equal(want) {
		t.Error("P + P (doubling branch) mismatch")
	}
	negp := p.p
	negp.y.neg(&negp.y)
	r.addMixed(&a, &negp, nil)
	if !r.isInf() {
		t.Error("P + (−P) != ∞")
	}
	var zr fieldElement
	r.addMixed(&a, &q.p, &zr)
	if want := oracle.add(p.Point(), q.Point()); !jacToPoint(&r).Equal(want) {
		t.Error("P + Q (generic branch) mismatch")
	}
	var wantZ fieldElement
	wantZ.mul(&a.z, &zr)
	if !wantZ.equal(&r.z) {
		t.Error("reported Z ratio is not r.z / a.z")
	}
}

// The oracle ECDSA: the package's original math/big implementation of
// signing, recovery and ECDH over oracleBackend, with RFC 6979 on
// crypto/hmac. It shares no arithmetic with the fast path.

func hashToInt(hash []byte) *big.Int {
	orderBytes := (N.BitLen() + 7) / 8
	if len(hash) > orderBytes {
		hash = hash[:orderBytes]
	}
	z := new(big.Int).SetBytes(hash)
	if excess := len(hash)*8 - N.BitLen(); excess > 0 {
		z.Rsh(z, uint(excess))
	}
	return z
}

func oracleNonce(d *big.Int, hash []byte, attempt int) *big.Int {
	x := d.FillBytes(make([]byte, 32))
	h := new(big.Int).Mod(hashToInt(hash), N).FillBytes(make([]byte, 32))
	v := bytes.Repeat([]byte{0x01}, 32)
	k := make([]byte, 32)
	mac := func(key []byte, parts ...[]byte) []byte {
		m := hmac.New(sha256.New, key)
		for _, p := range parts {
			m.Write(p)
		}
		return m.Sum(nil)
	}
	k = mac(k, v, []byte{0x00}, x, h)
	v = mac(k, v)
	k = mac(k, v, []byte{0x01}, x, h)
	v = mac(k, v)
	for i := 0; ; i++ {
		v = mac(k, v)
		if t := new(big.Int).SetBytes(v); t.Sign() > 0 && t.Cmp(N) < 0 && i >= attempt {
			return t
		}
		k = mac(k, v, []byte{0x00})
		v = mac(k, v)
	}
}

func oracleSign(d *big.Int, hash []byte) []byte {
	z := hashToInt(hash)
	for attempt := 0; ; attempt++ {
		k := oracleNonce(d, hash, attempt)
		rp := oracleBackend{}.scalarBaseMult(k)
		r := new(big.Int).Mod(rp.X, N)
		if r.Sign() == 0 {
			continue
		}
		s := new(big.Int).Mul(r, d)
		s.Add(s, z).Mul(s, new(big.Int).ModInverse(k, N)).Mod(s, N)
		if s.Sign() == 0 {
			continue
		}
		v := byte(rp.Y.Bit(0))
		if rp.X.Cmp(N) >= 0 {
			v |= 2
		}
		if s.Cmp(halfN) > 0 {
			s.Sub(N, s)
			v ^= 1
		}
		sig := make([]byte, SignatureLength)
		r.FillBytes(sig[:32])
		s.FillBytes(sig[32:64])
		sig[64] = v
		return sig
	}
}

func oracleRecover(hash, sig []byte) (*Point, error) {
	r := new(big.Int).SetBytes(sig[:32])
	s := new(big.Int).SetBytes(sig[32:64])
	v := sig[64]
	if v > 3 || r.Sign() <= 0 || s.Sign() <= 0 || r.Cmp(N) >= 0 || s.Cmp(N) >= 0 {
		return nil, errors.New("out of range")
	}
	x := new(big.Int).Set(r)
	if v&2 != 0 {
		x.Add(x, N)
	}
	if x.Cmp(P) >= 0 {
		return nil, errors.New("x out of field range")
	}
	y2 := new(big.Int).Exp(x, big.NewInt(3), P)
	y2.Add(y2, B).Mod(y2, P)
	y := new(big.Int).ModSqrt(y2, P)
	if y == nil {
		return nil, errors.New("x not on curve")
	}
	if y.Bit(0) != uint(v&1) {
		y.Sub(P, y)
	}
	rinv := new(big.Int).ModInverse(r, N)
	u1 := new(big.Int).Mul(hashToInt(hash), rinv)
	u1.Neg(u1).Mod(u1, N)
	u2 := new(big.Int).Mul(s, rinv)
	u2.Mod(u2, N)
	q := oracleBackend{}.doubleScalarBaseMult(u1, &Point{x, y}, u2)
	if q.IsInfinity() {
		return nil, errors.New("infinity")
	}
	return q, nil
}

// TestECDSADifferentialOracle: signatures are byte-identical to the
// oracle's (RFC 6979 makes signing deterministic, so this pins the
// nonce stream too), recovery agrees on valid and on perturbed
// signatures, and ECDH agrees.
func TestECDSADifferentialOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle point arithmetic is slow")
	}
	rng := testRand(1006)
	for i := 0; i < 6; i++ {
		k, peer := testKey(t, 1500+int64(i)), testKey(t, 1600+int64(i))
		var hash [32]byte
		rng.Read(hash[:])
		if i == 0 {
			hash = fuzzSeeds()[9] // all-ones: the hash reduces mod N
		}

		sig, err := Sign(k, hash[:])
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleSign(k.D(), hash[:]); !bytes.Equal(sig, want) {
			t.Fatalf("sig %x != oracle sig %x", sig, want)
		}
		if !Verify(&k.Pub, hash[:], sig) {
			t.Error("fast Verify rejected the signature")
		}

		// Valid, wrong recovery id, and a perturbed r: the fast path and
		// the oracle must agree on the point or both refuse.
		flipped := append([]byte(nil), sig...)
		flipped[64] ^= 1
		perturbed := append([]byte(nil), sig...)
		perturbed[31] ^= 0x40
		highX := append([]byte(nil), sig...)
		highX[64] |= 2
		for _, s := range [][]byte{sig, flipped, perturbed, highX} {
			got, gotErr := RecoverPubkey(hash[:], s)
			want, wantErr := oracleRecover(hash[:], s)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("recover(%x): fast err %v, oracle err %v", s, gotErr, wantErr)
			}
			if gotErr == nil && !got.Point().Equal(want) {
				t.Fatalf("recover(%x) mismatch", s)
			}
		}
		if rec, _ := RecoverPubkey(hash[:], sig); rec == nil || !rec.Equal(&k.Pub) {
			t.Error("did not recover the signer")
		}

		secret, err := SharedSecret(k, &peer.Pub)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleBackend{}.scalarMult(peer.Pub.Point(), k.D())
		if !bytes.Equal(secret, want.X.FillBytes(make([]byte, 32))) {
			t.Errorf("ECDH %x != oracle %x", secret, want.X)
		}
	}
}

// TestKeyOpAllocs pins the heap cost of the key operations. The
// in-place forms write into caller storage and allocate nothing; the
// pointer-returning wrappers over them allocate what they return: the
// signature, the recovered or parsed key, the secret, and the new key
// plus the entropy buffer the io.Reader call forces out.
func TestKeyOpAllocs(t *testing.T) {
	k, peer := testKey(t, 1700), testKey(t, 1701)
	hash := sha256.Sum256([]byte("allocs"))
	sig, err := Sign(k, hash[:])
	if err != nil {
		t.Fatal(err)
	}
	raw := peer.Pub.SerializeRaw()
	rng := testRand(1702)
	var (
		sigInto  [SignatureLength]byte
		pubInto  PublicKey
		keyInto  PrivateKey
		entropy  [32]byte
		secret32 [32]byte
	)
	for _, c := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"Sign", 1, func() { Sign(k, hash[:]) }},
		{"SignInto", 0, func() { SignInto(&sigInto, k, hash[:]) }},
		{"RecoverPubkey", 1, func() { RecoverPubkey(hash[:], sig) }},
		{"RecoverPubkeyInto", 0, func() { RecoverPubkeyInto(&pubInto, hash[:], sig) }},
		{"Verify", 0, func() { Verify(&k.Pub, hash[:], sig) }},
		{"SharedSecret", 1, func() { SharedSecret(k, &peer.Pub) }},
		{"SharedSecretInto", 0, func() { SharedSecretInto(&secret32, k, &peer.Pub) }},
		{"ParsePublicKey", 1, func() { ParsePublicKey(raw) }},
		{"ParsePublicKeyInto", 0, func() { ParsePublicKeyInto(&pubInto, raw) }},
		{"GenerateKey", 2, func() { GenerateKey(rng) }},
		{"GenerateKeyInto", 0, func() { GenerateKeyInto(&keyInto, rng, &entropy) }},
	} {
		if got := testing.AllocsPerRun(20, c.fn); got > c.max {
			t.Errorf("%s allocates %.0f objects per call, budget %.0f", c.name, got, c.max)
		}
	}
	// The in-place forms compute what the wrappers return.
	if SignInto(&sigInto, k, hash[:]); !bytes.Equal(sigInto[:], sig) {
		t.Error("SignInto and Sign disagree")
	}
	if err := RecoverPubkeyInto(&pubInto, hash[:], sig); err != nil || !pubInto.Equal(&k.Pub) {
		t.Errorf("RecoverPubkeyInto did not recover the signer: %v", err)
	}
	if err := ParsePublicKeyInto(&pubInto, raw); err != nil || !pubInto.Equal(&peer.Pub) {
		t.Errorf("ParsePublicKeyInto did not parse the key: %v", err)
	}
	want, _ := GenerateKey(testRand(1703))
	if err := GenerateKeyInto(&keyInto, testRand(1703), &entropy); err != nil || keyInto.d != want.d || !keyInto.Pub.Equal(&want.Pub) {
		t.Errorf("GenerateKeyInto and GenerateKey disagree from one entropy stream: %v", err)
	}
}

func FuzzFieldArithmetic(f *testing.F) {
	seeds := fuzzSeeds()
	for i := range seeds {
		f.Add(seeds[i][:], seeds[(i+1)%len(seeds)][:])
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		checkFieldPair(t, to32(a), to32(b))
	})
}

func FuzzScalarArithmetic(f *testing.F) {
	seeds := fuzzSeeds()
	for i := range seeds {
		f.Add(seeds[i][:], seeds[(i+1)%len(seeds)][:])
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		checkScalarPair(t, to32(a), to32(b))
	})
}

func FuzzPointArithmetic(f *testing.F) {
	// Few seeds: each case runs four oracle multiplications at
	// ~1.5 ms apiece.
	f.Add([]byte{0x01}, []byte{0x02})
	f.Add(fuzzSeeds()[6][:], fuzzSeeds()[9][:]) // N−1, all-ones
	f.Fuzz(func(t *testing.T, a, b []byte) {
		checkPointPair(t, to32(a), to32(b))
	})
}
