package secp256k1

import (
	"bytes"
	"crypto/sha256"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// deterministic test RNG
func testRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func testKey(t testing.TB, seed int64) *PrivateKey {
	t.Helper()
	k, err := GenerateKey(testRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestBasePointOnCurve(t *testing.T) {
	g := &Point{Gx, Gy}
	if !g.OnCurve() {
		t.Fatal("base point not on curve")
	}
}

func TestGroupOrder(t *testing.T) {
	// N*G must be the point at infinity.
	if p := ScalarBaseMult(N); !p.IsInfinity() {
		t.Fatal("N*G != infinity")
	}
	// (N-1)*G + G = infinity.
	nm1 := new(big.Int).Sub(N, big.NewInt(1))
	p := Add(ScalarBaseMult(nm1), &Point{Gx, Gy})
	if !p.IsInfinity() {
		t.Fatal("(N-1)*G + G != infinity")
	}
}

func TestScalarMultKnownVector(t *testing.T) {
	// 2*G, a standard published value.
	p := ScalarBaseMult(big.NewInt(2))
	wantX, _ := new(big.Int).SetString("c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5", 16)
	wantY, _ := new(big.Int).SetString("1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a", 16)
	if p.X.Cmp(wantX) != 0 || p.Y.Cmp(wantY) != 0 {
		t.Errorf("2G = (%x, %x)", p.X, p.Y)
	}
}

func TestAddCommutes(t *testing.T) {
	a := ScalarBaseMult(big.NewInt(1234567))
	b := ScalarBaseMult(big.NewInt(7654321))
	if !Add(a, b).Equal(Add(b, a)) {
		t.Fatal("addition not commutative")
	}
}

func TestAddMatchesScalar(t *testing.T) {
	// kG + mG == (k+m)G
	k := big.NewInt(998877)
	m := big.NewInt(112233)
	lhs := Add(ScalarBaseMult(k), ScalarBaseMult(m))
	rhs := ScalarBaseMult(new(big.Int).Add(k, m))
	if !lhs.Equal(rhs) {
		t.Fatal("kG + mG != (k+m)G")
	}
}

func TestDoubleViaAdd(t *testing.T) {
	g := &Point{Gx, Gy}
	if !Add(g, g).Equal(ScalarBaseMult(big.NewInt(2))) {
		t.Fatal("G+G != 2G")
	}
}

func TestNegation(t *testing.T) {
	p := ScalarBaseMult(big.NewInt(42))
	if !Add(p, Neg(p)).IsInfinity() {
		t.Fatal("P + (-P) != infinity")
	}
}

func TestQuickScalarHomomorphism(t *testing.T) {
	f := func(a, b uint64) bool {
		ka := new(big.Int).SetUint64(a%1e9 + 1)
		kb := new(big.Int).SetUint64(b%1e9 + 1)
		lhs := Add(ScalarBaseMult(ka), ScalarBaseMult(kb))
		rhs := ScalarBaseMult(new(big.Int).Add(ka, kb))
		return lhs.Equal(rhs)
	}
	cfg := &quick.Config{MaxCount: 8}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestKeyGeneration(t *testing.T) {
	k := testKey(t, 1)
	if !k.Pub.OnCurve() {
		t.Fatal("public key not on curve")
	}
	if k.D().Sign() <= 0 || k.D().Cmp(N) >= 0 {
		t.Fatal("private scalar out of range")
	}
}

func TestKeySerializationRoundTrip(t *testing.T) {
	k := testKey(t, 2)

	raw := k.Pub.SerializeRaw()
	if len(raw) != 64 {
		t.Fatalf("raw length %d", len(raw))
	}
	p1, err := ParsePublicKey(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !p1.Equal(&k.Pub) {
		t.Fatal("raw round trip mismatch")
	}

	unc := k.Pub.SerializeUncompressed()
	if len(unc) != 65 || unc[0] != 0x04 {
		t.Fatalf("bad uncompressed form %x", unc[:2])
	}
	p2, err := ParsePublicKey(unc)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Equal(&k.Pub) {
		t.Fatal("uncompressed round trip mismatch")
	}

	kb := k.Bytes()
	k2, err := PrivateKeyFromBytes(kb)
	if err != nil {
		t.Fatal(err)
	}
	if k2.D().Cmp(k.D()) != 0 {
		t.Fatal("private key round trip mismatch")
	}
}

func TestParsePublicKeyRejectsInvalid(t *testing.T) {
	if _, err := ParsePublicKey(make([]byte, 64)); err == nil {
		t.Error("accepted all-zero key")
	}
	if _, err := ParsePublicKey(make([]byte, 10)); err == nil {
		t.Error("accepted short key")
	}
	bad := testKey(t, 3).Pub.SerializeUncompressed()
	bad[0] = 0x02
	if _, err := ParsePublicKey(bad); err == nil {
		t.Error("accepted compressed prefix")
	}
	// Corrupt Y so the point is off-curve.
	bad2 := testKey(t, 4).Pub.SerializeRaw()
	bad2[63] ^= 1
	if _, err := ParsePublicKey(bad2); err == nil {
		t.Error("accepted off-curve point")
	}
}

func TestSignVerify(t *testing.T) {
	k := testKey(t, 5)
	hash := sha256.Sum256([]byte("ethereum network peers"))
	sig, err := Sign(k, hash[:])
	if err != nil {
		t.Fatal(err)
	}
	if len(sig) != SignatureLength {
		t.Fatalf("sig length %d", len(sig))
	}
	if !Verify(&k.Pub, hash[:], sig) {
		t.Fatal("valid signature rejected")
	}
	// Mutations must fail.
	bad := append([]byte(nil), sig...)
	bad[10] ^= 1
	if Verify(&k.Pub, hash[:], bad) {
		t.Fatal("corrupted signature accepted")
	}
	otherHash := sha256.Sum256([]byte("different"))
	if Verify(&k.Pub, otherHash[:], sig) {
		t.Fatal("signature accepted for wrong hash")
	}
	other := testKey(t, 6)
	if Verify(&other.Pub, hash[:], sig) {
		t.Fatal("signature accepted for wrong key")
	}
}

func TestSignDeterministic(t *testing.T) {
	k := testKey(t, 7)
	hash := sha256.Sum256([]byte("rfc6979"))
	s1, err1 := Sign(k, hash[:])
	s2, err2 := Sign(k, hash[:])
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !bytes.Equal(s1, s2) {
		t.Fatal("signatures are not deterministic")
	}
}

func TestSignLowS(t *testing.T) {
	k := testKey(t, 8)
	for i := 0; i < 20; i++ {
		hash := sha256.Sum256([]byte{byte(i)})
		sig, err := Sign(k, hash[:])
		if err != nil {
			t.Fatal(err)
		}
		s := new(big.Int).SetBytes(sig[32:64])
		if s.Cmp(halfN) > 0 {
			t.Fatalf("signature %d has high S", i)
		}
	}
}

func TestRecoverPubkey(t *testing.T) {
	for seed := int64(10); seed < 20; seed++ {
		k := testKey(t, seed)
		hash := sha256.Sum256([]byte{byte(seed)})
		sig, err := Sign(k, hash[:])
		if err != nil {
			t.Fatal(err)
		}
		got, err := RecoverPubkey(hash[:], sig)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !got.Equal(&k.Pub) {
			t.Fatalf("seed %d: recovered wrong key", seed)
		}
	}
}

func TestRecoverRejectsGarbage(t *testing.T) {
	hash := sha256.Sum256([]byte("x"))
	if _, err := RecoverPubkey(hash[:], make([]byte, 65)); err == nil {
		t.Error("accepted zero signature")
	}
	sig := make([]byte, 65)
	sig[64] = 9
	if _, err := RecoverPubkey(hash[:], sig); err == nil {
		t.Error("accepted invalid recovery id")
	}
	if _, err := RecoverPubkey(hash[:5], make([]byte, 65)); err == nil {
		t.Error("accepted short hash")
	}
}

func TestSharedSecretAgreement(t *testing.T) {
	a := testKey(t, 30)
	b := testKey(t, 31)
	s1, err := SharedSecret(a, &b.Pub)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := SharedSecret(b, &a.Pub)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1, s2) {
		t.Fatal("ECDH secrets disagree")
	}
	if len(s1) != 32 {
		t.Fatalf("secret length %d", len(s1))
	}
	c := testKey(t, 32)
	s3, _ := SharedSecret(a, &c.Pub)
	if bytes.Equal(s1, s3) {
		t.Fatal("distinct peers produced equal secrets")
	}
}

func BenchmarkSign(b *testing.B) {
	k := testKey(b, 40)
	hash := sha256.Sum256([]byte("bench"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Sign(k, hash[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	k := testKey(b, 41)
	hash := sha256.Sum256([]byte("bench"))
	sig, _ := Sign(k, hash[:])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !Verify(&k.Pub, hash[:], sig) {
			b.Fatal("verify failed")
		}
	}
}

func BenchmarkECDH(b *testing.B) {
	k1 := testKey(b, 42)
	k2 := testKey(b, 43)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SharedSecret(k1, &k2.Pub); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecoverPubkey(b *testing.B) {
	k := testKey(b, 44)
	hash := sha256.Sum256([]byte("bench recover"))
	sig, err := Sign(k, hash[:])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RecoverPubkey(hash[:], sig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScalarBaseMult(b *testing.B) {
	k := testKey(b, 45).D()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ScalarBaseMult(k)
	}
}

func BenchmarkScalarMult(b *testing.B) {
	k := testKey(b, 46).D()
	p := testKey(b, 47).Pub.Point()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ScalarMult(p, k)
	}
}

func BenchmarkGenerateKey(b *testing.B) {
	rng := testRand(48)
	var k PrivateKey
	var entropy [32]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := GenerateKeyInto(&k, rng, &entropy); err != nil {
			b.Fatal(err)
		}
	}
}

// benchInputs returns 64 pseudo-random 256-bit values for the
// inversion benchmarks, reduced by the caller.
func benchInputs() (in [64][32]byte) {
	rng := testRand(49)
	for i := range in {
		rng.Read(in[i][:])
	}
	return in
}

func BenchmarkFieldInverse(b *testing.B) {
	var fs [64]fieldElement
	for i, v := range benchInputs() {
		fs[i].setBytes(&v)
	}
	var r fieldElement
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.inv(&fs[i%len(fs)])
	}
}

func BenchmarkScalarInverse(b *testing.B) {
	var ss [64]scalar
	for i, v := range benchInputs() {
		ss[i].setBytes(&v)
	}
	var r scalar
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.inverse(&ss[i%len(ss)])
	}
}
