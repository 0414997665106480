package ecies

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/crypto/secp256k1"
)

func testKey(t testing.TB, seed int64) *secp256k1.PrivateKey {
	t.Helper()
	k, err := secp256k1.GenerateKey(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	k := testKey(t, 1)
	rng := rand.New(rand.NewSource(2))
	msg := []byte("RLPx auth message body")
	ct, err := Encrypt(rng, &k.Pub, msg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ct) != len(msg)+Overhead {
		t.Fatalf("ciphertext length %d, want %d", len(ct), len(msg)+Overhead)
	}
	pt, err := Decrypt(k, ct, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, msg) {
		t.Fatalf("got %q", pt)
	}
}

func TestSharedInfo(t *testing.T) {
	k := testKey(t, 3)
	rng := rand.New(rand.NewSource(4))
	msg := []byte("with shared info")
	s1, s2 := []byte("kdf-info"), []byte("mac-info")
	ct, err := Encrypt(rng, &k.Pub, msg, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decrypt(k, ct, s1, nil); err != ErrInvalidMAC {
		t.Errorf("wrong s2: got %v, want ErrInvalidMAC", err)
	}
	if _, err := Decrypt(k, ct, nil, s2); err == nil {
		t.Error("wrong s1 accepted")
	}
	pt, err := Decrypt(k, ct, s1, s2)
	if err != nil || !bytes.Equal(pt, msg) {
		t.Fatalf("got %q, %v", pt, err)
	}
}

func TestTamperDetection(t *testing.T) {
	k := testKey(t, 5)
	rng := rand.New(rand.NewSource(6))
	ct, err := Encrypt(rng, &k.Pub, []byte("payload"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{65, 70, 81, len(ct) - 33, len(ct) - 1} {
		bad := append([]byte(nil), ct...)
		bad[pos] ^= 1
		if _, err := Decrypt(k, bad, nil, nil); err == nil {
			t.Errorf("tampered byte %d accepted", pos)
		}
	}
}

func TestWrongRecipient(t *testing.T) {
	k1, k2 := testKey(t, 7), testKey(t, 8)
	rng := rand.New(rand.NewSource(9))
	ct, err := Encrypt(rng, &k1.Pub, []byte("secret"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decrypt(k2, ct, nil, nil); err == nil {
		t.Error("wrong key decrypted successfully")
	}
}

func TestShortCiphertext(t *testing.T) {
	k := testKey(t, 10)
	if _, err := Decrypt(k, make([]byte, Overhead-1), nil, nil); err != ErrTooShort {
		t.Errorf("got %v, want ErrTooShort", err)
	}
}

func TestEmptyMessage(t *testing.T) {
	k := testKey(t, 11)
	rng := rand.New(rand.NewSource(12))
	ct, err := Encrypt(rng, &k.Pub, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := Decrypt(k, ct, nil, nil)
	if err != nil || len(pt) != 0 {
		t.Fatalf("got %q, %v", pt, err)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	k := testKey(t, 13)
	rng := rand.New(rand.NewSource(14))
	f := func(msg []byte) bool {
		ct, err := Encrypt(rng, &k.Pub, msg, nil, nil)
		if err != nil {
			return false
		}
		pt, err := Decrypt(k, ct, nil, nil)
		return err == nil && bytes.Equal(pt, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestKDFLengths(t *testing.T) {
	z := []byte{1, 2, 3}
	for _, n := range []int{1, 16, 31, 32, 33, 64, 100} {
		out := kdf(nil, z, nil, n)
		if len(out) != n {
			t.Errorf("kdf length %d: got %d", n, len(out))
		}
	}
	// Different shared info must produce different keys.
	if bytes.Equal(kdf(nil, z, []byte("a"), 32), kdf(nil, z, []byte("b"), 32)) {
		t.Error("kdf ignores shared info")
	}
}

func BenchmarkEncrypt(b *testing.B) {
	k := testKey(b, 20)
	rng := rand.New(rand.NewSource(21))
	msg := make([]byte, 194) // typical RLPx auth body size
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encrypt(rng, &k.Pub, msg, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecrypt(b *testing.B) {
	k := testKey(b, 22)
	rng := rand.New(rand.NewSource(23))
	msg := make([]byte, 194)
	ct, _ := Encrypt(rng, &k.Pub, msg, nil, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decrypt(k, ct, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}
