package secp256k1

import (
	"crypto/sha256"
	"encoding/hex"
	"math/big"
	"testing"
)

// TestRFC6979KnownVector checks the deterministic-nonce signer
// against the widely published secp256k1 RFC 6979 vector (private
// key 0x01, message "Satoshi Nakamoto"). Matching it end-to-end
// validates the nonce generator, scalar arithmetic, and low-S
// canonicalization against independent implementations.
func TestRFC6979KnownVector(t *testing.T) {
	k, err := PrivateKeyFromScalar(big.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256([]byte("Satoshi Nakamoto"))
	sig, err := Sign(k, h[:])
	if err != nil {
		t.Fatal(err)
	}
	wantR := "934b1ea10a4b3c1757e2b0c017d0b6143ce3c9a7e6a4a49860d7a6ab210ee3d8"
	wantS := "2442ce9d2b916064108014783e923ec36b49743e2ffa1c4496f01a512aafd9e5"
	if got := hex.EncodeToString(sig[:32]); got != wantR {
		t.Errorf("r = %s, want %s", got, wantR)
	}
	if got := hex.EncodeToString(sig[32:64]); got != wantS {
		t.Errorf("s = %s, want %s", got, wantS)
	}
	// The recoverable form must also verify and recover.
	if !Verify(&k.Pub, h[:], sig) {
		t.Error("vector signature does not verify")
	}
	rec, err := RecoverPubkey(h[:], sig)
	if err != nil || !rec.Equal(&k.Pub) {
		t.Errorf("recovery failed: %v", err)
	}
}
