package rlpx

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/crypto/secp256k1"
	"repro/internal/rlp"
)

// TestHandshakeBodyGolden pins the EIP-8 auth and ack bodies to the
// bytes the reflection codec produced for them: a fixed key, nonce and
// signature, once with an empty Rest and once with forward-compatible
// trailing fields. Each body must encode to its golden bytes, and
// decode back (behind EIP-8 padding) to a value that encodes the same.
// The oracle in internal/rlp cannot reach these unexported types, so
// this is their reference.
func TestHandshakeBodyGolden(t *testing.T) {
	key, err := secp256k1.PrivateKeyFromBytes(bytes.Repeat([]byte{0x11}, 32))
	if err != nil {
		t.Fatal(err)
	}
	var nonce [nonceLen]byte
	for i := range nonce {
		nonce[i] = byte(i)
	}
	sig, err := secp256k1.Sign(key, nonce[:])
	if err != nil {
		t.Fatal(err)
	}
	auth := authMsgV4{Nonce: nonce, Version: authVersion}
	copy(auth.Signature[:], sig)
	key.Pub.PutRaw(&auth.InitiatorPK)
	authRest := auth
	authRest.Rest = []rlp.RawValue{{0x05}, {0xC2, 0x01, 0x02}}
	ack := authAckV4{Nonce: nonce, Version: ackVersion}
	key.Pub.PutRaw(&ack.EphemeralPK)
	ackRest := ack
	ackRest.Rest = []rlp.RawValue{{0x83, 'a', 'b', 'c'}}

	const (
		sigHex = "b84145c66894f81a0c55d809102082de99d030ca1c9e2a9ce413b27f38f3c0ffa9d71420f34d854f3fafc3d50f9d9b448a42579601a981281f0d8daa5abff84d232200"
		pubHex = "b8404f355bdcb7cc0af728ef3cceb9615d90684bb5b2ca5f859ab0f0b704075871aa385b6b1b8ead809ca67454d9683fcf2ba03456d6fe2c4abe2b07f0fbdbb2f1c1"
		nonceV = "a0000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f04"
	)
	for _, tc := range []struct {
		name     string
		val, dst any
		want     string
	}{
		{"auth", &auth, new(authMsgV4), "f8a7" + sigHex + pubHex + nonceV},
		{"auth-rest", &authRest, new(authMsgV4), "f8ab" + sigHex + pubHex + nonceV + "05c20102"},
		{"ack", &ack, new(authAckV4), "f864" + pubHex + nonceV},
		{"ack-rest", &ackRest, new(authAckV4), "f868" + pubHex + nonceV + "83616263"},
	} {
		want, err := hex.DecodeString(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rlp.EncodeToBytes(tc.val)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoded\n%x\nwant\n%x", tc.name, got, want)
		}
		padded := append(want, bytes.Repeat([]byte{0xAA}, 100)...)
		if err := rlp.DecodeFirst(padded, tc.dst); err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if again, err := rlp.EncodeToBytes(tc.dst); err != nil || !bytes.Equal(again, want) {
			t.Errorf("%s: decoded value encodes to %x (%v), want %x", tc.name, again, err, want)
		}
	}
}
