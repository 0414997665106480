// Package ecies implements the Elliptic Curve Integrated Encryption
// Scheme as profiled by RLPx, Ethereum's transport handshake.
//
// RLPx encrypts its auth and ack handshake messages with
// ECIES(secp256k1, SHA-256 concat-KDF, AES-128-CTR, HMAC-SHA256).
// The ciphertext layout is:
//
//	0x04 || ephemeral pubkey (64) || IV (16) || ciphertext || MAC (32)
//
// The MAC covers IV || ciphertext with an optional shared-info
// suffix s2; RLPx uses the encrypted message length prefix as s2 in
// the EIP-8 framing.
package ecies

import (
	"crypto/aes"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"

	"repro/internal/crypto/ctr"
	"repro/internal/crypto/secp256k1"
)

// Overhead is the number of bytes ECIES adds to a plaintext:
// 65-byte ephemeral key, 16-byte IV, 32-byte MAC.
const Overhead = 65 + 16 + 32

// ErrInvalidMAC is returned when the authentication tag check fails.
var ErrInvalidMAC = errors.New("ecies: invalid message authentication code")

// ErrTooShort is returned for ciphertexts below the minimum size.
var ErrTooShort = errors.New("ecies: ciphertext too short")

// kdf appends length bytes derived from the shared secret z and
// shared info s1 to dst, using the NIST SP 800-56 concatenation KDF
// with SHA-256. Each block hashes counter || z || s1 from a stack
// buffer (spilling to the heap only for an unusually long s1).
func kdf(dst, z, s1 []byte, length int) []byte {
	var scratch [4 + 32 + 32]byte
	for counter := uint32(1); length > 0; counter++ {
		in := append(scratch[:0], byte(counter>>24), byte(counter>>16), byte(counter>>8), byte(counter))
		in = append(in, z...)
		in = append(in, s1...)
		block := sha256.Sum256(in)
		n := min(length, len(block))
		dst = append(dst, block[:n]...)
		length -= n
	}
	return dst
}

// deriveKeys splits KDF output into the 16-byte AES key and the
// SHA-256-hashed MAC key.
func deriveKeys(z, s1 []byte) (ke [16]byte, km [32]byte) {
	var k [32]byte
	kdf(k[:0], z, s1, len(k))
	copy(ke[:], k[:16])
	return ke, sha256.Sum256(k[16:])
}

// messageTag is HMAC-SHA256(km, ivCiphertext || s2). The inner hash
// streams through one SHA-256 state; the outer one is a single
// 96-byte block hashed from the stack.
func messageTag(km *[32]byte, ivCiphertext, s2 []byte) [32]byte {
	var inner, outer [64 + 32]byte
	for i := 0; i < 64; i++ {
		inner[i], outer[i] = 0x36, 0x5c
	}
	for i, b := range km {
		inner[i] ^= b
		outer[i] ^= b
	}
	h := sha256.New()
	h.Write(inner[:64])
	h.Write(ivCiphertext)
	h.Write(s2)
	h.Sum(outer[:64])
	return sha256.Sum256(outer[:])
}

// Encrypt encrypts msg for the owner of pub. s1 feeds the KDF and s2
// feeds the MAC; either may be nil. rand supplies the ephemeral key
// and IV.
func Encrypt(rand io.Reader, pub *secp256k1.PublicKey, msg, s1, s2 []byte) ([]byte, error) {
	return Seal(make([]byte, 0, Overhead+len(msg)), rand, pub, msg, s1, s2)
}

// Seal is Encrypt appending the ciphertext to dst, so a caller that
// owns a packet buffer pays for no intermediate copies. dst must not
// overlap msg. The ephemeral key is held on the stack, and its entropy
// is read into the bytes of dst its public key then overwrites.
func Seal(dst []byte, rand io.Reader, pub *secp256k1.PublicKey, msg, s1, s2 []byte) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0x04)
	dst = append(dst, make([]byte, 64+aes.BlockSize+len(msg))...)
	var eph secp256k1.PrivateKey
	if err := secp256k1.GenerateKeyInto(&eph, rand, (*[32]byte)(dst[start+1:])); err != nil {
		return nil, fmt.Errorf("ecies: ephemeral key: %w", err)
	}
	var z [32]byte
	if err := secp256k1.SharedSecretInto(&z, &eph, pub); err != nil {
		return nil, fmt.Errorf("ecies: ECDH: %w", err)
	}
	ke, km := deriveKeys(z[:], s1)

	eph.Pub.PutRaw((*[64]byte)(dst[start+1:]))
	iv := dst[start+65 : start+65+aes.BlockSize]
	if _, err := io.ReadFull(rand, iv); err != nil {
		return nil, fmt.Errorf("ecies: IV: %w", err)
	}
	block, err := aes.NewCipher(ke[:])
	if err != nil {
		return nil, err
	}
	var stream ctr.Stream
	stream.Init(block, iv)
	stream.XORKeyStream(dst[start+65+aes.BlockSize:], msg)
	tag := messageTag(&km, dst[start+65:], s2)
	return append(dst, tag[:]...), nil
}

// Decrypt reverses Encrypt using the recipient's private key.
func Decrypt(priv *secp256k1.PrivateKey, ct, s1, s2 []byte) ([]byte, error) {
	return Open(nil, priv, ct, s1, s2)
}

// Open is Decrypt appending the plaintext to dst. dst must not
// overlap ct. Nothing is appended unless the tag verifies.
func Open(dst []byte, priv *secp256k1.PrivateKey, ct, s1, s2 []byte) ([]byte, error) {
	if len(ct) < Overhead {
		return nil, ErrTooShort
	}
	var ephPub secp256k1.PublicKey
	if err := secp256k1.ParsePublicKeyInto(&ephPub, ct[:65]); err != nil {
		return nil, fmt.Errorf("ecies: ephemeral key: %w", err)
	}
	var z [32]byte
	if err := secp256k1.SharedSecretInto(&z, priv, &ephPub); err != nil {
		return nil, fmt.Errorf("ecies: ECDH: %w", err)
	}
	ke, km := deriveKeys(z[:], s1)

	body := ct[65 : len(ct)-32]
	want := messageTag(&km, body, s2)
	if !hmac.Equal(ct[len(ct)-32:], want[:]) {
		return nil, ErrInvalidMAC
	}

	block, err := aes.NewCipher(ke[:])
	if err != nil {
		return nil, err
	}
	iv, payload := body[:aes.BlockSize], body[aes.BlockSize:]
	start := len(dst)
	dst = append(dst, make([]byte, len(payload))...)
	var stream ctr.Stream
	stream.Init(block, iv)
	stream.XORKeyStream(dst[start:], payload)
	return dst, nil
}
