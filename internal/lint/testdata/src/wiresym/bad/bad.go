// Package bad breaks wire symmetry every way the analyzer knows: a
// one-sided custom codec, encodes with no decode counterpart (direct
// and through an any-typed helper), a shape mismatch under a shared
// message code, and an unbounded decode input.
package bad

import (
	"bytes"
	"io"

	"lintest/rlp"
)

// Lopsided customizes only the encode direction; the reflection path
// would decode a different wire shape.
// wantnext "declares EncodeRLP but not DecodeRLP"
type Lopsided struct {
	X uint64
}

// EncodeRLP is the lone half of the codec.
func (l *Lopsided) EncodeRLP(w io.Writer) error { return nil }

// Orphan goes out on the wire and nothing reads it back.
type Orphan struct {
	A uint64
	B string
}

// SendOrphan is the only codec touch point for Orphan.
func SendOrphan(w *bytes.Buffer) {
	rlp.Encode(w, &Orphan{A: 1, B: "x"}) // want "nothing in the module decodes it"
}

// Ghost is encoded only through an any-typed helper: the analyzer
// resolves the concrete type at the caller.
type Ghost struct {
	G uint64
}

func encodeAny(w *bytes.Buffer, v interface{}) error {
	return rlp.Encode(w, v)
}

// SendGhost feeds the helper a type with no decoder.
func SendGhost(w *bytes.Buffer) {
	encodeAny(w, &Ghost{G: 2}) // want "message type Ghost is RLP-encoded"
}

// PingMsg ties the mismatched encoder and decoder together.
const PingMsg = 0x01

// PingOut is what goes out under PingMsg.
type PingOut struct {
	Seq     uint64
	Payload []byte
	Extra   string
}

// PingIn is what the decoder under PingMsg expects — one field, not
// three.
type PingIn struct {
	Seq uint64
}

// SendPing encodes three fields under PingMsg.
func SendPing(w *bytes.Buffer) {
	code := uint64(PingMsg)
	_ = code
	rlp.Encode(w, &PingOut{Seq: 9}) // want "no decoder under the same code matches its field shape"
}

// RecvPing decodes one field under PingMsg.
func RecvPing(payload []byte) {
	if len(payload) > 1024 {
		return
	}
	code := uint64(PingMsg)
	_ = code
	var in PingIn
	rlp.DecodeBytes(payload, &in)
}

// decodePingOut keeps PingOut round-trippable in principle (rule 2)
// while staying out of the PingMsg pairing — it references no message
// code.
func decodePingOut(payload []byte) {
	if len(payload) > 1024 {
		return
	}
	var out PingOut
	rlp.DecodeBytes(payload, &out)
}

// RecvUnbounded decodes a payload nothing ever measured.
func RecvUnbounded(payload []byte) {
	var in PingIn
	rlp.DecodeBytes(payload, &in) // want "no earlier len"
}
