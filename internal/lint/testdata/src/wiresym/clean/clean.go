// Package clean keeps wire symmetry: paired custom codecs, encodes
// with decode counterparts (including one resolved through a local
// interface variable), a shape-compatible decode twin under a shared
// message code, and every decode input bounded.
package clean

import (
	"bytes"
	"io"

	"lintest/rlp"
)

const maxEchoSize = 1 << 10

// EchoMsg pairs the echo encoder with its decoders.
const EchoMsg = 0x02

// Paired customizes both directions of its codec.
type Paired struct {
	N uint64
}

// EncodeRLP writes the custom form.
func (p *Paired) EncodeRLP(w io.Writer) error { return nil }

// DecodeRLP reads it back.
func (p *Paired) DecodeRLP(s *rlp.Stream) error { return nil }

// Echo round-trips through the reflection path.
type Echo struct {
	N    uint64
	Body []byte
}

// EchoAck matches Echo's wire shape — uint then byte string — without
// sharing the type.
type EchoAck struct {
	Seq  uint64
	Data []byte
}

// SendEcho encodes under EchoMsg.
func SendEcho(w *bytes.Buffer) {
	code := uint64(EchoMsg)
	_ = code
	rlp.Encode(w, &Echo{N: 1})
}

// RecvEcho decodes a shape twin under the same code: compatible field
// count, order, and kinds satisfy the pairing.
func RecvEcho(payload []byte) {
	if len(payload) > maxEchoSize {
		return
	}
	code := uint64(EchoMsg)
	_ = code
	var ack EchoAck
	rlp.DecodeBytes(payload, &ack)
}

// recvEchoDirect decodes Echo itself through an interface local — the
// new(T) idiom the analyzer resolves via reaching definitions.
func recvEchoDirect(payload []byte) {
	if len(payload) > maxEchoSize {
		return
	}
	var v interface{} = new(Echo)
	rlp.DecodeBytes(payload, v)
}
