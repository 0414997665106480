// Package rlp implements Ethereum's Recursive Length Prefix (RLP)
// serialization format.
//
// RLP encodes arbitrarily nested arrays of binary data. It is the
// canonical encoding for every message exchanged on Ethereum's wire
// protocols (discovery packets, RLPx handshake bodies, DEVp2p and eth
// subprotocol messages) as well as for block headers.
//
// Each wire type codes itself: it appends its encoding with the
// Append* helpers and ListStart/ListEnd (Encoder), and reads itself
// back from a Stream, a cursor over a byte slice that enforces the
// canonical form (Decoder). EncodeToBytes, EncodeAppend, DecodeBytes
// and DecodeFirst are thin front doors over the two interfaces.
package rlp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// RawValue is one already-encoded RLP value, header included: an
// element of a wire type's Rest, which Stream.Rest reads and AppendRaw
// writes back verbatim.
type RawValue []byte

// Common errors returned by the decoder.
var (
	// ErrExpectedString is returned when a list is found where a
	// byte string was required.
	ErrExpectedString = errors.New("rlp: expected string or byte")
	// ErrExpectedList is returned when a byte string is found where
	// a list was required.
	ErrExpectedList = errors.New("rlp: expected list")
	// ErrCanonInt is returned for integers with leading zero bytes.
	ErrCanonInt = errors.New("rlp: non-canonical integer format")
	// ErrCanonSize is returned for sizes that use more bytes than
	// necessary (a non-minimal length header).
	ErrCanonSize = errors.New("rlp: non-canonical size information")
	// ErrElemTooLarge is returned when a contained value extends
	// past the end of its enclosing list.
	ErrElemTooLarge = errors.New("rlp: element is larger than containing list")
	// ErrValueTooLarge is returned when a value header announces
	// more bytes than the input holds.
	ErrValueTooLarge = errors.New("rlp: value size exceeds available input length")
	// ErrMoreThanOneValue is returned by DecodeBytes when the input
	// contains trailing bytes after the first value.
	ErrMoreThanOneValue = errors.New("rlp: input contains more than one value")
	// ErrUintOverflow is returned when decoding an integer that does
	// not fit the target type.
	ErrUintOverflow = errors.New("rlp: uint overflow")
	// EOL is returned by Stream operations when the end of the
	// current list has been reached.
	EOL = errors.New("rlp: end of list")
)

// Kind is the category of an RLP value seen by the decoder.
type Kind int8

// The three RLP value kinds.
const (
	Byte   Kind = iota // single byte < 0x80, no header
	String             // byte string
	List               // list of values
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Byte:
		return "Byte"
	case String:
		return "String"
	case List:
		return "List"
	default:
		return fmt.Sprintf("Kind(%d)", int8(k))
	}
}

// intSize is the number of bytes in the big-endian form of i without
// leading zeros.
func intSize(i uint64) int { return (bits.Len64(i) + 7) / 8 }

// appendInt appends i big-endian without leading zeros (nothing for 0).
func appendInt(b []byte, i uint64) []byte {
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], i)
	return append(b, tmp[8-intSize(i):]...)
}
