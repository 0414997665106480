// Package rlp implements Ethereum's Recursive Length Prefix (RLP)
// serialization format.
//
// RLP encodes arbitrarily nested arrays of binary data. It is the
// canonical encoding for every message exchanged on Ethereum's wire
// protocols (discovery packets, RLPx frames, DEVp2p and eth
// subprotocol messages) as well as for blocks and transactions.
//
// The package provides an Encode/DecodeBytes pair modeled on
// encoding/json — each Go type is compiled once into a codec plan
// (plan.go) — plus the low-level reader (Stream) a custom DecodeRLP
// is handed when a type wants explicit control of its wire shape.
//
// Type mapping:
//
//   - uint8..uint64, uint: big-endian integer with no leading zeros
//   - *big.Int: arbitrary-size unsigned integer
//   - bool: 0x01 / empty string
//   - string, []byte: byte string
//   - [N]byte arrays: fixed-size byte string
//   - slices (other than []byte): list
//   - structs: list of the exported fields in declaration order;
//     fields tagged `rlp:"-"` are skipped, `rlp:"tail"` (last field,
//     slice type) absorbs remaining list elements, and
//     `rlp:"optional"` fields may be absent at the end of a list
//   - pointers: encoded as the pointed-to value; nil pointers encode
//     as the empty string (for byte-ish kinds) or empty list
//   - RawValue: copied verbatim
//
// Signed integers and floats are not supported, matching the
// canonical Ethereum implementation.
package rlp

import (
	"errors"
	"fmt"
	"math/big"
	"reflect"
)

// RawValue represents an already-encoded RLP value. It is copied
// verbatim by Encode and captures one full value (including its
// header) in Decode.
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
	// ErrNegativeBigInt is returned when encoding a negative big.Int.
	ErrNegativeBigInt = errors.New("rlp: cannot encode negative big.Int")
	// EOL is returned by Stream operations when the end of the
	// current list has been reached.
	EOL = errors.New("rlp: end of list")
)

// Kind is the category of an RLP value seen by the streaming decoder.
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

var (
	bigIntType   = reflect.TypeOf(new(big.Int))
	rawValueType = reflect.TypeOf(RawValue{})
)

// typeError annotates a decode error with the Go type being filled.
type typeError struct {
	typ reflect.Type
	err error
}

func (e *typeError) Error() string { return fmt.Sprintf("rlp: %v for %v", e.err, e.typ) }

func (e *typeError) Unwrap() error { return e.err }

func wrapTypeError(err error, typ reflect.Type) error {
	switch err {
	case ErrExpectedString, ErrExpectedList, ErrCanonInt, ErrCanonSize,
		ErrUintOverflow, ErrElemTooLarge, ErrValueTooLarge:
		return &typeError{typ, err}
	}
	return err
}

// fieldInfo describes one struct field relevant to RLP.
type fieldInfo struct {
	index    int
	name     string
	tail     bool
	optional bool
}

// structFields returns the RLP-visible fields of a struct type.
func structFields(typ reflect.Type) ([]fieldInfo, error) {
	var fields []fieldInfo
	seenTail := false
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		tag := f.Tag.Get("rlp")
		info := fieldInfo{index: i, name: f.Name}
		switch tag {
		case "-":
			continue
		case "":
		case "tail":
			if f.Type.Kind() != reflect.Slice {
				return nil, fmt.Errorf("rlp: tail field %s.%s must be a slice", typ, f.Name)
			}
			info.tail = true
		case "optional":
			info.optional = true
		case "nil", "nilString", "nilList":
			// Accepted for geth compatibility; pointer fields already
			// treat nil as empty, so no extra behavior is needed.
		default:
			return nil, fmt.Errorf("rlp: unknown struct tag %q on %s.%s", tag, typ, f.Name)
		}
		if seenTail {
			return nil, fmt.Errorf("rlp: field %s.%s follows tail field", typ, f.Name)
		}
		if info.tail {
			seenTail = true
		}
		fields = append(fields, info)
	}
	// Validate optional ordering: once optional, all later fields
	// must be optional or tail.
	opt := false
	for _, f := range fields {
		if f.optional {
			opt = true
		} else if opt && !f.tail {
			return nil, fmt.Errorf("rlp: non-optional field %s.%s follows optional field", typ, f.name)
		}
	}
	return fields, nil
}

// isByteArray reports whether typ is [N]byte.
func isByteArray(typ reflect.Type) bool {
	return typ.Kind() == reflect.Array && typ.Elem().Kind() == reflect.Uint8
}

// intSize returns the number of bytes needed for a big-endian
// encoding of i with no leading zeros.
func intSize(i uint64) int {
	size := 1
	for ; i >= 0x100; i >>= 8 {
		size++
	}
	return size
}

// putInt writes i big-endian with no leading zeros into b and returns
// the number of bytes written. b must have room for 8 bytes.
func putInt(b []byte, i uint64) int {
	switch {
	case i < (1 << 8):
		b[0] = byte(i)
		return 1
	case i < (1 << 16):
		b[0], b[1] = byte(i>>8), byte(i)
		return 2
	case i < (1 << 24):
		b[0], b[1], b[2] = byte(i>>16), byte(i>>8), byte(i)
		return 3
	case i < (1 << 32):
		b[0], b[1], b[2], b[3] = byte(i>>24), byte(i>>16), byte(i>>8), byte(i)
		return 4
	case i < (1 << 40):
		b[0], b[1], b[2], b[3], b[4] = byte(i>>32), byte(i>>24), byte(i>>16), byte(i>>8), byte(i)
		return 5
	case i < (1 << 48):
		b[0], b[1], b[2], b[3], b[4], b[5] = byte(i>>40), byte(i>>32), byte(i>>24), byte(i>>16), byte(i>>8), byte(i)
		return 6
	case i < (1 << 56):
		b[0], b[1], b[2], b[3], b[4], b[5], b[6] = byte(i>>48), byte(i>>40), byte(i>>32), byte(i>>24), byte(i>>16), byte(i>>8), byte(i)
		return 7
	default:
		b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7] = byte(i>>56), byte(i>>48), byte(i>>40), byte(i>>32), byte(i>>24), byte(i>>16), byte(i>>8), byte(i)
		return 8
	}
}

// readInt parses a big-endian integer of the given length, enforcing
// canonical form (no leading zeros, minimal size).
func readInt(b []byte) (uint64, error) {
	switch len(b) {
	case 0:
		return 0, nil
	case 1:
		if b[0] == 0 {
			return 0, ErrCanonInt
		}
		return uint64(b[0]), nil
	default:
		if len(b) > 8 {
			return 0, ErrUintOverflow
		}
		if b[0] == 0 {
			return 0, ErrCanonInt
		}
		var v uint64
		for _, c := range b {
			v = v<<8 | uint64(c)
		}
		return v, nil
	}
}
