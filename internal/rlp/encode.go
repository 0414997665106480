package rlp

import (
	"encoding/binary"
	"math/big"
)

// Encoder is implemented by every type with a wire encoding.
type Encoder interface {
	// AppendRLP appends the RLP encoding of the receiver to dst and
	// returns the extended slice.
	AppendRLP(dst []byte) []byte
}

// EncodeToBytes returns the RLP encoding of v.
func EncodeToBytes(v any) ([]byte, error) { return EncodeAppend(nil, v) }

// EncodeAppend appends the RLP encoding of v to dst and returns the
// extended slice. v is an Encoder, a uint64 or []uint64 (DISCONNECT's
// payloads), or a slice of (or pointer to a slice of) pointers to a
// type registered with RegisterList; any other value is an error.
// Into a dst with room to spare
// it allocates nothing.
func EncodeAppend(dst []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case Encoder:
		return v.AppendRLP(dst), nil
	case uint64:
		return AppendUint(dst, v), nil
	case []uint64:
		var list int
		dst, list = ListStart(dst)
		for _, u := range v {
			dst = AppendUint(dst, u)
		}
		return ListEnd(dst, list), nil
	}
	return codeList(dst, nil, v)
}

// appendList appends the list of vals' encodings to b, a nil element
// encoded as an empty list.
func appendList[T any, P interface {
	*T
	Encoder
}](b []byte, vals []P) []byte {
	b, list := ListStart(b)
	for _, v := range vals {
		if v == nil {
			b = append(b, 0xC0)
		} else {
			b = v.AppendRLP(b)
		}
	}
	return ListEnd(b, list)
}

// AppendUint appends the RLP encoding of i to b.
func AppendUint(b []byte, i uint64) []byte {
	switch {
	case i == 0:
		return append(b, 0x80)
	case i < 0x80:
		return append(b, byte(i))
	}
	return appendInt(append(b, 0x80+byte(intSize(i))), i)
}

// AppendBool appends v as the integer 1 or 0.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 0x01)
	}
	return append(b, 0x80)
}

// AppendBytes appends p as an RLP byte string.
func AppendBytes(b, p []byte) []byte {
	if len(p) == 1 && p[0] < 0x80 {
		return append(b, p[0])
	}
	return append(appendHead(b, 0x80, uint64(len(p))), p...)
}

// AppendString appends s as an RLP byte string.
func AppendString(b []byte, s string) []byte {
	if len(s) == 1 && s[0] < 0x80 {
		return append(b, s[0])
	}
	return append(appendHead(b, 0x80, uint64(len(s))), s...)
}

// AppendBigInt appends i as an RLP integer; nil encodes as zero. RLP
// has no negative integers: a negative i is a programming error, and
// AppendBigInt panics on it rather than put a wrong value on the wire.
func AppendBigInt(b []byte, i *big.Int) []byte {
	switch {
	case i == nil:
		return append(b, 0x80)
	case i.Sign() < 0:
		panic("rlp: cannot encode negative big.Int")
	case i.BitLen() <= 64:
		return AppendUint(b, i.Uint64())
	}
	n := (i.BitLen() + 7) / 8
	b = appendHead(b, 0x80, uint64(n))
	b = append(b, make([]byte, n)...)
	i.FillBytes(b[len(b)-n:])
	return b
}

// AppendRaw appends already-encoded values verbatim: the Rest a wire
// type captured from a newer peer goes back out as it came in.
func AppendRaw(b []byte, vals ...RawValue) []byte {
	for _, v := range vals {
		b = append(b, v...)
	}
	return b
}

// ListStart opens a list on b. It returns the extended slice and the
// list's offset, which the matching ListEnd takes once the elements
// are appended.
func ListStart(b []byte) ([]byte, int) {
	start := len(b)
	return append(b, 0xC0), start
}

// ListEnd closes the list opened at start, writing its header. A
// payload of 56 bytes or more needs a longer header than the one byte
// ListStart reserved, and moves up to make room.
func ListEnd(b []byte, start int) []byte {
	size := uint64(len(b) - start - 1)
	if size < 56 {
		b[start] = 0xC0 + byte(size)
		return b
	}
	n := intSize(size)
	b = append(b, make([]byte, n)...)
	copy(b[start+1+n:], b[start+1:len(b)-n])
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], size)
	b[start] = 0xF7 + byte(n)
	copy(b[start+1:], tmp[8-n:])
	return b
}

// appendHead appends a header with the given base (0x80 strings, 0xC0
// lists) for a payload of the given size.
func appendHead(b []byte, base byte, size uint64) []byte {
	if size < 56 {
		return append(b, base+byte(size))
	}
	return appendInt(append(b, base+55+byte(intSize(size))), size)
}
