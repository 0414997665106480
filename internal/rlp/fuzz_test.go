package rlp

import (
	"bytes"
	"testing"
)

// helloLike mirrors the field mix of the wire structs decoded from
// untrusted peers (devp2p.Hello, eth.Status): integers, strings,
// nested lists, and a tail absorbing unknown future fields. Only the
// reference codec reads it.
type helloLike struct {
	Version uint64
	Name    string
	Caps    []capLike
	Port    uint64
	ID      [64]byte
	Rest    []RawValue `rlp:"tail"`
}

type capLike struct {
	Name    string
	Version uint
}

// FuzzDecode throws arbitrary bytes at the Stream and the front doors.
// Invariants: no panic; for the shapes with a canonical encoding,
// decode∘encode is the identity (the decoder must not accept a
// non-canonical form silently); and the integer lists DISCONNECT
// carries get the reference codec's verdict.
func FuzzDecode(f *testing.F) {
	// Canonical encodings of representative values.
	for _, enc := range [][]byte{
		AppendUint(nil, 0), AppendUint(nil, 127), AppendUint(nil, 1<<40),
		AppendString(nil, ""), AppendString(nil, "eth"), AppendString(nil, "Geth/v1.8.11-stable/linux-amd64/go1.10"),
		AppendBytes(nil, []byte{0x80}), AppendBytes(nil, bytes.Repeat([]byte{0xAA}, 100)),
	} {
		f.Add(enc)
	}
	for _, v := range []any{
		[]uint64{1, 2, 3},
		&helloLike{Version: 5, Name: "x", Caps: []capLike{{"eth", 63}}, Port: 30303},
	} {
		enc, err := oracleEncodeToBytes(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	// Hand-picked malformed shapes: truncated sizes, huge announced
	// lengths, non-canonical single bytes, deep nesting.
	f.Add([]byte{0xB8})
	f.Add([]byte{0xBF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0x81, 0x01}) // non-canonical: single byte < 0x80 wrapped in a string
	f.Add(bytes.Repeat([]byte{0xC1}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		s := newStream(data)
		if raw, err := s.Raw(); err == nil && s.pos == len(data) {
			if !bytes.Equal(raw, data) {
				t.Fatalf("RawValue lost bytes: %x != %x", raw, data)
			}
		}
		var u uint64
		if err := DecodeBytes(data, &u); err == nil {
			if enc := AppendUint(nil, u); !bytes.Equal(enc, data) {
				t.Fatalf("uint64 %d: decode∘encode %x != input %x (non-canonical accepted)", u, enc, data)
			}
		}
		s = newStream(data)
		if str, err := s.Text(); err == nil && s.pos == len(data) {
			if enc := AppendString(nil, str); !bytes.Equal(enc, data) {
				t.Fatalf("string %q: decode∘encode mismatch", str)
			}
		}
		var list, ref []uint64
		errL, errR := DecodeBytes(data, &list), oracleDecodeBytes(data, &ref)
		if (errL == nil) != (errR == nil) || len(list) != len(ref) {
			t.Fatalf("[]uint64 on %x: %v %v, reference %v %v", data, list, errL, ref, errR)
		}
		var h helloLike
		if oracleDecodeBytes(data, &h) == nil {
			if enc, err := oracleEncodeToBytes(&h); err != nil || !bytes.Equal(enc, data) {
				t.Fatalf("helloLike: decode∘encode %x (%v) != input %x", enc, err, data)
			}
		}

		SplitString(data) //nolint:errcheck
		s = newStream(data)
		if size, err := s.List(); err == nil {
			// Counting a valid list must terminate and stay in bounds.
			if n, err := s.count(); err == nil && n > int(size) {
				t.Fatalf("counted %d values in %d bytes", n, size)
			}
		}
	})
}
