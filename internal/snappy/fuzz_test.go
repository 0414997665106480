package snappy

import (
	"bytes"
	"testing"
)

// FuzzDecode attacks the snappy decoder with arbitrary compressed
// streams. Invariants: no panic; the announced-length cap holds (a
// decode that succeeds under DecodeCapped never exceeds its cap);
// and anything our encoder produced round-trips exactly.
func FuzzDecode(f *testing.F) {
	for _, src := range [][]byte{
		nil,
		[]byte("a"),
		[]byte("hello hello hello hello hello"),
		bytes.Repeat([]byte{0x00}, 1000),
		bytes.Repeat([]byte("abcd"), 500),
	} {
		enc, err := Encode(src)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	// Hostile shapes: bomb headers announcing huge lengths, truncated
	// varints, copies reaching before the start of the buffer.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F})       // ~4 GiB announced, no body
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80}) // unterminated varint
	f.Add([]byte{0x04, 0x0C, 0x61, 0x61, 0x61})       // literal then nothing
	f.Add([]byte{0x02, 0x01, 0x00})                   // copy with offset beyond start

	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := Decode(data)
		if err == nil {
			if len(out) > MaxBlockSize {
				t.Fatalf("decode produced %d bytes, above MaxBlockSize", len(out))
			}
			// Compress-decompress must reproduce the decoder's output.
			enc, err := Encode(out)
			if err != nil {
				t.Fatal(err)
			}
			rt, err := Decode(enc)
			if err != nil {
				t.Fatalf("re-decode of our own encoding failed: %v", err)
			}
			if !bytes.Equal(rt, out) {
				t.Fatal("round trip mismatch")
			}
		}
		// The capped variant must enforce its bound no matter what.
		capped, cerr := DecodeCapped(data, 64)
		if cerr == nil && len(capped) > 64 {
			t.Fatalf("DecodeCapped(64) returned %d bytes", len(capped))
		}
	})
}

// FuzzRoundTrip drives the encoder with arbitrary plaintext across
// all three hash-table sizes. Invariants: Encode never fails below
// MaxBlockSize, its output fits MaxEncodedLen, announces the input's
// length, and DecodeCapped at exactly that length restores the input.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("0123456789abcde"))               // 15: last literal-only length
	f.Add([]byte("0123456789abcdef"))              // 16: first matched length
	f.Add(bytes.Repeat([]byte("status"), 14))      // ~80 bytes, 2^8 table
	f.Add(bytes.Repeat([]byte{0xAB, 0xCD}, 1<<7))  // 256: top of the 2^8 class
	f.Add(bytes.Repeat([]byte("eth/63 "), 37))     // 259: bottom of the 2^11 class
	f.Add(bytes.Repeat([]byte("0123456789"), 205)) // 2050: bottom of the 2^14 class
	f.Add(bytes.Repeat([]byte{0}, 70000))          // matches beyond the 64 KiB offset window
	f.Fuzz(func(t *testing.T, src []byte) {
		enc, err := Encode(src)
		if err != nil {
			t.Fatalf("encode of %d bytes: %v", len(src), err)
		}
		if len(enc) > MaxEncodedLen(len(src)) {
			t.Fatalf("encoded %d bytes into %d, above MaxEncodedLen %d", len(src), len(enc), MaxEncodedLen(len(src)))
		}
		if n, err := DecodedLen(enc); err != nil || n != len(src) {
			t.Fatalf("DecodedLen = %d, %v; want %d", n, err, len(src))
		}
		dec, err := DecodeCapped(enc, len(src))
		if err != nil {
			t.Fatalf("decode at the exact cap: %v", err)
		}
		if !bytes.Equal(dec, src) {
			t.Fatal("round trip mismatch")
		}
	})
}
