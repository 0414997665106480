package ctr

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"testing"
)

// xorChunked runs src through x in the chunk lengths cuts gives (each
// taken modulo what is left, a zero length included), then the rest.
func xorChunked(x interface{ XORKeyStream(dst, src []byte) }, src, cuts []byte) []byte {
	out := make([]byte, len(src))
	off := 0
	for _, c := range cuts {
		if off == len(src) {
			break
		}
		n := int(c) % (len(src) - off + 1)
		x.XORKeyStream(out[off:off+n], src[off:off+n])
		off += n
	}
	x.XORKeyStream(out[off:], src[off:])
	return out
}

// FuzzStreamVsStdlib holds Stream to cipher.NewCTR over random keys of
// each AES size, IVs (counters about to wrap among them) and chunkings
// of XORKeyStream: the two must produce the same bytes, in place or
// not.
func FuzzStreamVsStdlib(f *testing.F) {
	ff := bytes.Repeat([]byte{0xff}, 16)
	f.Add(make([]byte, 32), make([]byte, 16), []byte("RLPx frame"), []byte{3, 0, 16, 17})
	f.Add(make([]byte, 16), ff, bytes.Repeat([]byte{7}, 100), []byte{15, 1, 33})
	f.Add(bytes.Repeat([]byte{1}, 24), append(make([]byte, 15), 0xfe), bytes.Repeat([]byte{9}, 70), []byte{})
	f.Fuzz(func(t *testing.T, key, iv, src, cuts []byte) {
		switch {
		case len(key) >= 32:
			key = key[:32]
		case len(key) >= 24:
			key = key[:24]
		case len(key) >= 16:
			key = key[:16]
		default:
			return
		}
		if len(iv) < blockSize {
			return
		}
		iv = iv[:blockSize]
		block, err := aes.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, len(src))
		cipher.NewCTR(block, iv).XORKeyStream(want, src)

		var s Stream
		s.Init(block, iv)
		if got := xorChunked(&s, src, cuts); !bytes.Equal(got, want) {
			t.Fatalf("key %x iv %x cuts %v:\n got %x\nwant %x", key, iv, cuts, got, want)
		}
		inPlace := bytes.Clone(src)
		s.Init(block, iv)
		s.XORKeyStream(inPlace, inPlace)
		if !bytes.Equal(inPlace, want) {
			t.Fatalf("in place: got %x, want %x", inPlace, want)
		}
	})
}

func TestInitRejectsWrongSizes(t *testing.T) {
	block, err := aes.NewCipher(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("a short IV was accepted")
		}
	}()
	var s Stream
	s.Init(block, make([]byte, 8))
}

func BenchmarkXORKeyStream(b *testing.B) {
	block, err := aes.NewCipher(make([]byte, 32))
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 256)
	iv := make([]byte, blockSize)
	b.Run("ctr", func(b *testing.B) {
		var s Stream
		s.Init(block, iv)
		b.SetBytes(int64(len(buf)))
		for range b.N {
			s.XORKeyStream(buf, buf)
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		s := cipher.NewCTR(block, iv)
		b.SetBytes(int64(len(buf)))
		for range b.N {
			s.XORKeyStream(buf, buf)
		}
	})
}
