// Package ctr is crypto/cipher.NewCTR's counter mode held by value, so
// a stream costs no allocation per key. Calling the cipher per block
// runs at a fraction of the standard library's eight-block assembly,
// which RLPx's few-hundred-byte frames do not notice.
package ctr

import (
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"unsafe"
)

// blockSize is the block size of the ciphers a Stream runs over, and
// batch how many counter blocks one refill encrypts at most.
const (
	blockSize = 16
	batch     = 8
)

// Stream is one counter-mode keystream, keyed by Init. It is not safe
// for concurrent use.
type Stream struct {
	block     cipher.Block
	ctr       [blockSize]byte         // the next counter block
	ks        [batch * blockSize]byte // ks[used:end] is unused keystream
	used, end int
}

// Init keys s with block, whose block size must be blockSize, and
// starts its counter at iv, which must be blockSize bytes long.
func (s *Stream) Init(block cipher.Block, iv []byte) {
	if block.BlockSize() != blockSize || len(iv) != blockSize {
		panic("ctr: block size and IV length must be 16")
	}
	s.block = block
	copy(s.ctr[:], iv)
	s.used, s.end = 0, 0
}

// XORKeyStream XORs src with the keystream into dst, as cipher.Stream
// does; dst and src may overlap exactly.
func (s *Stream) XORKeyStream(dst, src []byte) {
	if len(dst) < len(src) {
		panic("ctr: output smaller than input")
	}
	for len(src) > 0 {
		if s.used == s.end {
			s.refill(len(src))
		}
		n := subtle.XORBytes(dst, src, s.ks[s.used:s.end])
		dst, src = dst[n:], src[n:]
		s.used += n
	}
}

// refill encrypts the counter blocks need more bytes take, up to
// batch, stepping the 128-bit big-endian counter. The cipher sees the
// arrays through noescape, or the interface call would move every
// Stream to the heap; sound because crypto/aes, the cipher every
// caller keys, keeps neither argument of Encrypt.
func (s *Stream) refill(need int) {
	n := min((need+blockSize-1)/blockSize, batch)
	ks, ctr := noescape(&s.ks), noescape(&s.ctr)
	for i := 0; i < n; i++ {
		s.block.Encrypt(ks[i*blockSize:(i+1)*blockSize], ctr[:])
		lo := binary.BigEndian.Uint64(ctr[8:]) + 1
		binary.BigEndian.PutUint64(ctr[8:], lo)
		if lo == 0 {
			binary.BigEndian.PutUint64(ctr[:8], binary.BigEndian.Uint64(ctr[:8])+1)
		}
	}
	s.used, s.end = 0, n*blockSize
}

// noescape hides p from escape analysis.
func noescape[A any](p *A) *A {
	x := uintptr(unsafe.Pointer(p))
	return *(**A)(unsafe.Pointer(&x))
}
