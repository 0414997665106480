// Package snappy implements the Snappy block compression format.
//
// DEVp2p version 5 (the version clients of the paper's era advertise
// in HELLO) compresses every message payload with Snappy before RLPx
// framing. This is a from-scratch, dependency-free implementation of
// the block format — *not* the framing/stream format — sufficient for
// wire compatibility: a varint-encoded uncompressed length followed
// by literal and copy elements.
//
// Reference: google/snappy format_description.txt.
package snappy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Tag values for the low two bits of each element's first byte.
const (
	tagLiteral = 0x00
	tagCopy1   = 0x01
	tagCopy2   = 0x02
	tagCopy4   = 0x03
)

// MaxBlockSize is the largest input Encode accepts; devp2p caps
// messages well below this.
const MaxBlockSize = 1 << 24

// Decode errors.
var (
	ErrCorrupt  = errors.New("snappy: corrupt input")
	ErrTooLarge = errors.New("snappy: decoded block is too large")
)

// uvarint appends x as an unsigned varint.
func uvarint(dst []byte, x uint64) []byte {
	for x >= 0x80 {
		dst = append(dst, byte(x)|0x80)
		x >>= 7
	}
	return append(dst, byte(x))
}

// readUvarint parses an unsigned varint, returning the value and the
// number of bytes consumed (0 on error).
func readUvarint(src []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, b := range src {
		if i >= 10 {
			return 0, 0
		}
		if b < 0x80 {
			if i == 9 && b > 1 {
				return 0, 0
			}
			return x | uint64(b)<<s, i + 1
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, 0
}

// MaxEncodedLen returns the worst-case output size for an input of
// length n: varint header plus incompressible literals.
func MaxEncodedLen(n int) int {
	return 10 + n + n/6 + 1
}

// Encode compresses src using a greedy hash-table matcher. The output
// decodes with any standard Snappy implementation.
func Encode(src []byte) ([]byte, error) {
	if len(src) > MaxBlockSize {
		return nil, fmt.Errorf("snappy: input of %d bytes exceeds block limit", len(src))
	}
	return AppendEncode(make([]byte, 0, MaxEncodedLen(len(src))), src)
}

// AppendEncode is Encode appending the block to dst, for callers that
// own an output buffer. dst must not overlap src.
//
// The table of recent 4-byte sequences lives on the stack and is sized
// to the input — 2^8, 2^11 or 2^14 slots — because Go zeroes whatever
// is declared, and grows a goroutine's stack to fit it: a devp2p
// STATUS is ~80 bytes and should pay for neither clearing 64 KiB nor
// a 128 KiB stack. A slot holds position+1 so zero means empty.
func AppendEncode(dst, src []byte) ([]byte, error) {
	if len(src) > MaxBlockSize {
		return nil, fmt.Errorf("snappy: input of %d bytes exceeds block limit", len(src))
	}
	dst = uvarint(dst, uint64(len(src)))
	switch {
	case len(src) == 0:
		return dst, nil
	case len(src) < 16:
		// Too short for matching: one literal.
		return emitLiteral(dst, src), nil
	case len(src) <= 1<<8:
		return encodeTable8(dst, src), nil
	case len(src) <= 1<<11:
		return encodeTable11(dst, src), nil
	default:
		return encodeTable14(dst, src), nil
	}
}

// One function per table size, kept out of line so each table is in
// its own stack frame and Encode's frame holds none of them.

//go:noinline
func encodeTable8(dst, src []byte) []byte {
	var table [1 << 8]int32
	return encodeBlock(dst, src, table[:], 8)
}

//go:noinline
func encodeTable11(dst, src []byte) []byte {
	var table [1 << 11]int32
	return encodeBlock(dst, src, table[:], 11)
}

//go:noinline
func encodeTable14(dst, src []byte) []byte {
	var table [1 << 14]int32
	return encodeBlock(dst, src, table[:], 14)
}

// encodeBlock appends the elements for src (at least 16 bytes) to dst,
// matching through the zeroed table of 1<<tableBits slots.
func encodeBlock(dst, src []byte, table []int32, tableBits uint) []byte {
	shift := 32 - tableBits
	var (
		s        = 0 // iterator
		litStart = 0 // start of pending literal run
		sLimit   = len(src) - 4
		// misses since the last match, plus 32: the stride between
		// lookups is misses/32, so 32 misses in a row start skipping
		// bytes and incompressible input (hashes, keys) is crossed in
		// ever longer steps — the reference implementation's heuristic.
		skip = 32
	)
	for s < sLimit {
		cur := binary.LittleEndian.Uint32(src[s:])
		h := (cur * 0x1e35a7bd) >> shift
		cand := int(table[h]) - 1
		table[h] = int32(s + 1)
		if cand >= 0 && s-cand <= 0xFFFF && binary.LittleEndian.Uint32(src[cand:]) == cur {
			// Emit pending literals, then extend the match.
			if s > litStart {
				dst = emitLiteral(dst, src[litStart:s])
			}
			base := s
			s += 4
			m := cand + 4
			for s < len(src) && src[s] == src[m] {
				s++
				m++
			}
			dst = emitCopy(dst, base-cand, s-base)
			litStart = s
			skip = 32
			continue
		}
		s += skip >> 5
		skip++
	}
	if litStart < len(src) {
		dst = emitLiteral(dst, src[litStart:])
	}
	return dst
}

// emitLiteral appends a literal element.
func emitLiteral(dst, lit []byte) []byte {
	n := len(lit) - 1
	switch {
	case n < 60:
		dst = append(dst, byte(n)<<2|tagLiteral)
	case n < 1<<8:
		dst = append(dst, 60<<2|tagLiteral, byte(n))
	case n < 1<<16:
		dst = append(dst, 61<<2|tagLiteral, byte(n), byte(n>>8))
	case n < 1<<24:
		dst = append(dst, 62<<2|tagLiteral, byte(n), byte(n>>8), byte(n>>16))
	default:
		dst = append(dst, 63<<2|tagLiteral, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	}
	return append(dst, lit...)
}

// emitCopy appends copy elements for a match of the given offset and
// length.
func emitCopy(dst []byte, offset, length int) []byte {
	// Long matches: emit 64-byte copy-2 chunks.
	for length >= 68 {
		dst = append(dst, 63<<2|tagCopy2, byte(offset), byte(offset>>8))
		length -= 64
	}
	if length > 64 {
		// Leave at least 4 for the final copy.
		dst = append(dst, 59<<2|tagCopy2, byte(offset), byte(offset>>8))
		length -= 60
	}
	if length >= 12 || offset >= 2048 || length < 4 {
		dst = append(dst, byte(length-1)<<2|tagCopy2, byte(offset), byte(offset>>8))
		return dst
	}
	// Copy-1: 4..11 length, offset < 2048.
	dst = append(dst, byte(offset>>8)<<5|byte(length-4)<<2|tagCopy1, byte(offset))
	return dst
}

// DecodedLen returns the uncompressed length announced by a block.
func DecodedLen(src []byte) (int, error) {
	n, consumed := readUvarint(src)
	if consumed == 0 {
		return 0, ErrCorrupt
	}
	if n > MaxBlockSize {
		return 0, ErrTooLarge
	}
	return int(n), nil
}

// Decode decompresses a Snappy block, accepting any announced length
// up to MaxBlockSize.
func Decode(src []byte) ([]byte, error) {
	return DecodeCapped(src, MaxBlockSize)
}

// DecodeCapped decompresses a Snappy block whose announced
// uncompressed length is at most maxLen. The check runs before any
// allocation, so a "snappy bomb" — a few bytes advertising a huge
// decoded length — fails fast without reserving the claimed space.
// Transports should pass their own message-size limit here.
func DecodeCapped(src []byte, maxLen int) ([]byte, error) {
	return AppendDecodeCapped(nil, src, maxLen)
}

// AppendDecodeCapped is DecodeCapped appending the decoded block to
// dst, for callers that own an output buffer: the decode twin of
// AppendEncode. dst grows at most once, by the checked announced
// length, and must not overlap src. On error the result is nil.
func AppendDecodeCapped(dst, src []byte, maxLen int) ([]byte, error) {
	dLen64, consumed := readUvarint(src)
	if consumed == 0 {
		return nil, ErrCorrupt
	}
	if maxLen > MaxBlockSize {
		maxLen = MaxBlockSize
	}
	if dLen64 > uint64(maxLen) {
		return nil, ErrTooLarge
	}
	src = src[consumed:]
	// Copies reach back into the block alone, never into dst's prefix.
	base := len(dst)
	end := base + int(dLen64)
	dst = slices.Grow(dst, int(dLen64))

	for len(src) > 0 {
		tag := src[0]
		switch tag & 0x03 {
		case tagLiteral:
			n := int(tag >> 2)
			var hdr int
			switch {
			case n < 60:
				hdr = 1
			case n == 60:
				if len(src) < 2 {
					return nil, ErrCorrupt
				}
				n = int(src[1])
				hdr = 2
			case n == 61:
				if len(src) < 3 {
					return nil, ErrCorrupt
				}
				n = int(src[1]) | int(src[2])<<8
				hdr = 3
			case n == 62:
				if len(src) < 4 {
					return nil, ErrCorrupt
				}
				n = int(src[1]) | int(src[2])<<8 | int(src[3])<<16
				hdr = 4
			default:
				if len(src) < 5 {
					return nil, ErrCorrupt
				}
				n = int(src[1]) | int(src[2])<<8 | int(src[3])<<16 | int(src[4])<<24
				hdr = 5
			}
			n++ // stored as length-1
			if n < 0 || len(src) < hdr+n {
				return nil, ErrCorrupt
			}
			dst = append(dst, src[hdr:hdr+n]...)
			src = src[hdr+n:]

		case tagCopy1:
			if len(src) < 2 {
				return nil, ErrCorrupt
			}
			length := 4 + int(tag>>2)&0x07
			offset := int(tag&0xE0)<<3 | int(src[1])
			src = src[2:]
			var err error
			dst, err = copyFrom(dst, base, offset, length)
			if err != nil {
				return nil, err
			}

		case tagCopy2:
			if len(src) < 3 {
				return nil, ErrCorrupt
			}
			length := 1 + int(tag>>2)
			offset := int(src[1]) | int(src[2])<<8
			src = src[3:]
			var err error
			dst, err = copyFrom(dst, base, offset, length)
			if err != nil {
				return nil, err
			}

		case tagCopy4:
			if len(src) < 5 {
				return nil, ErrCorrupt
			}
			length := 1 + int(tag>>2)
			offset := int(src[1]) | int(src[2])<<8 | int(src[3])<<16 | int(src[4])<<24
			src = src[5:]
			var err error
			dst, err = copyFrom(dst, base, offset, length)
			if err != nil {
				return nil, err
			}
		}
		if len(dst) > end {
			return nil, ErrCorrupt
		}
	}
	if len(dst) != end {
		return nil, ErrCorrupt
	}
	return dst, nil
}

// copyFrom appends length bytes starting offset back from the end of
// dst, allowing overlapping (run-length) copies. The block being
// decoded starts at dst[base].
func copyFrom(dst []byte, base, offset, length int) ([]byte, error) {
	if offset <= 0 || offset > len(dst)-base || length <= 0 {
		return nil, ErrCorrupt
	}
	pos := len(dst) - offset
	for i := 0; i < length; i++ {
		dst = append(dst, dst[pos+i])
	}
	return dst, nil
}
