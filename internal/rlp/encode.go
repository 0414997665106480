package rlp

import (
	"io"
	"reflect"
)

// Encoder is implemented by types that want custom RLP encoding.
type Encoder interface {
	// EncodeRLP writes the RLP encoding of the receiver to w.
	EncodeRLP(w io.Writer) error
}

var encoderType = reflect.TypeOf((*Encoder)(nil)).Elem()

// Encode writes the RLP encoding of v to w.
func Encode(w io.Writer, v any) error {
	buf := getEncBuffer()
	defer putEncBuffer(buf)
	if err := buf.encodeValue(reflect.ValueOf(v)); err != nil {
		return err
	}
	_, err := w.Write(buf.finish())
	return err
}

// EncodeToBytes returns the RLP encoding of v.
func EncodeToBytes(v any) ([]byte, error) {
	buf := getEncBuffer()
	defer putEncBuffer(buf)
	if err := buf.encodeValue(reflect.ValueOf(v)); err != nil {
		return nil, err
	}
	return buf.finish(), nil
}

// EncodeAppend appends the RLP encoding of v to dst and returns the
// extended slice. The encode runs through a pooled buffer, so on the
// hot wire path the only allocation is growth of dst itself — callers
// that recycle dst (rlpx frame scratch, discv4 datagrams) encode with
// zero allocations.
func EncodeAppend(dst []byte, v any) ([]byte, error) {
	buf := getEncBuffer()
	defer putEncBuffer(buf)
	if err := buf.encodeValue(reflect.ValueOf(v)); err != nil {
		return dst, err
	}
	return buf.appendTo(dst), nil
}

// AppendUint appends the RLP encoding of i to b. It is a fast path
// for protocol code that frames integer message codes.
func AppendUint(b []byte, i uint64) []byte {
	if i == 0 {
		return append(b, 0x80)
	}
	if i < 0x80 {
		return append(b, byte(i))
	}
	var tmp [9]byte
	n := putInt(tmp[1:], i)
	tmp[0] = 0x80 + byte(n)
	return append(b, tmp[:n+1]...)
}

// IntSize returns the encoded size of the integer i, including the
// RLP string header.
func IntSize(i uint64) int {
	if i < 0x80 {
		return 1 // includes zero, which encodes as the 1-byte 0x80
	}
	return 1 + intSize(i)
}

// listHead marks a pending list whose payload length is unknown until
// the list is closed.
type listHead struct {
	offset int // index into encBuffer.str where the list payload starts
	size   int // total size of encoded payload, including nested headers
}

// encBuffer accumulates string data and pending list headers; headers
// are materialized in finish once all payload sizes are known. This
// is the single-pass strategy used by the canonical implementation.
type encBuffer struct {
	str    []byte     // string data, excluding list headers
	lheads []listHead // all list headers, in order of appearance
	lhsize int        // sum of encoded sizes of all list headers
	depth  int        // current nesting depth during encoding
}

// reset prepares a recycled buffer for a new encode, keeping the
// backing arrays.
func (buf *encBuffer) reset() {
	buf.str = buf.str[:0]
	buf.lheads = buf.lheads[:0]
	buf.lhsize = 0
	buf.depth = 0
}

// Write implements io.Writer: custom Encoder implementations write
// their fully-encoded bytes straight into the buffer. (On error the
// enclosing encode discards the whole buffer, so partial writes are
// never observable.)
func (buf *encBuffer) Write(p []byte) (int, error) {
	buf.str = append(buf.str, p...)
	return len(p), nil
}

func (buf *encBuffer) size() int { return len(buf.str) + buf.lhsize }

// headerSize returns the encoded size of a string/list header for a
// payload of the given size.
func headerSize(payload int) int {
	if payload < 56 {
		return 1
	}
	return 1 + intSize(uint64(payload))
}

func (buf *encBuffer) writeByte(b byte) { buf.str = append(buf.str, b) }

func (buf *encBuffer) write(b []byte) { buf.str = append(buf.str, b...) }

// writeString writes an RLP string header followed by the payload.
func (buf *encBuffer) writeString(b []byte) {
	if len(b) == 1 && b[0] < 0x80 {
		buf.writeByte(b[0])
		return
	}
	buf.writeHead(0x80, len(b))
	buf.write(b)
}

// writeStr is writeString for string values, appending the payload
// directly without a []byte conversion.
func (buf *encBuffer) writeStr(s string) {
	if len(s) == 1 && s[0] < 0x80 {
		buf.writeByte(s[0])
		return
	}
	buf.writeHead(0x80, len(s))
	buf.str = append(buf.str, s...)
}

// writeHead emits a header with the given base tag (0x80 strings,
// 0xC0 lists) for a payload of the given size.
func (buf *encBuffer) writeHead(base byte, size int) {
	if size < 56 {
		buf.writeByte(base + byte(size))
		return
	}
	var tmp [9]byte
	n := putInt(tmp[1:], uint64(size))
	tmp[0] = base + 55 + byte(n)
	buf.write(tmp[:n+1])
}

func (buf *encBuffer) writeUint(i uint64) {
	if i < 0x80 {
		// Single byte below 0x80 encodes as itself; zero encodes as
		// the empty string 0x80.
		if i == 0 {
			buf.writeByte(0x80)
		} else {
			buf.writeByte(byte(i))
		}
		return
	}
	var tmp [8]byte
	n := putInt(tmp[:], i)
	buf.writeHead(0x80, n)
	buf.write(tmp[:n])
}

// listStart opens a new list and returns its index for listEnd.
func (buf *encBuffer) listStart() int {
	buf.lheads = append(buf.lheads, listHead{offset: len(buf.str), size: buf.lhsize})
	return len(buf.lheads) - 1
}

// listEnd closes the list opened at index idx, computing its payload
// size (string bytes plus nested header bytes added since listStart).
func (buf *encBuffer) listEnd(idx int) {
	h := &buf.lheads[idx]
	h.size = buf.size() - h.offset - h.size
	buf.lhsize += headerSize(h.size)
}

// finish interleaves the accumulated string data with the
// materialized list headers.
func (buf *encBuffer) finish() []byte {
	// An egress buffer, sized by our own encoder's accounting, not peer input.
	out := make([]byte, 0, buf.size())
	return buf.appendTo(out)
}

// appendTo appends the finished encoding (string data interleaved
// with materialized list headers) to dst.
func (buf *encBuffer) appendTo(dst []byte) []byte {
	strpos := 0
	for _, h := range buf.lheads {
		dst = append(dst, buf.str[strpos:h.offset]...)
		strpos = h.offset
		if h.size < 56 {
			dst = append(dst, 0xC0+byte(h.size))
		} else {
			var tmp [9]byte
			n := putInt(tmp[1:], uint64(h.size))
			tmp[0] = 0xC0 + 55 + byte(n)
			dst = append(dst, tmp[:n+1]...)
		}
	}
	return append(dst, buf.str[strpos:]...)
}

const maxEncodeDepth = 1024
