package rlp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/big"
	"reflect"
)

// Decoder is implemented by types that want custom RLP decoding.
type Decoder interface {
	// DecodeRLP reads one value from the stream into the receiver.
	DecodeRLP(*Stream) error
}

var decoderType = reflect.TypeOf((*Decoder)(nil)).Elem()

// DecodeBytes parses RLP data from b into v. Input must contain
// exactly one value and no trailing data.
func DecodeBytes(b []byte, v any) error {
	return decodeBytesInner(b, v, true)
}

// DecodeFirst parses the first RLP value in b into v, ignoring any
// trailing bytes. Protocol code that frames several values itself
// (the discv4 packet codec tolerates trailing data for forward
// compatibility) uses this where DecodeBytes would reject the input.
func DecodeFirst(b []byte, v any) error {
	return decodeBytesInner(b, v, false)
}

func decodeBytesInner(b []byte, v any, exact bool) error {
	if v == nil {
		return errors.New("rlp: Decode target is nil")
	}
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer {
		return fmt.Errorf("rlp: Decode target must be a pointer, got %T", v)
	}
	if rv.IsNil() {
		return errors.New("rlp: Decode target is a nil pointer")
	}
	d := byteDec{in: b}
	if err := d.decode(cachedPlan(rv.Type().Elem()), rv.Elem(), len(b), false); err != nil {
		return err
	}
	if exact && d.pos < len(b) {
		return ErrMoreThanOneValue
	}
	return nil
}

// Stream is a streaming RLP decoder with explicit list handling. A
// Stream is not safe for concurrent use.
type Stream struct {
	r io.Reader

	pos            uint64 // total bytes consumed from r
	remainingBytes uint64 // bytes left in the input, if limited
	limited        bool

	// Header state for the value at the front of the stream.
	kind    Kind
	size    uint64
	kindErr error
	haveHdr bool
	byteval byte // value of a Byte-kind item

	// Stack of enclosing lists; each entry is the absolute stream
	// position at which that list's payload ends.
	stack []uint64
}

// Reset discards all stream state and starts reading from r. The
// list stack's backing array is kept so pooled streams do not regrow
// it on every decode.
func (s *Stream) Reset(r io.Reader, inputLimit uint64) {
	stack := s.stack[:0]
	*s = Stream{r: r, stack: stack}
	if inputLimit > 0 {
		s.limited = true
		s.remainingBytes = inputLimit
	} else if br, ok := r.(*bytes.Reader); ok {
		s.limited = true
		s.remainingBytes = uint64(br.Len())
	} else if _, ok := r.(*bufio.Reader); ok {
		// Unlimited buffered reader: fine as-is.
	}
}

// Kind returns the kind and size of the next value in the stream.
// The size is the payload size and does not include the header.
func (s *Stream) Kind() (Kind, uint64, error) {
	if s.haveHdr {
		return s.kind, s.size, s.kindErr
	}
	// If inside a list and the list is exhausted, signal EOL.
	if len(s.stack) > 0 && s.pos >= s.stack[len(s.stack)-1] {
		return 0, 0, EOL
	}
	kind, size, err := s.readKind()
	s.kind, s.size, s.kindErr, s.haveHdr = kind, size, err, true
	if err == nil && len(s.stack) > 0 {
		// The header bytes already advanced pos; verify the payload
		// fits the enclosing list.
		if s.pos+size > s.stack[len(s.stack)-1] {
			s.kindErr = ErrElemTooLarge
			return s.kind, s.size, s.kindErr
		}
	}
	if err == nil && s.limited && size > s.remainingBytes {
		s.kindErr = ErrValueTooLarge
		return s.kind, s.size, s.kindErr
	}
	return s.kind, s.size, s.kindErr
}

func (s *Stream) readKind() (Kind, uint64, error) {
	b, err := s.readByte()
	if err != nil {
		if len(s.stack) == 0 {
			// At top level, end of input is a clean io.EOF; an
			// exhausted limit means the same thing.
			if err == io.ErrUnexpectedEOF || (err == ErrValueTooLarge && s.remainingBytes == 0) {
				err = io.EOF
			}
		}
		return 0, 0, err
	}
	switch {
	case b < 0x80:
		s.byteval = b
		return Byte, 0, nil
	case b < 0xB8:
		return String, uint64(b - 0x80), nil
	case b < 0xC0:
		size, err := s.readSize(b - 0xB7)
		if err != nil {
			return 0, 0, err
		}
		if size < 56 {
			return 0, 0, ErrCanonSize
		}
		return String, size, nil
	case b < 0xF8:
		return List, uint64(b - 0xC0), nil
	default:
		size, err := s.readSize(b - 0xF7)
		if err != nil {
			return 0, 0, err
		}
		if size < 56 {
			return 0, 0, ErrCanonSize
		}
		return List, size, nil
	}
}

// readSize reads an n-byte big-endian size, enforcing canonical form.
func (s *Stream) readSize(n byte) (uint64, error) {
	if n > 8 {
		return 0, ErrCanonSize
	}
	var buf [8]byte
	if err := s.readFull(buf[8-n:]); err != nil {
		return 0, err
	}
	if buf[8-n] == 0 {
		return 0, ErrCanonSize
	}
	var size uint64
	for _, c := range buf {
		size = size<<8 | uint64(c)
	}
	return size, nil
}

func (s *Stream) readByte() (byte, error) {
	var buf [1]byte
	if err := s.readFull(buf[:]); err != nil {
		return 0, err
	}
	return buf[0], nil
}

func (s *Stream) readFull(buf []byte) error {
	if err := s.willRead(uint64(len(buf))); err != nil {
		return err
	}
	n, err := io.ReadFull(s.r, buf)
	if err == io.EOF {
		if n < len(buf) {
			err = io.ErrUnexpectedEOF
		} else {
			err = nil
		}
	}
	return err
}

// willRead accounts for n upcoming bytes against the list stack and
// the input limit.
func (s *Stream) willRead(n uint64) error {
	s.haveHdr = false
	if len(s.stack) > 0 {
		if s.pos+n > s.stack[len(s.stack)-1] {
			return ErrElemTooLarge
		}
	}
	if s.limited {
		if n > s.remainingBytes {
			return ErrValueTooLarge
		}
		s.remainingBytes -= n
	}
	s.pos += n
	return nil
}

// maxPrealloc caps the upfront allocation for a wire-declared byte
// string on an unlimited stream. A peer's header can claim any length
// up to 2^64; allocating it before a single payload byte arrives lets
// one lying frame exhaust memory. Above the cap the buffer grows only
// as bytes are actually read.
const maxPrealloc = 1 << 16

// readBytesSized returns a buffer holding size payload bytes without
// trusting the wire-declared size: limited streams have already
// checked size against the input limit in Kind, and unlimited streams
// preallocate at most maxPrealloc, growing chunk by chunk as data
// really arrives.
func (s *Stream) readBytesSized(size uint64) ([]byte, error) {
	if s.limited || size <= maxPrealloc {
		// On a limited stream Kind has verified size <= remainingBytes,
		// so the allocation is bounded by the caller-chosen input limit.
		b := make([]byte, size)
		if err := s.readFull(b); err != nil {
			return nil, err
		}
		return b, nil
	}
	buf := make([]byte, 0, maxPrealloc)
	for remaining := size; remaining > 0; {
		n := remaining
		if n > maxPrealloc {
			n = maxPrealloc
		}
		chunk := make([]byte, n)
		if err := s.readFull(chunk); err != nil {
			return nil, err
		}
		buf = append(buf, chunk...)
		remaining -= n
	}
	return buf, nil
}

// Bytes reads a byte string and returns its contents.
func (s *Stream) Bytes() ([]byte, error) {
	kind, size, err := s.Kind()
	if err != nil {
		return nil, err
	}
	switch kind {
	case Byte:
		s.haveHdr = false
		return []byte{s.byteval}, nil
	case String:
		b, err := s.readBytesSized(size)
		if err != nil {
			return nil, err
		}
		if size == 1 && b[0] < 0x80 {
			return nil, ErrCanonSize
		}
		return b, nil
	default:
		return nil, ErrExpectedString
	}
}

// ReadBytes reads a byte string into the provided buffer, which must
// exactly match the value size.
func (s *Stream) ReadBytes(buf []byte) error {
	kind, size, err := s.Kind()
	if err != nil {
		return err
	}
	switch kind {
	case Byte:
		if len(buf) != 1 {
			return fmt.Errorf("rlp: byte string of length 1, want %d", len(buf))
		}
		s.haveHdr = false
		buf[0] = s.byteval
		return nil
	case String:
		if uint64(len(buf)) != size {
			return fmt.Errorf("rlp: byte string of length %d, want %d", size, len(buf))
		}
		if err := s.readFull(buf); err != nil {
			return err
		}
		if size == 1 && buf[0] < 0x80 {
			return ErrCanonSize
		}
		return nil
	default:
		return ErrExpectedString
	}
}

// Raw reads one full value (header included) and returns it verbatim.
func (s *Stream) Raw() ([]byte, error) {
	kind, size, err := s.Kind()
	if err != nil {
		return nil, err
	}
	if kind == Byte {
		s.haveHdr = false
		return []byte{s.byteval}, nil
	}
	// Re-synthesize the header, then copy the payload through.
	head := make([]byte, 0, 9)
	base := byte(0x80)
	if kind == List {
		base = 0xC0
	}
	if size < 56 {
		head = append(head, base+byte(size))
	} else {
		var tmp [8]byte
		n := putInt(tmp[:], size)
		head = append(head, base+55+byte(n))
		head = append(head, tmp[:n]...)
	}
	payload, err := s.readBytesSized(size)
	if err != nil {
		return nil, err
	}
	return append(head, payload...), nil
}

// Uint64 reads an integer value of at most 8 bytes.
func (s *Stream) Uint64() (uint64, error) { return s.uint(64) }

// Uint32 reads an integer value of at most 4 bytes.
func (s *Stream) Uint32() (uint32, error) {
	v, err := s.uint(32)
	return uint32(v), err
}

// Uint16 reads an integer value of at most 2 bytes.
func (s *Stream) Uint16() (uint16, error) {
	v, err := s.uint(16)
	return uint16(v), err
}

// Uint8 reads an integer value of at most 1 byte.
func (s *Stream) Uint8() (uint8, error) {
	v, err := s.uint(8)
	return uint8(v), err
}

func (s *Stream) uint(maxbits int) (uint64, error) {
	kind, size, err := s.Kind()
	if err != nil {
		return 0, err
	}
	switch kind {
	case Byte:
		if s.byteval == 0 {
			return 0, ErrCanonInt
		}
		s.haveHdr = false
		return uint64(s.byteval), nil
	case String:
		if size > uint64(maxbits/8) {
			return 0, ErrUintOverflow
		}
		b := make([]byte, size)
		if err := s.readFull(b); err != nil {
			return 0, err
		}
		v, err := readInt(b)
		if err != nil {
			return 0, err
		}
		if size == 1 && v < 0x80 {
			return 0, ErrCanonSize
		}
		return v, nil
	default:
		return 0, ErrExpectedString
	}
}

// Bool reads a boolean (encoded as integer 0 or 1).
func (s *Stream) Bool() (bool, error) {
	v, err := s.uint(8)
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("rlp: invalid boolean value %d", v)
	}
}

// BigInt reads an arbitrary-size unsigned integer.
func (s *Stream) BigInt() (*big.Int, error) {
	b, err := s.Bytes()
	if err != nil {
		return nil, err
	}
	if len(b) > 0 && b[0] == 0 {
		return nil, ErrCanonInt
	}
	return new(big.Int).SetBytes(b), nil
}

// List begins decoding a list. Subsequent reads return the list
// elements; EOL signals the end. ListEnd must be called to leave the
// list. The returned size is the payload size in bytes.
func (s *Stream) List() (uint64, error) {
	kind, size, err := s.Kind()
	if err != nil {
		return 0, err
	}
	if kind != List {
		return 0, ErrExpectedList
	}
	s.haveHdr = false
	s.stack = append(s.stack, s.pos+size)
	return size, nil
}

// ListEnd leaves the innermost list, discarding nothing; all elements
// must already have been consumed.
func (s *Stream) ListEnd() error {
	if len(s.stack) == 0 {
		return errors.New("rlp: ListEnd called outside of a list")
	}
	if s.pos < s.stack[len(s.stack)-1] {
		return errors.New("rlp: ListEnd with unconsumed list elements")
	}
	s.stack = s.stack[:len(s.stack)-1]
	s.haveHdr = false
	return nil
}

// Skip discards the next value, including all nested content.
func (s *Stream) Skip() error {
	kind, size, err := s.Kind()
	if err != nil {
		return err
	}
	switch kind {
	case Byte:
		s.haveHdr = false
		return nil
	case String:
		return s.discard(size)
	default:
		// Consume the entire list payload as raw bytes.
		s.haveHdr = false
		s.stack = append(s.stack, s.pos+size)
		if err := s.discard(size); err != nil {
			return err
		}
		return s.ListEnd()
	}
}

func (s *Stream) discard(n uint64) error {
	if err := s.willRead(n); err != nil {
		return err
	}
	_, err := io.CopyN(io.Discard, s.r, int64(n))
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// MoreDataInList reports whether the current innermost list has
// unconsumed elements.
func (s *Stream) MoreDataInList() bool {
	return len(s.stack) > 0 && s.pos < s.stack[len(s.stack)-1]
}

// CountValues returns the number of top-level values in b.
func CountValues(b []byte) (int, error) {
	count := 0
	for len(b) > 0 {
		_, tagsize, size, err := readHead(b)
		if err != nil {
			return 0, err
		}
		// Guard tagsize+size against uint64 overflow: a hostile header
		// can announce a 2^64-1 byte value.
		if size > uint64(len(b)) || tagsize > uint64(len(b))-size {
			return 0, ErrValueTooLarge
		}
		b = b[tagsize+size:]
		count++
	}
	return count, nil
}

// SplitList splits b into the payload of a list and any remaining
// trailing bytes.
func SplitList(b []byte) (content, rest []byte, err error) {
	kind, tagsize, size, err := readHead(b)
	if err != nil {
		return nil, nil, err
	}
	if kind != List {
		return nil, nil, ErrExpectedList
	}
	if size > uint64(len(b)) || tagsize > uint64(len(b))-size {
		return nil, nil, ErrValueTooLarge
	}
	return b[tagsize : tagsize+size], b[tagsize+size:], nil
}

// SplitString splits b into the payload of a string and remaining
// trailing bytes.
func SplitString(b []byte) (content, rest []byte, err error) {
	kind, tagsize, size, err := readHead(b)
	if err != nil {
		return nil, nil, err
	}
	if kind == List {
		return nil, nil, ErrExpectedString
	}
	if kind == Byte {
		return b[:1], b[1:], nil
	}
	if size > uint64(len(b)) || tagsize > uint64(len(b))-size {
		return nil, nil, ErrValueTooLarge
	}
	return b[tagsize : tagsize+size], b[tagsize+size:], nil
}

// readHead parses the header at the start of b.
func readHead(b []byte) (kind Kind, tagsize, size uint64, err error) {
	if len(b) == 0 {
		return 0, 0, 0, io.ErrUnexpectedEOF
	}
	tag := b[0]
	switch {
	case tag < 0x80:
		return Byte, 0, 1, nil
	case tag < 0xB8:
		return String, 1, uint64(tag - 0x80), nil
	case tag < 0xC0:
		n := uint64(tag - 0xB7)
		size, err = parseSize(b[1:], n)
		return String, 1 + n, size, err
	case tag < 0xF8:
		return List, 1, uint64(tag - 0xC0), nil
	default:
		n := uint64(tag - 0xF7)
		size, err = parseSize(b[1:], n)
		return List, 1 + n, size, err
	}
}

func parseSize(b []byte, n uint64) (uint64, error) {
	if uint64(len(b)) < n {
		return 0, io.ErrUnexpectedEOF
	}
	if n > 8 {
		return 0, ErrCanonSize
	}
	if b[0] == 0 {
		return 0, ErrCanonSize
	}
	var size uint64
	for i := uint64(0); i < n; i++ {
		size = size<<8 | uint64(b[i])
	}
	if size < 56 {
		return 0, ErrCanonSize
	}
	return size, nil
}
