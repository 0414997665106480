package rlp

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"unsafe"
)

// Decoder is implemented by every type with a wire decoding.
type Decoder interface {
	// DecodeRLP reads one value from s into the receiver. It must not
	// retain s after it returns.
	DecodeRLP(s *Stream) error
}

// DecodeBytes parses RLP data from b into v. Input must contain
// exactly one value and no trailing data. v is a Decoder, a *uint64 or
// *[]uint64 (DISCONNECT's payloads), or a pointer to a slice of
// pointers to a type registered with RegisterList; any other value is
// an error.
func DecodeBytes(b []byte, v any) error { return decode(b, v, true) }

// DecodeFirst parses the first RLP value in b into v, ignoring any
// trailing bytes. Protocol code whose payloads carry padding after the
// value (EIP-8 handshake bodies, discv4 packets) uses it where
// DecodeBytes would reject the input.
func DecodeFirst(b []byte, v any) error { return decode(b, v, false) }

// Scan runs fn on a Stream over b, then requires, as DecodeBytes
// does, that nothing follow what fn read: the front door for code that
// checks a message in place instead of decoding it into a value. fn
// must not retain the Stream, and what its View methods return is
// valid only as long as b is.
func Scan(b []byte, fn func(*Stream) error) error {
	s := Stream{in: b}
	if err := fn(noescape(&s)); err != nil {
		return err
	}
	if s.pos < len(b) {
		return ErrMoreThanOneValue
	}
	return nil
}

var errNilTarget = errors.New("rlp: Decode target is a nil pointer")

func decode(b []byte, v any, exact bool) error {
	s := Stream{in: b}
	var err error
	switch v := v.(type) {
	case Decoder:
		err = v.DecodeRLP(noescape(&s))
	case *uint64:
		if v == nil {
			return errNilTarget
		}
		*v, err = s.Uint64()
	case *[]uint64:
		if v == nil {
			return errNilTarget
		}
		*v, err = s.uint64s()
	default:
		_, err = codeList(nil, noescape(&s), v)
	}
	if err == nil && exact && s.pos < len(b) {
		return ErrMoreThanOneValue
	}
	return err
}

// noescape hides p from escape analysis. A Stream handed to a Decoder
// through the interface would otherwise be moved to the heap: one
// allocation per decoded message, on a path whose only other
// allocations are the decoded values themselves. Sound because a
// DecodeRLP does not retain its Stream, and the Stream hands out only
// copies of its input.
func noescape(p *Stream) *Stream {
	x := uintptr(unsafe.Pointer(p))
	return *(**Stream)(unsafe.Pointer(&x))
}

// listCodecs are the registered list types, written only by init
// functions. Each codes v and reports true if v is its []*T or *[]*T.
var listCodecs []func(dst []byte, s *Stream, v any) ([]byte, bool, error)

// RegisterList lets the front doors code a []*T, or a pointer to one
// (a BLOCK_HEADERS body, []*chain.Header), with appendList and
// decodePointers. T's package calls it from an init function.
func RegisterList[T any, P interface {
	*T
	Encoder
	Decoder
}]() {
	listCodecs = append(listCodecs, func(dst []byte, s *Stream, v any) ([]byte, bool, error) {
		if l, ok := v.([]P); ok && s == nil {
			return appendList(dst, l), true, nil
		}
		l, ok := v.(*[]P)
		switch {
		case !ok || l == nil:
			return dst, false, nil
		case s == nil:
			return appendList(dst, *l), true, nil
		}
		var err error
		*l, err = decodePointers[T, P](s)
		return nil, true, err
	})
}

// codeList codes v with its registered list codec: with s nil it
// appends v's encoding to dst, otherwise it decodes a list from s.
func codeList(dst []byte, s *Stream, v any) ([]byte, error) {
	for _, code := range listCodecs {
		if out, ok, err := code(dst, s, v); ok {
			return out, err
		}
	}
	return dst, fmt.Errorf("rlp: cannot code %T", v)
}

// maxDepth bounds list nesting. The deepest wire type (a NEIGHBORS
// packet's node records) nests three lists.
const maxDepth = 32

// Stream is an RLP decoder over a byte slice with explicit list
// handling. Every declared size is checked against the input that is
// left before anything is read or allocated, and every value it
// returns but a View's is a copy: nothing decoded aliases the input.
// A Stream is not safe for concurrent use.
type Stream struct {
	in  []byte
	pos int

	// The header of the value at the front, once Kind has read it;
	// pos is then past the header (past the value, for a Byte).
	haveHdr  bool
	kind     Kind
	size     uint64
	kindErr  error
	byteval  byte
	hdrStart int

	depth int
	ends  [maxDepth]int // payload end of each enclosing list
}

// Kind returns the kind and size of the next value in the stream.
// The size is the payload size and does not include the header.
func (s *Stream) Kind() (Kind, uint64, error) {
	if s.haveHdr {
		return s.kind, s.size, s.kindErr
	}
	end := len(s.in)
	if s.depth > 0 {
		end = s.ends[s.depth-1]
		if s.pos >= end {
			return 0, 0, EOL
		}
	} else if s.pos >= end {
		return 0, 0, io.EOF
	}
	s.haveHdr, s.hdrStart = true, s.pos
	s.kind, s.size, s.kindErr = s.readHeader(end)
	return s.kind, s.size, s.kindErr
}

// readHeader parses the header at pos, which is before end.
func (s *Stream) readHeader(end int) (Kind, uint64, error) {
	tag := s.in[s.pos]
	s.pos++
	var (
		kind Kind
		size uint64
		err  error
	)
	switch {
	case tag < 0x80:
		s.byteval = tag
		return Byte, 0, nil
	case tag < 0xB8:
		kind, size = String, uint64(tag-0x80)
	case tag < 0xC0:
		kind = String
		size, err = s.readSize(int(tag-0xB7), end)
	case tag < 0xF8:
		kind, size = List, uint64(tag-0xC0)
	default:
		kind = List
		size, err = s.readSize(int(tag-0xF7), end)
	}
	if err != nil {
		return 0, 0, err
	}
	// The payload must fit the enclosing list, then the input. A size
	// so large that pos+size wraps skips the first check and fails the
	// second.
	if pe := uint64(s.pos) + size; s.depth > 0 && pe >= uint64(s.pos) && pe > uint64(end) {
		return kind, size, ErrElemTooLarge
	}
	if size > uint64(len(s.in)-s.pos) {
		return kind, size, ErrValueTooLarge
	}
	return kind, size, nil
}

// readSize reads an n-byte big-endian size, enforcing canonical form.
func (s *Stream) readSize(n, end int) (uint64, error) {
	if n > end-s.pos {
		if s.depth > 0 {
			return 0, ErrElemTooLarge
		}
		return 0, ErrValueTooLarge
	}
	if s.in[s.pos] == 0 {
		return 0, ErrCanonSize
	}
	var size uint64
	for _, c := range s.in[s.pos : s.pos+n] {
		size = size<<8 | uint64(c)
	}
	s.pos += n
	if size < 56 {
		return 0, ErrCanonSize
	}
	return size, nil
}

// take consumes the payload of the string whose header Kind has read.
func (s *Stream) take(size uint64) []byte {
	s.haveHdr = false
	b := s.in[s.pos : s.pos+int(size)]
	s.pos += int(size)
	return b
}

// str consumes a byte string and returns its payload in place.
func (s *Stream) str() ([]byte, error) {
	kind, size, err := s.Kind()
	if err != nil {
		return nil, err
	}
	switch kind {
	case Byte:
		s.haveHdr = false
		return s.in[s.pos-1 : s.pos], nil
	case String:
		b := s.take(size)
		if size == 1 && b[0] < 0x80 {
			return nil, ErrCanonSize
		}
		return b, nil
	default:
		return nil, ErrExpectedString
	}
}

// Bytes reads a byte string and returns a copy of its contents.
func (s *Stream) Bytes() ([]byte, error) {
	b, err := s.str()
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// BytesView is Bytes without the copy: the contents in place, valid
// only as long as the Stream's input is.
func (s *Stream) BytesView() ([]byte, error) { return s.str() }

// Text reads a byte string as a Go string.
func (s *Stream) Text() (string, error) {
	b, err := s.str()
	return string(b), err
}

// ReadBytes reads a byte string into buf, whose length must match the
// value's.
func (s *Stream) ReadBytes(buf []byte) error {
	kind, size, err := s.Kind()
	if err != nil {
		return err
	}
	switch kind {
	case List:
		return ErrExpectedString
	case Byte:
		size = 1
	}
	if uint64(len(buf)) != size {
		return fmt.Errorf("rlp: byte string of length %d, want %d", size, len(buf))
	}
	b, err := s.str()
	copy(buf, b)
	return err
}

// Raw reads one full value (header included) and returns a copy.
func (s *Stream) Raw() ([]byte, error) {
	kind, size, err := s.Kind()
	if err != nil {
		return nil, err
	}
	s.haveHdr = false
	if kind != Byte {
		s.pos += int(size)
	}
	out := make([]byte, s.pos-s.hdrStart)
	copy(out, s.in[s.hdrStart:s.pos])
	return out, nil
}

// Rest reads the values left in the current list verbatim: the tail a
// newer peer appends to a known message. It is nil when there are
// none.
func (s *Stream) Rest() ([]RawValue, error) {
	var rest []RawValue
	for s.MoreDataInList() {
		r, err := s.Raw()
		if err != nil {
			return nil, err
		}
		rest = append(rest, r)
	}
	return rest, nil
}

// SkipRest discards the values left in the current list, refusing
// what Rest refuses.
func (s *Stream) SkipRest() error {
	for s.MoreDataInList() {
		if err := s.Skip(); err != nil {
			return err
		}
	}
	return nil
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
		b := s.take(size)
		if len(b) > 0 && b[0] == 0 {
			return 0, ErrCanonInt
		}
		var v uint64
		for _, c := range b {
			v = v<<8 | uint64(c)
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
	b, err := s.BigIntView()
	if err != nil {
		return nil, err
	}
	return new(big.Int).SetBytes(b), nil
}

// BigIntView is BigInt without the big.Int: the integer's canonical
// big-endian bytes in place, valid only as long as the Stream's input
// is.
func (s *Stream) BigIntView() ([]byte, error) {
	b, err := s.str()
	if err != nil {
		return nil, err
	}
	if len(b) > 0 && b[0] == 0 {
		return nil, ErrCanonInt
	}
	return b, nil
}

// DecodeList reads a list of self-coding values into a slice
// allocated once, at its final length.
func DecodeList[T any, P interface {
	*T
	Decoder
}](s *Stream) ([]T, error) {
	n, err := s.openList()
	if err != nil {
		return nil, err
	}
	list := make([]T, n)
	for i := range list {
		if err := P(&list[i]).DecodeRLP(s); err != nil {
			return nil, err
		}
	}
	return list, s.ListEnd()
}

// decodePointers reads a list of self-coding values into a slice of
// pointers to them, each allocated as it is read.
func decodePointers[T any, P interface {
	*T
	Decoder
}](s *Stream) ([]P, error) {
	n, err := s.openList()
	if err != nil {
		return nil, err
	}
	list := make([]P, n)
	for i := range list {
		list[i] = new(T)
		if err := list[i].DecodeRLP(s); err != nil {
			return nil, err
		}
	}
	return list, s.ListEnd()
}

// uint64s reads a list of integers.
func (s *Stream) uint64s() ([]uint64, error) {
	if _, err := s.List(); err != nil {
		return nil, err
	}
	var list []uint64
	for s.MoreDataInList() {
		u, err := s.Uint64()
		if err != nil {
			return nil, err
		}
		list = append(list, u)
	}
	return list, s.ListEnd()
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
	if s.depth == maxDepth {
		return 0, fmt.Errorf("rlp: lists nested more than %d deep", maxDepth)
	}
	s.haveHdr = false
	s.ends[s.depth] = s.pos + int(size)
	s.depth++
	return size, nil
}

// ListEnd leaves the innermost list, whose elements must all have been
// consumed.
func (s *Stream) ListEnd() error {
	if s.depth == 0 {
		return errors.New("rlp: ListEnd called outside of a list")
	}
	if s.pos < s.ends[s.depth-1] {
		return errors.New("rlp: ListEnd with unconsumed list elements")
	}
	s.depth--
	s.haveHdr = false
	return nil
}

// Skip discards the next value, including all nested content.
func (s *Stream) Skip() error {
	kind, size, err := s.Kind()
	if err != nil {
		return err
	}
	s.haveHdr = false
	if kind != Byte {
		s.pos += int(size)
	}
	return nil
}

// MoreDataInList reports whether the current innermost list has
// unconsumed elements.
func (s *Stream) MoreDataInList() bool {
	return s.depth > 0 && s.pos < s.ends[s.depth-1]
}

// openList enters a list and counts its values.
func (s *Stream) openList() (int, error) {
	if _, err := s.List(); err != nil {
		return 0, err
	}
	return s.count()
}

// count returns the number of values left in the current list,
// without consuming them.
func (s *Stream) count() (int, error) {
	c := Stream{in: s.in[:s.ends[s.depth-1]], pos: s.pos}
	n := 0
	for ; c.pos < len(c.in); n++ {
		if err := c.Skip(); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// SplitString splits b into the payload of a string and the bytes
// that follow it.
func SplitString(b []byte) (content, rest []byte, err error) {
	s := Stream{in: b}
	kind, size, err := s.Kind()
	switch {
	case err != nil:
		return nil, nil, err
	case kind == List:
		return nil, nil, ErrExpectedString
	case kind == Byte:
		return b[:1], b[1:], nil
	}
	end := s.pos + int(size)
	return b[s.pos:end], b[end:], nil
}
