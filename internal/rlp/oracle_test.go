package rlp

import (
	"errors"
	"fmt"
	"math/big"
	"reflect"
)

// The reference codec: a reflection walker over struct fields. It
// lives in a test file so no binary links it. FuzzWireVsOracle and TestWireMatchesOracle
// (wire_test.go, through export_test.go) hold every wire type's
// AppendRLP and DecodeRLP to it: the same bytes, the same decoded
// values and the same accept/reject. Its encoder is independent of the
// Append helpers (list headers are placed once the whole value is
// written); its decoder walks the Stream.
//
// A type in oracleLeaves (eth.HashOrNumber, whose shape depends on its
// value) codes itself. Every other type is walked field by field,
// whatever methods it has: a struct is the list of its exported fields
// in order, and a last field tagged `rlp:"tail"` takes the list's
// remaining values. As in geth, a pointer decodes by allocating, so an
// empty value never yields a nil pointer.
var oracleLeaves = map[reflect.Type]bool{}

var (
	bigIntType   = reflect.TypeOf(new(big.Int))
	rawValueType = reflect.TypeOf(RawValue{})
)

// oracleEncodeToBytes is EncodeToBytes on the reflection walker.
func oracleEncodeToBytes(v any) ([]byte, error) {
	buf := new(encBuffer)
	if err := buf.encode(reflect.ValueOf(v)); err != nil {
		return nil, err
	}
	return buf.finish(), nil
}

// oracleDecodeBytes is DecodeBytes on the reflection walker.
func oracleDecodeBytes(b []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("rlp: oracle decode target must be a non-nil pointer, got %T", v)
	}
	s := &Stream{in: b}
	if err := s.decodeValue(rv.Elem()); err != nil {
		return err
	}
	if s.pos < len(b) {
		return ErrMoreThanOneValue
	}
	return nil
}

// listHead marks a pending list whose payload length is unknown until
// the list is closed.
type listHead struct {
	offset int // index into encBuffer.str where the list payload starts
	size   int // total size of encoded payload, including nested headers
}

// encBuffer accumulates string data and pending list headers; headers
// are materialized in finish once all payload sizes are known.
type encBuffer struct {
	str    []byte     // string data, excluding list headers
	lheads []listHead // all list headers, in order of appearance
	lhsize int        // sum of encoded sizes of all list headers
}

func (buf *encBuffer) size() int { return len(buf.str) + buf.lhsize }

func headerSize(payload int) int {
	if payload < 56 {
		return 1
	}
	return 1 + intSize(uint64(payload))
}

// putBigEndian writes i big-endian with no leading zeros into b and
// returns the number of bytes written.
func putBigEndian(b []byte, i uint64) int {
	n := 0
	for x := i; x > 0; x >>= 8 {
		n++
	}
	for j := n - 1; j >= 0; j-- {
		b[j] = byte(i)
		i >>= 8
	}
	return n
}

func (buf *encBuffer) writeHead(base byte, size int) {
	if size < 56 {
		buf.str = append(buf.str, base+byte(size))
		return
	}
	var tmp [9]byte
	n := putBigEndian(tmp[1:], uint64(size))
	tmp[0] = base + 55 + byte(n)
	buf.str = append(buf.str, tmp[:n+1]...)
}

func (buf *encBuffer) writeString(b []byte) {
	if len(b) == 1 && b[0] < 0x80 {
		buf.str = append(buf.str, b[0])
		return
	}
	buf.writeHead(0x80, len(b))
	buf.str = append(buf.str, b...)
}

func (buf *encBuffer) writeUint(i uint64) {
	var tmp [8]byte
	buf.writeString(tmp[:putBigEndian(tmp[:], i)])
}

func (buf *encBuffer) listStart() int {
	buf.lheads = append(buf.lheads, listHead{offset: len(buf.str), size: buf.lhsize})
	return len(buf.lheads) - 1
}

func (buf *encBuffer) listEnd(idx int) {
	h := &buf.lheads[idx]
	h.size = buf.size() - h.offset - h.size
	buf.lhsize += headerSize(h.size)
}

// finish interleaves the string data with the materialized list
// headers.
func (buf *encBuffer) finish() []byte {
	out := make([]byte, 0, buf.size())
	strpos := 0
	for _, h := range buf.lheads {
		out = append(out, buf.str[strpos:h.offset]...)
		strpos = h.offset
		var tmp [9]byte
		if h.size < 56 {
			out = append(out, 0xC0+byte(h.size))
		} else {
			n := putBigEndian(tmp[1:], uint64(h.size))
			tmp[0] = 0xC0 + 55 + byte(n)
			out = append(out, tmp[:n+1]...)
		}
	}
	return append(out, buf.str[strpos:]...)
}

func (buf *encBuffer) encode(v reflect.Value) error {
	if !v.IsValid() {
		return errors.New("rlp: oracle cannot encode nil")
	}
	typ := v.Type()
	switch {
	case typ == rawValueType:
		buf.str = append(buf.str, v.Bytes()...)
		return nil
	case oracleLeaves[typ]:
		cp := reflect.New(typ)
		cp.Elem().Set(v)
		buf.str = cp.Interface().(Encoder).AppendRLP(buf.str)
		return nil
	case typ == bigIntType:
		i := v.Interface().(*big.Int)
		if i == nil {
			buf.writeString(nil)
			return nil
		}
		if i.Sign() < 0 {
			return errors.New("rlp: oracle cannot encode negative big.Int")
		}
		buf.writeString(i.Bytes())
		return nil
	}
	switch typ.Kind() {
	case reflect.Bool:
		if v.Bool() {
			buf.writeUint(1)
		} else {
			buf.writeUint(0)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		buf.writeUint(v.Uint())
	case reflect.String:
		buf.writeString([]byte(v.String()))
	case reflect.Slice, reflect.Array:
		if typ.Elem().Kind() == reflect.Uint8 {
			cp := reflect.New(typ).Elem() // addressable, so Bytes works on arrays
			cp.Set(v)
			buf.writeString(cp.Bytes())
			return nil
		}
		idx := buf.listStart()
		for i := range v.Len() {
			if err := buf.encode(v.Index(i)); err != nil {
				return err
			}
		}
		buf.listEnd(idx)
	case reflect.Struct:
		fields, err := structFields(typ)
		if err != nil {
			return err
		}
		idx := buf.listStart()
		for _, f := range fields {
			fv := v.Field(f.index)
			if !f.tail {
				if err := buf.encode(fv); err != nil {
					return err
				}
				continue
			}
			for i := range fv.Len() {
				if err := buf.encode(fv.Index(i)); err != nil {
					return err
				}
			}
		}
		buf.listEnd(idx)
	case reflect.Pointer:
		if v.IsNil() {
			buf.str = append(buf.str, 0xC0) // every pointer the wire types hold is to a list
			return nil
		}
		return buf.encode(v.Elem())
	default:
		return fmt.Errorf("rlp: oracle cannot encode %v", typ)
	}
	return nil
}

// fieldInfo describes one struct field relevant to RLP.
type fieldInfo struct {
	index int
	name  string
	tail  bool
}

// structFields returns the RLP-visible fields of a struct type.
func structFields(typ reflect.Type) ([]fieldInfo, error) {
	var fields []fieldInfo
	for i := range typ.NumField() {
		f := typ.Field(i)
		if !f.IsExported() || f.Tag.Get("rlp") == "-" {
			continue
		}
		if len(fields) > 0 && fields[len(fields)-1].tail {
			return nil, fmt.Errorf("rlp: field %s.%s follows tail field", typ, f.Name)
		}
		info := fieldInfo{index: i, name: f.Name}
		switch tag := f.Tag.Get("rlp"); tag {
		case "":
		case "tail":
			if f.Type.Kind() != reflect.Slice {
				return nil, fmt.Errorf("rlp: tail field %s.%s must be a slice", typ, f.Name)
			}
			info.tail = true
		default:
			return nil, fmt.Errorf("rlp: unknown struct tag %q on %s.%s", tag, typ, f.Name)
		}
		fields = append(fields, info)
	}
	return fields, nil
}

func (s *Stream) decodeValue(v reflect.Value) error {
	typ := v.Type()
	switch {
	case typ == rawValueType:
		raw, err := s.Raw()
		v.SetBytes(raw)
		return err
	case oracleLeaves[typ]:
		return v.Addr().Interface().(Decoder).DecodeRLP(s)
	case typ == bigIntType:
		i, err := s.BigInt()
		if err == nil {
			v.Set(reflect.ValueOf(i))
		}
		return err
	}
	switch typ.Kind() {
	case reflect.Bool:
		b, err := s.Bool()
		v.SetBool(b)
		return err
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		i, err := s.uint(typ.Bits())
		v.SetUint(i)
		return err
	case reflect.String:
		b, err := s.Bytes()
		v.SetString(string(b))
		return err
	case reflect.Slice:
		if typ.Elem().Kind() == reflect.Uint8 {
			b, err := s.Bytes()
			if err == nil {
				v.SetBytes(b)
			}
			return err
		}
		if _, err := s.List(); err != nil {
			return err
		}
		if err := s.decodeElems(v); err != nil {
			return err
		}
		return s.ListEnd()
	case reflect.Array:
		if typ.Elem().Kind() == reflect.Uint8 {
			return s.ReadBytes(v.Bytes())
		}
		return fmt.Errorf("rlp: oracle cannot decode into %v", typ)
	case reflect.Struct:
		return s.decodeStruct(v)
	case reflect.Pointer:
		v.Set(reflect.New(typ.Elem()))
		return s.decodeValue(v.Elem())
	default:
		return fmt.Errorf("rlp: oracle cannot decode into %v", typ)
	}
}

// decodeElems sets the slice v to the values left in the current list.
func (s *Stream) decodeElems(v reflect.Value) error {
	out := reflect.MakeSlice(v.Type(), 0, 4)
	for {
		elem := reflect.New(v.Type().Elem()).Elem()
		err := s.decodeValue(elem)
		if err == EOL {
			break
		}
		if err != nil {
			return err
		}
		out = reflect.Append(out, elem)
	}
	v.Set(out)
	return nil
}

func (s *Stream) decodeStruct(v reflect.Value) error {
	fields, err := structFields(v.Type())
	if err != nil {
		return err
	}
	if _, err := s.List(); err != nil {
		return err
	}
	for _, f := range fields {
		fv := v.Field(f.index)
		if f.tail {
			if err := s.decodeElems(fv); err != nil {
				return err
			}
			continue
		}
		err := s.decodeValue(fv)
		if err == EOL {
			return fmt.Errorf("rlp: too few elements for %v (missing %s)", v.Type(), f.name)
		}
		if err != nil {
			return fmt.Errorf("rlp: field %s.%s: %w", v.Type(), f.name, err)
		}
	}
	if s.MoreDataInList() {
		return fmt.Errorf("rlp: input list has too many elements for %v", v.Type())
	}
	return s.ListEnd()
}
