package rlp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/big"
	"reflect"
)

// The differential oracle: the original reflection codec, with no
// compiled plans and no pooling, byte-for-byte the seed behavior. It
// was the production fallback behind a runtime switch until the plan
// codec became the only wire path; it lives in a test file so no
// binary links it. The FuzzPlanVsOracle* targets, FuzzDecode,
// TestPlanMatchesOracle and TestPlanErrorParity run the plan codec
// against it — any divergence in output bytes, decoded values,
// success/failure or (outside custom codecs) error text is a bug in
// the plan layer. The pattern matches internal/crypto/secp256k1's
// math/big oracle.

// oracleEncodeToBytes is EncodeToBytes on the reflection walker.
func oracleEncodeToBytes(v any) ([]byte, error) {
	buf := new(encBuffer)
	if err := buf.encode(reflect.ValueOf(v)); err != nil {
		return nil, err
	}
	return buf.finish(), nil
}

// oracleDecodeBytes is DecodeBytes on a fresh reflection Stream.
func oracleDecodeBytes(b []byte, v any) error {
	s := newStream(bytes.NewReader(b), uint64(len(b)))
	if err := s.Decode(v); err != nil {
		return err
	}
	if s.remainingBytes > 0 { // a bytes.Reader always limits the stream
		return ErrMoreThanOneValue
	}
	return nil
}

// newStream creates a decoding stream reading from r. If inputLimit
// is greater than zero, the stream refuses to read values larger than
// the limit. Production code only ever meets a Stream as the argument
// of a custom DecodeRLP, over a byte slice the codec already bounded,
// so there is no exported constructor.
func newStream(r io.Reader, inputLimit uint64) *Stream {
	s := new(Stream)
	s.Reset(r, inputLimit)
	return s
}

// writeBigInt is the allocating reference for writeBigIntFast.
func (buf *encBuffer) writeBigInt(i *big.Int) error {
	if i == nil {
		buf.writeByte(0x80)
		return nil
	}
	if i.Sign() < 0 {
		return ErrNegativeBigInt
	}
	if i.BitLen() <= 64 {
		buf.writeUint(i.Uint64())
		return nil
	}
	b := i.Bytes()
	buf.writeHead(0x80, len(b))
	buf.write(b)
	return nil
}

func (buf *encBuffer) encode(v reflect.Value) error {
	if buf.depth > maxEncodeDepth {
		return fmt.Errorf("rlp: encode nesting exceeds %d levels", maxEncodeDepth)
	}
	if !v.IsValid() {
		return fmt.Errorf("rlp: cannot encode nil interface value")
	}
	typ := v.Type()

	// Custom encoders and special types first.
	if typ == rawValueType {
		buf.write(v.Bytes())
		return nil
	}
	if typ.Implements(encoderType) {
		if typ.Kind() == reflect.Pointer && v.IsNil() {
			buf.writeByte(0xC0)
			return nil
		}
		// EncodeRLP writes fully-encoded bytes; capture them and
		// splice verbatim.
		w := &encWriter{}
		if err := v.Interface().(Encoder).EncodeRLP(w); err != nil {
			return err
		}
		buf.write(w.data)
		return nil
	}
	if !typ.Implements(encoderType) && typ.Kind() != reflect.Pointer &&
		reflect.PointerTo(typ).Implements(encoderType) && typ != bigIntType.Elem() {
		// Pointer-receiver Encoder used for a value: take the address
		// (copying if unaddressable) so EncodeRLP applies.
		cp := reflect.New(typ)
		cp.Elem().Set(v)
		return buf.encode(cp)
	}
	if typ == bigIntType {
		return buf.writeBigInt(v.Interface().(*big.Int))
	}
	if typ.Kind() != reflect.Pointer && reflect.PointerTo(typ) == bigIntType {
		i := v.Interface().(big.Int)
		return buf.writeBigInt(&i)
	}

	switch typ.Kind() {
	case reflect.Bool:
		if v.Bool() {
			buf.writeByte(0x01)
		} else {
			buf.writeByte(0x80)
		}
		return nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		buf.writeUint(v.Uint())
		return nil
	case reflect.String:
		buf.writeString([]byte(v.String()))
		return nil
	case reflect.Slice:
		if typ.Elem().Kind() == reflect.Uint8 && !typ.Elem().Implements(encoderType) {
			buf.writeString(v.Bytes())
			return nil
		}
		return buf.encodeList(v)
	case reflect.Array:
		if isByteArray(typ) {
			if !v.CanAddr() {
				// Copy so Slice is legal on unaddressable arrays.
				cp := reflect.New(typ).Elem()
				cp.Set(v)
				v = cp
			}
			buf.writeString(v.Slice(0, v.Len()).Bytes())
			return nil
		}
		return buf.encodeList(v)
	case reflect.Struct:
		return buf.encodeStruct(v)
	case reflect.Pointer:
		if v.IsNil() {
			return buf.encodeNilPointer(typ.Elem())
		}
		return buf.encode(v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			return fmt.Errorf("rlp: cannot encode nil interface value")
		}
		return buf.encode(v.Elem())
	default:
		return fmt.Errorf("rlp: type %v is not RLP-serializable", typ)
	}
}

// encodeNilPointer writes the conventional empty value for a nil
// pointer: empty string for string-like element types, empty list for
// list-like ones.
func (buf *encBuffer) encodeNilPointer(elem reflect.Type) error {
	switch {
	case elem.Kind() == reflect.Struct && elem != bigIntType.Elem():
		buf.writeByte(0xC0)
	case elem.Kind() == reflect.Slice && elem.Elem().Kind() != reflect.Uint8:
		buf.writeByte(0xC0)
	case elem.Kind() == reflect.Array && !isByteArray(elem):
		buf.writeByte(0xC0)
	default:
		buf.writeByte(0x80)
	}
	return nil
}

func (buf *encBuffer) encodeList(v reflect.Value) error {
	idx := buf.listStart()
	buf.depth++
	for i := 0; i < v.Len(); i++ {
		if err := buf.encode(v.Index(i)); err != nil {
			return err
		}
	}
	buf.depth--
	buf.listEnd(idx)
	return nil
}

func (buf *encBuffer) encodeStruct(v reflect.Value) error {
	fields, err := structFields(v.Type())
	if err != nil {
		return err
	}
	// Trailing optional fields holding zero values are omitted, in
	// reverse order, so that older decoders accept the output.
	last := len(fields)
	for last > 0 && fields[last-1].optional && v.Field(fields[last-1].index).IsZero() {
		last--
	}
	idx := buf.listStart()
	buf.depth++
	for _, f := range fields[:last] {
		fv := v.Field(f.index)
		if f.tail {
			// Tail fields splice their elements into the outer list.
			for i := 0; i < fv.Len(); i++ {
				if err := buf.encode(fv.Index(i)); err != nil {
					return err
				}
			}
			continue
		}
		if err := buf.encode(fv); err != nil {
			return err
		}
	}
	buf.depth--
	buf.listEnd(idx)
	return nil
}

// encWriter collects bytes written by a custom Encoder implementation.
type encWriter struct{ data []byte }

func (w *encWriter) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

// Decode reads the next value from the stream into v, which must be a
// non-nil pointer.
func (s *Stream) Decode(v any) error {
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
	return s.decodeValue(rv.Elem())
}

func (s *Stream) decodeValue(v reflect.Value) error {
	if len(s.stack) > maxDecodeDepth {
		return fmt.Errorf("rlp: decode nesting exceeds %d levels", maxDecodeDepth)
	}
	typ := v.Type()

	if typ == rawValueType {
		raw, err := s.Raw()
		if err != nil {
			return err
		}
		v.SetBytes(raw)
		return nil
	}
	if reflect.PointerTo(typ).Implements(decoderType) {
		return v.Addr().Interface().(Decoder).DecodeRLP(s)
	}
	if typ == bigIntType {
		i, err := s.BigInt()
		if err != nil {
			return wrapTypeError(err, typ)
		}
		v.Set(reflect.ValueOf(i))
		return nil
	}
	if typ.Kind() != reflect.Pointer && reflect.PointerTo(typ) == bigIntType {
		i, err := s.BigInt()
		if err != nil {
			return wrapTypeError(err, typ)
		}
		v.Set(reflect.ValueOf(*i))
		return nil
	}

	switch typ.Kind() {
	case reflect.Bool:
		b, err := s.Bool()
		if err != nil {
			return wrapTypeError(err, typ)
		}
		v.SetBool(b)
		return nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		i, err := s.uint(typ.Bits())
		if err != nil {
			return wrapTypeError(err, typ)
		}
		v.SetUint(i)
		return nil
	case reflect.String:
		b, err := s.Bytes()
		if err != nil {
			return wrapTypeError(err, typ)
		}
		v.SetString(string(b))
		return nil
	case reflect.Slice:
		if typ.Elem().Kind() == reflect.Uint8 {
			b, err := s.Bytes()
			if err != nil {
				return wrapTypeError(err, typ)
			}
			v.SetBytes(b)
			return nil
		}
		return s.decodeSlice(v)
	case reflect.Array:
		if isByteArray(typ) {
			if !v.CanAddr() {
				return fmt.Errorf("rlp: cannot decode into unaddressable array of type %v", typ)
			}
			err := s.ReadBytes(v.Slice(0, v.Len()).Bytes())
			return wrapTypeError(err, typ)
		}
		return s.decodeArray(v)
	case reflect.Struct:
		return s.decodeStruct(v)
	case reflect.Pointer:
		return s.decodePointer(v)
	case reflect.Interface:
		if typ.NumMethod() != 0 {
			return fmt.Errorf("rlp: cannot decode into non-empty interface %v", typ)
		}
		return s.decodeInterface(v)
	default:
		return fmt.Errorf("rlp: type %v is not RLP-deserializable", typ)
	}
}

func (s *Stream) decodeSlice(v reflect.Value) error {
	if _, err := s.List(); err != nil {
		return wrapTypeError(err, v.Type())
	}
	out := reflect.MakeSlice(v.Type(), 0, 4)
	for i := 0; ; i++ {
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
	return s.ListEnd()
}

func (s *Stream) decodeArray(v reflect.Value) error {
	if _, err := s.List(); err != nil {
		return wrapTypeError(err, v.Type())
	}
	i := 0
	for ; i < v.Len(); i++ {
		err := s.decodeValue(v.Index(i))
		if err == EOL {
			return fmt.Errorf("rlp: list has %d elements, want %d for %v", i, v.Len(), v.Type())
		}
		if err != nil {
			return err
		}
	}
	// Array full: list must end now.
	if _, _, err := s.Kind(); err != EOL {
		return fmt.Errorf("rlp: list has more than %d elements for %v", v.Len(), v.Type())
	}
	return s.ListEnd()
}

func (s *Stream) decodeStruct(v reflect.Value) error {
	fields, err := structFields(v.Type())
	if err != nil {
		return err
	}
	if _, err := s.List(); err != nil {
		return wrapTypeError(err, v.Type())
	}
	for _, f := range fields {
		fv := v.Field(f.index)
		if f.tail {
			// Collect remaining elements into the tail slice.
			out := reflect.MakeSlice(fv.Type(), 0, 4)
			for {
				elem := reflect.New(fv.Type().Elem()).Elem()
				err := s.decodeValue(elem)
				if err == EOL {
					break
				}
				if err != nil {
					return err
				}
				out = reflect.Append(out, elem)
			}
			fv.Set(out)
			continue
		}
		err := s.decodeValue(fv)
		if err == EOL {
			if f.optional {
				// Remaining optional fields keep their zero values.
				break
			}
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

func (s *Stream) decodePointer(v reflect.Value) error {
	// A nil value decodes into a nil pointer when the input is the
	// empty string/list; otherwise allocate and decode into it.
	kind, size, err := s.Kind()
	if err != nil {
		return wrapTypeError(err, v.Type())
	}
	if size == 0 && kind != Byte {
		// Consume the empty value and leave/make the pointer nil.
		s.haveHdr = false
		if kind == List {
			s.stack = append(s.stack, s.pos)
			if err := s.ListEnd(); err != nil {
				return err
			}
		}
		v.Set(reflect.Zero(v.Type()))
		return nil
	}
	if v.IsNil() {
		v.Set(reflect.New(v.Type().Elem()))
	}
	return s.decodeValue(v.Elem())
}

// decodeInterface fills an empty interface with []byte for strings
// and []any for lists.
func (s *Stream) decodeInterface(v reflect.Value) error {
	kind, _, err := s.Kind()
	if err != nil {
		return err
	}
	if kind == List {
		if _, err := s.List(); err != nil {
			return err
		}
		vals := []any{}
		for {
			var elem any
			ev := reflect.ValueOf(&elem).Elem()
			err := s.decodeInterface(ev)
			if err == EOL {
				break
			}
			if err != nil {
				return err
			}
			vals = append(vals, elem)
		}
		if err := s.ListEnd(); err != nil {
			return err
		}
		v.Set(reflect.ValueOf(vals))
		return nil
	}
	b, err := s.Bytes()
	if err != nil {
		return err
	}
	v.Set(reflect.ValueOf(b))
	return nil
}
