package rlp

import (
	"fmt"
	"io"
	"math/big"
	"reflect"
)

const maxDecodeDepth = 1024

// byteDec is the plan decoder: a cursor over a complete input slice.
// Where Stream reads through an io.Reader with a list-end stack, the
// byte decoder passes each container's payload end down the call
// chain, so decoding allocates nothing beyond the decoded values
// themselves.
//
// Error parity with Stream is part of the contract (decode_test.go
// pins sentinels via errors.Is): EOL inside an exhausted list, io.EOF
// at an exhausted top level, ErrElemTooLarge when a value overruns
// its enclosing list (checked before the input-limit condition, like
// Stream.willRead), ErrValueTooLarge when it overruns the input, and
// the same canonicality sentinels in the same precedence order. The
// one documented exception: custom Decoder implementations run
// against a pooled sub-Stream limited to the enclosing container, so
// exotic truncation errors inside DecodeRLP may surface as
// ErrValueTooLarge where the shared-stream walker reported
// ErrElemTooLarge. Both fail; differential fuzz compares outcomes and
// values, not error identity inside custom codecs.
type byteDec struct {
	in    []byte
	pos   int
	depth int // enclosing-list count, mirrors len(Stream.stack)
}

// readHeader parses the next value header. end bounds the current
// container: the enclosing list's payload end, or len(in) at top
// level. inList selects EOL vs io.EOF at exhaustion and
// ErrElemTooLarge vs ErrValueTooLarge on overrun. For Byte kind the
// tag is the value (returned in byteval) and pos is already past it.
func (d *byteDec) readHeader(end int, inList bool) (kind Kind, size int, byteval byte, err error) {
	if d.pos >= end {
		if inList {
			return 0, 0, 0, EOL
		}
		return 0, 0, 0, io.EOF
	}
	tag := d.in[d.pos]
	d.pos++
	var size64 uint64
	switch {
	case tag < 0x80:
		return Byte, 0, tag, nil
	case tag < 0xB8:
		kind, size64 = String, uint64(tag-0x80)
	case tag < 0xC0:
		n, err := d.readSize(int(tag-0xB7), end, inList)
		if err != nil {
			return 0, 0, 0, err
		}
		kind, size64 = String, n
	case tag < 0xF8:
		kind, size64 = List, uint64(tag-0xC0)
	default:
		n, err := d.readSize(int(tag-0xF7), end, inList)
		if err != nil {
			return 0, 0, 0, err
		}
		kind, size64 = List, n
	}
	// Payload fit, in Stream.Kind's order: the element check against
	// the enclosing list first, then the input limit. The element
	// check keeps Stream's uint64-wraparound semantics — a hostile
	// size large enough to overflow pos+size skips it and is caught
	// by the limit check as ErrValueTooLarge.
	if inList {
		if pe := uint64(d.pos) + size64; pe >= uint64(d.pos) && pe > uint64(end) {
			return 0, 0, 0, ErrElemTooLarge
		}
	}
	if size64 > uint64(len(d.in)-d.pos) {
		return 0, 0, 0, ErrValueTooLarge
	}
	// size64 ≤ remaining input, so the int conversion is safe.
	return kind, int(size64), 0, nil
}

// readSize reads an n-byte big-endian size, enforcing canonical form
// in the same order Stream does: width, bounds, leading zero, then
// minimality. Payload fit is the caller's job.
func (d *byteDec) readSize(n, end int, inList bool) (uint64, error) {
	if n > 8 {
		return 0, ErrCanonSize
	}
	if n > end-d.pos {
		return 0, d.overrunErr(inList)
	}
	if d.in[d.pos] == 0 {
		return 0, ErrCanonSize
	}
	size := uint64(0)
	for i := 0; i < n; i++ {
		size = size<<8 | uint64(d.in[d.pos+i])
	}
	d.pos += n
	if size < 56 {
		return 0, ErrCanonSize
	}
	return size, nil
}

func (d *byteDec) overrunErr(inList bool) error {
	if inList {
		return ErrElemTooLarge
	}
	return ErrValueTooLarge
}

// decode executes the decode side of a compiled plan, filling v
// (which must be addressable) from the input.
func (d *byteDec) decode(p *plan, v reflect.Value, end int, inList bool) error {
	if d.depth > maxDecodeDepth {
		return fmt.Errorf("rlp: decode nesting exceeds %d levels", maxDecodeDepth)
	}
	switch p.decOp {
	case opInvalid:
		return p.decErr

	case opRaw:
		start := d.pos
		kind, size, _, err := d.readHeader(end, inList)
		if err != nil {
			return err
		}
		if kind != Byte {
			d.pos += size
		}
		n := d.pos - start
		if n > end-start {
			return ErrValueTooLarge // unreachable: readHeader bounds the payload
		}
		raw := make([]byte, n)
		copy(raw, d.in[start:d.pos])
		v.SetBytes(raw)
		return nil

	case opCustom:
		if inList && d.pos >= end {
			return EOL
		}
		ps := getStream(d.in[d.pos:end])
		err := v.Addr().Interface().(Decoder).DecodeRLP(&ps.s)
		if err == nil {
			d.pos += int(ps.s.pos)
		}
		putStream(ps)
		return err

	case opBigIntPtr, opBigIntVal:
		b, err := d.bigIntBytes(end, inList)
		if err != nil {
			return wrapTypeError(err, p.typ)
		}
		i := new(big.Int).SetBytes(b)
		if p.decOp == opBigIntPtr {
			v.Set(reflect.ValueOf(i))
		} else {
			v.Set(reflect.ValueOf(*i))
		}
		return nil

	case opBool:
		u, err := d.uintVal(8, end, inList)
		if err != nil {
			return wrapTypeError(err, p.typ)
		}
		switch u {
		case 0:
			v.SetBool(false)
		case 1:
			v.SetBool(true)
		default:
			return fmt.Errorf("rlp: invalid boolean value %d", u)
		}
		return nil

	case opUint:
		u, err := d.uintVal(p.bits, end, inList)
		if err != nil {
			return wrapTypeError(err, p.typ)
		}
		v.SetUint(u)
		return nil

	case opString:
		kind, size, _, err := d.readHeader(end, inList)
		if err != nil {
			return wrapTypeError(err, p.typ)
		}
		switch kind {
		case Byte:
			v.SetString(string(d.in[d.pos-1 : d.pos]))
		case String:
			if size == 1 && d.in[d.pos] < 0x80 {
				return wrapTypeError(ErrCanonSize, p.typ)
			}
			v.SetString(string(d.in[d.pos : d.pos+size]))
			d.pos += size
		default:
			return wrapTypeError(ErrExpectedString, p.typ)
		}
		return nil

	case opBytes:
		kind, size, bv, err := d.readHeader(end, inList)
		if err != nil {
			return wrapTypeError(err, p.typ)
		}
		switch kind {
		case Byte:
			v.SetBytes([]byte{bv})
		case String:
			if size == 1 && d.in[d.pos] < 0x80 {
				return wrapTypeError(ErrCanonSize, p.typ)
			}
			if size > end-d.pos {
				return wrapTypeError(ErrValueTooLarge, p.typ) // unreachable: readHeader bounds the payload
			}
			b := make([]byte, size)
			copy(b, d.in[d.pos:d.pos+size])
			d.pos += size
			v.SetBytes(b)
		default:
			return wrapTypeError(ErrExpectedString, p.typ)
		}
		return nil

	case opByteArray:
		if !v.CanAddr() {
			return fmt.Errorf("rlp: cannot decode into unaddressable array of type %v", p.typ)
		}
		kind, size, bv, err := d.readHeader(end, inList)
		if err != nil {
			return wrapTypeError(err, p.typ)
		}
		// Value.Bytes on the addressable array avoids the slice-header
		// allocation Slice(0, n) would make.
		dst := v.Bytes()
		switch kind {
		case Byte:
			if len(dst) != 1 {
				return fmt.Errorf("rlp: byte string of length 1, want %d", len(dst))
			}
			dst[0] = bv
		case String:
			if size != len(dst) {
				return fmt.Errorf("rlp: byte string of length %d, want %d", size, len(dst))
			}
			copy(dst, d.in[d.pos:d.pos+size])
			d.pos += size
			if size == 1 && dst[0] < 0x80 {
				return wrapTypeError(ErrCanonSize, p.typ)
			}
		default:
			return wrapTypeError(ErrExpectedString, p.typ)
		}
		return nil

	case opList:
		if p.typ.Kind() == reflect.Array {
			return d.decodeArray(p, v, end, inList)
		}
		return d.decodeSlice(p, v, end, inList)

	case opStruct:
		return d.decodeStruct(p, v, end, inList)

	case opPtr:
		start := d.pos
		kind, size, _, err := d.readHeader(end, inList)
		if err != nil {
			return wrapTypeError(err, p.typ)
		}
		if size == 0 && kind != Byte {
			// Empty value: leave/make the pointer nil.
			v.Set(reflect.Zero(p.typ))
			return nil
		}
		// Rewind; the element op re-reads the header.
		d.pos = start
		if v.IsNil() {
			v.Set(reflect.New(p.typ.Elem()))
		}
		return d.decode(p.elem, v.Elem(), end, inList)

	case opIface:
		return d.decodeIface(v, end, inList)

	default:
		return fmt.Errorf("rlp: internal: no decode op for %v", p.typ)
	}
}

// uintVal reads an integer of at most bits width, with Stream.uint's
// exact canonicality and overflow behavior.
func (d *byteDec) uintVal(bits, end int, inList bool) (uint64, error) {
	kind, size, bv, err := d.readHeader(end, inList)
	if err != nil {
		return 0, err
	}
	switch kind {
	case Byte:
		if bv == 0 {
			return 0, ErrCanonInt
		}
		return uint64(bv), nil
	case String:
		if size > bits/8 {
			return 0, ErrUintOverflow
		}
		u, err := readInt(d.in[d.pos : d.pos+size])
		if err != nil {
			return 0, err
		}
		d.pos += size
		if size == 1 && u < 0x80 {
			return 0, ErrCanonSize
		}
		return u, nil
	default:
		return 0, ErrExpectedString
	}
}

// bigIntBytes returns the payload of an integer value without copying
// (big.Int.SetBytes copies), applying Stream.BigInt's canonicality
// checks in order: string minimality first, then leading zero.
func (d *byteDec) bigIntBytes(end int, inList bool) ([]byte, error) {
	kind, size, _, err := d.readHeader(end, inList)
	if err != nil {
		return nil, err
	}
	var b []byte
	switch kind {
	case Byte:
		b = d.in[d.pos-1 : d.pos]
	case String:
		b = d.in[d.pos : d.pos+size]
		d.pos += size
		if size == 1 && b[0] < 0x80 {
			return nil, ErrCanonSize
		}
	default:
		return nil, ErrExpectedString
	}
	if len(b) > 0 && b[0] == 0 {
		return nil, ErrCanonInt
	}
	return b, nil
}

func (d *byteDec) decodeSlice(p *plan, v reflect.Value, end int, inList bool) error {
	kind, size, _, err := d.readHeader(end, inList)
	if err != nil {
		return wrapTypeError(err, p.typ)
	}
	if kind != List {
		return wrapTypeError(ErrExpectedList, p.typ)
	}
	lend := d.pos + size
	d.depth++
	if n, cntErr := CountValues(d.in[d.pos:lend]); cntErr == nil {
		if n == 0 {
			v.Set(p.empty)
		} else {
			// Exact pre-count: zero the destination (the walker never
			// reuses old backing), then one Grow allocation with the
			// elements decoded in place. On an element error the
			// destination may hold partial data, like struct fields.
			v.SetZero()
			v.Grow(n)
			v.SetLen(n)
			for i := 0; i < n; i++ {
				if err := d.decode(p.elem, v.Index(i), lend, true); err != nil {
					return err
				}
			}
		}
	} else {
		// Malformed element header somewhere in the list: take the
		// append path so the element decode surfaces the precise
		// error the reflection walker reports.
		out := reflect.MakeSlice(p.typ, 0, 4)
		for {
			elem := reflect.New(p.typ.Elem()).Elem()
			err := d.decode(p.elem, elem, lend, true)
			if err == EOL {
				break
			}
			if err != nil {
				return err
			}
			out = reflect.Append(out, elem)
		}
		v.Set(out)
	}
	d.depth--
	return nil
}

func (d *byteDec) decodeArray(p *plan, v reflect.Value, end int, inList bool) error {
	kind, size, _, err := d.readHeader(end, inList)
	if err != nil {
		return wrapTypeError(err, p.typ)
	}
	if kind != List {
		return wrapTypeError(ErrExpectedList, p.typ)
	}
	lend := d.pos + size
	d.depth++
	n := v.Len()
	for i := 0; i < n; i++ {
		if d.pos >= lend {
			return fmt.Errorf("rlp: list has %d elements, want %d for %v", i, n, p.typ)
		}
		if err := d.decode(p.elem, v.Index(i), lend, true); err != nil {
			return err
		}
	}
	if d.pos < lend {
		return fmt.Errorf("rlp: list has more than %d elements for %v", n, p.typ)
	}
	d.depth--
	return nil
}

func (d *byteDec) decodeStruct(p *plan, v reflect.Value, end int, inList bool) error {
	kind, size, _, err := d.readHeader(end, inList)
	if err != nil {
		return wrapTypeError(err, p.typ)
	}
	if kind != List {
		return wrapTypeError(ErrExpectedList, p.typ)
	}
	lend := d.pos + size
	d.depth++
	for _, f := range p.fields {
		fv := v.Field(f.index)
		if f.tail {
			if err := d.decodeTail(f, fv, lend); err != nil {
				return err
			}
			continue
		}
		err := d.decode(f.p, fv, lend, true)
		if err == EOL {
			if f.optional {
				// Remaining optional fields keep their zero values.
				break
			}
			return fmt.Errorf("rlp: too few elements for %v (missing %s)", p.typ, f.name)
		}
		if err != nil {
			return fmt.Errorf("rlp: field %s.%s: %w", p.typ, f.name, err)
		}
	}
	if d.pos < lend {
		return fmt.Errorf("rlp: input list has too many elements for %v", p.typ)
	}
	d.depth--
	return nil
}

// decodeTail collects the remaining list elements into the tail
// slice. Like the reflection walker, element errors propagate without
// field-name wrapping, and an empty tail still sets a non-nil slice.
func (d *byteDec) decodeTail(f planField, fv reflect.Value, lend int) error {
	if n, cntErr := CountValues(d.in[d.pos:lend]); cntErr == nil {
		if n == 0 {
			fv.Set(f.empty)
			return nil
		}
		fv.SetZero()
		fv.Grow(n)
		fv.SetLen(n)
		for i := 0; i < n; i++ {
			if err := d.decode(f.p, fv.Index(i), lend, true); err != nil {
				return err
			}
		}
		return nil
	}
	out := reflect.MakeSlice(f.typ, 0, 4)
	for {
		elem := reflect.New(f.typ.Elem()).Elem()
		err := d.decode(f.p, elem, lend, true)
		if err == EOL {
			break
		}
		if err != nil {
			return err
		}
		out = reflect.Append(out, elem)
	}
	fv.Set(out)
	return nil
}

// decodeIface fills an empty interface with []byte for strings and
// []any for lists, like Stream.decodeInterface.
func (d *byteDec) decodeIface(v reflect.Value, end int, inList bool) error {
	if d.depth > maxDecodeDepth {
		return fmt.Errorf("rlp: decode nesting exceeds %d levels", maxDecodeDepth)
	}
	kind, size, bv, err := d.readHeader(end, inList)
	if err != nil {
		return err
	}
	switch kind {
	case List:
		lend := d.pos + size
		d.depth++
		vals := []any{}
		// readHeader clamps size to the remaining input, so lend never
		// exceeds len(d.in), and every iteration consumes at least the
		// one header byte that advances pos.
		for d.pos < lend {
			var elem any
			ev := reflect.ValueOf(&elem).Elem()
			if err := d.decodeIface(ev, lend, true); err != nil {
				return err
			}
			vals = append(vals, elem)
		}
		d.depth--
		v.Set(reflect.ValueOf(vals))
		return nil
	case Byte:
		v.Set(reflect.ValueOf([]byte{bv}))
		return nil
	default:
		if size == 1 && d.in[d.pos] < 0x80 {
			return ErrCanonSize
		}
		if size > end-d.pos {
			return ErrValueTooLarge // unreachable: readHeader bounds the payload
		}
		b := make([]byte, size)
		copy(b, d.in[d.pos:d.pos+size])
		d.pos += size
		v.Set(reflect.ValueOf(b))
		return nil
	}
}
