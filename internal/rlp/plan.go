package rlp

import (
	"fmt"
	"math/big"
	"reflect"
)

// A plan is a precompiled codec program for one Go type: the
// reflection walk (tag parsing, kind switches, interface checks) runs
// once per type in the compiler below, and the interpreters in this
// file and plan_decode.go then execute a flat op dispatch per value.
// The op set mirrors the dispatch order of the reflection walker this
// codec replaced (now the test-only oracle in oracle_test.go) exactly
// — including its asymmetries, such as byte slices whose element type
// implements Encoder encoding as lists but decoding as byte strings,
// and its habit of reporting an unsupported type only when a value of
// it is reached — so the two stay byte-for-byte and error-for-error
// interchangeable. Differential fuzz targets (plan_diff_test.go) hold
// them to that.

type op uint8

const (
	opInvalid    op = iota // unsupported in this direction: returns encErr / decErr
	opRaw                  // RawValue: spliced/copied verbatim
	opUint                 // uint8..uint64, uint, uintptr
	opBool                 // bool
	opString               // string
	opBytes                // []byte (and named byte-slice types)
	opByteArray            // [N]byte
	opBigIntPtr            // *big.Int
	opBigIntVal            // big.Int
	opList                 // non-byte slice or array
	opStruct               // struct: list of RLP-visible fields
	opPtr                  // pointer (nil ⇄ empty value)
	opIface                // empty interface; non-empty handled by dispatch
	opCustom               // type itself implements Encoder / *T implements Decoder
	opCustomAddr           // encode only: *T implements Encoder, T used by value
)

// plan is one node of the compiled codec program. Encode and decode
// ops can differ for the same type (custom codecs on one side only,
// the byte-slice asymmetry above), so both are stored.
type plan struct {
	typ   reflect.Type
	encOp op
	decOp op

	// Why the op is opInvalid: the type is not RLP-(de)serializable,
	// or its struct tags are malformed.
	encErr, decErr error

	elem   *plan       // opList element, opPtr target
	fields []planField // opStruct

	bits    int  // opUint: target width in bits
	nilByte byte // opPtr encode: 0x80 or 0xC0 for a nil pointer
	ptrKind bool // opCustom encode: nil pointer writes an empty list

	// empty is a shared zero-length slice of the plan's type, set for
	// slice-kind opList plans. Decoding an empty list assigns it
	// directly instead of allocating a fresh slice header per decode;
	// with len == cap == 0 the shared backing is inert.
	empty reflect.Value
}

// planField is one RLP-visible struct field. For tail fields, p is
// the plan of the slice *element* type (tail elements splice into the
// enclosing list) and typ is the slice type itself.
type planField struct {
	index    int
	name     string
	tail     bool
	optional bool
	typ      reflect.Type
	p        *plan
	empty    reflect.Value // tail only: shared zero-length slice of typ
}

// compileCtx tracks in-progress plans so recursive types (a struct
// containing a slice of itself) compile to a cyclic plan graph
// instead of recursing forever. Depth limits are enforced at run
// time, exactly like the reflection walker.
type compileCtx struct {
	inProgress map[reflect.Type]*plan
}

func (cc *compileCtx) compile(typ reflect.Type) *plan {
	if p := cc.inProgress[typ]; p != nil {
		return p
	}
	p := &plan{typ: typ}
	cc.inProgress[typ] = p
	cc.fill(p, typ)
	return p
}

var bigIntValType = bigIntType.Elem()

// fill resolves the encode and decode ops for typ and compiles any
// child plans. An unsupported corner leaves that direction's op
// opInvalid and records the error for the interpreter to return.
func (cc *compileCtx) fill(p *plan, typ reflect.Type) {
	kind := typ.Kind()

	// Encode op, in the reflection walker's dispatch order.
	switch {
	case typ == rawValueType:
		p.encOp = opRaw
	case typ.Implements(encoderType):
		p.encOp = opCustom
		p.ptrKind = kind == reflect.Pointer
	case kind != reflect.Pointer && reflect.PointerTo(typ).Implements(encoderType) && typ != bigIntValType:
		p.encOp = opCustomAddr
	case typ == bigIntType:
		p.encOp = opBigIntPtr
	case kind != reflect.Pointer && reflect.PointerTo(typ) == bigIntType:
		p.encOp = opBigIntVal
	default:
		switch kind {
		case reflect.Bool:
			p.encOp = opBool
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			p.encOp = opUint
		case reflect.String:
			p.encOp = opString
		case reflect.Slice:
			if typ.Elem().Kind() == reflect.Uint8 && !typ.Elem().Implements(encoderType) {
				p.encOp = opBytes
			} else {
				p.encOp = opList
			}
		case reflect.Array:
			if isByteArray(typ) {
				p.encOp = opByteArray
			} else {
				p.encOp = opList
			}
		case reflect.Struct:
			p.encOp = opStruct
		case reflect.Pointer:
			p.encOp = opPtr
		case reflect.Interface:
			p.encOp = opIface
		default:
			p.encErr = fmt.Errorf("rlp: type %v is not RLP-serializable", typ)
		}
	}

	// Decode op, in the oracle walker's dispatch order.
	switch {
	case typ == rawValueType:
		p.decOp = opRaw
	case reflect.PointerTo(typ).Implements(decoderType):
		p.decOp = opCustom
	case typ == bigIntType:
		p.decOp = opBigIntPtr
	case kind != reflect.Pointer && reflect.PointerTo(typ) == bigIntType:
		p.decOp = opBigIntVal
	default:
		switch kind {
		case reflect.Bool:
			p.decOp = opBool
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			p.decOp = opUint
			p.bits = typ.Bits()
		case reflect.String:
			p.decOp = opString
		case reflect.Slice:
			if typ.Elem().Kind() == reflect.Uint8 {
				p.decOp = opBytes
			} else {
				p.decOp = opList
			}
		case reflect.Array:
			if isByteArray(typ) {
				p.decOp = opByteArray
			} else {
				p.decOp = opList
			}
		case reflect.Struct:
			p.decOp = opStruct
		case reflect.Pointer:
			p.decOp = opPtr
		case reflect.Interface:
			if typ.NumMethod() != 0 {
				p.decErr = fmt.Errorf("rlp: cannot decode into non-empty interface %v", typ)
			} else {
				p.decOp = opIface
			}
		default:
			p.decErr = fmt.Errorf("rlp: type %v is not RLP-deserializable", typ)
		}
	}

	// Children, by structural kind.
	if p.encOp == opList || p.decOp == opList {
		p.elem = cc.compile(typ.Elem())
		if p.decOp == opList && kind == reflect.Slice {
			p.empty = reflect.MakeSlice(typ, 0, 0)
		}
	}
	if p.encOp == opPtr || p.decOp == opPtr {
		p.elem = cc.compile(typ.Elem())
		p.nilByte = nilPointerByte(typ.Elem())
	}
	if p.encOp == opStruct || p.decOp == opStruct {
		infos, err := structFields(typ)
		if err != nil {
			if p.encOp == opStruct {
				p.encOp, p.encErr = opInvalid, err
			}
			if p.decOp == opStruct {
				p.decOp, p.decErr = opInvalid, err
			}
			return
		}
		p.fields = make([]planField, 0, len(infos))
		for _, fi := range infos {
			ftyp := typ.Field(fi.index).Type
			ctyp := ftyp
			if fi.tail {
				ctyp = ftyp.Elem()
			}
			pf := planField{
				index:    fi.index,
				name:     fi.name,
				tail:     fi.tail,
				optional: fi.optional,
				typ:      ftyp,
				p:        cc.compile(ctyp),
			}
			if fi.tail {
				pf.empty = reflect.MakeSlice(ftyp, 0, 0)
			}
			p.fields = append(p.fields, pf)
		}
	}
}

// bigWordBytes is the byte width of a big.Word on this platform.
const bigWordBytes = (32 << (uint64(^big.Word(0)) >> 63)) / 8

// writeBigIntFast is writeBigInt without the i.Bytes() allocation for
// integers wider than 64 bits: the words are serialized big-endian
// straight into the buffer's string data. Output bytes are identical
// to the oracle's allocating writeBigInt (the differential fuzz
// targets hold the two to that).
func (buf *encBuffer) writeBigIntFast(i *big.Int) error {
	if i == nil {
		buf.writeByte(0x80)
		return nil
	}
	if i.Sign() < 0 {
		return ErrNegativeBigInt
	}
	bitlen := i.BitLen()
	if bitlen <= 64 {
		buf.writeUint(i.Uint64())
		return nil
	}
	n := (bitlen + 7) / 8
	buf.writeHead(0x80, n)
	// The append(…, make(…)…) form extends in place without a
	// temporary. An egress buffer: n is the byte length of a big.Int we
	// are encoding ourselves, not peer input.
	buf.str = append(buf.str, make([]byte, n)...)
	out := buf.str[len(buf.str)-n:]
	idx := n
	for _, w := range i.Bits() {
		for j := 0; j < bigWordBytes && idx > 0; j++ {
			idx--
			out[idx] = byte(w)
			w >>= 8
		}
	}
	return nil
}

// nilPointerByte is the conventional empty value written for a nil
// pointer of the given element type: empty string for string-like
// element types, empty list for list-like ones.
func nilPointerByte(elem reflect.Type) byte {
	switch {
	case elem.Kind() == reflect.Struct && elem != bigIntValType:
		return 0xC0
	case elem.Kind() == reflect.Slice && elem.Elem().Kind() != reflect.Uint8:
		return 0xC0
	case elem.Kind() == reflect.Array && !isByteArray(elem):
		return 0xC0
	default:
		return 0x80
	}
}

// encodeValue is the codec entry point used by Encode/EncodeToBytes/
// EncodeAppend, and the re-dispatch on an interface's concrete type.
func (buf *encBuffer) encodeValue(v reflect.Value) error {
	if !v.IsValid() {
		return fmt.Errorf("rlp: cannot encode nil interface value")
	}
	return buf.encodePlan(cachedPlan(v.Type()), v)
}

// encodePlan executes the encode side of a compiled plan against v,
// writing into buf exactly what the oracle would.
func (buf *encBuffer) encodePlan(p *plan, v reflect.Value) error {
	if buf.depth > maxEncodeDepth {
		return fmt.Errorf("rlp: encode nesting exceeds %d levels", maxEncodeDepth)
	}
	switch p.encOp {
	case opInvalid:
		return p.encErr

	case opRaw:
		buf.write(v.Bytes())
		return nil

	case opCustom:
		if p.ptrKind && v.IsNil() {
			buf.writeByte(0xC0)
			return nil
		}
		// EncodeRLP writes fully-encoded bytes; the buffer itself is
		// the io.Writer, so they land in place with no capture copy.
		// On error the whole encode is abandoned, so partial writes
		// are unobservable.
		return v.Interface().(Encoder).EncodeRLP(buf)

	case opCustomAddr:
		pv := v
		if v.CanAddr() {
			pv = v.Addr()
		} else {
			pv = reflect.New(p.typ)
			pv.Elem().Set(v)
		}
		return pv.Interface().(Encoder).EncodeRLP(buf)

	case opBigIntPtr:
		return buf.writeBigIntFast(v.Interface().(*big.Int))

	case opBigIntVal:
		if v.CanAddr() {
			return buf.writeBigIntFast(v.Addr().Interface().(*big.Int))
		}
		i := v.Interface().(big.Int)
		return buf.writeBigIntFast(&i)

	case opBool:
		if v.Bool() {
			buf.writeByte(0x01)
		} else {
			buf.writeByte(0x80)
		}
		return nil

	case opUint:
		buf.writeUint(v.Uint())
		return nil

	case opString:
		buf.writeStr(v.String())
		return nil

	case opBytes:
		buf.writeString(v.Bytes())
		return nil

	case opByteArray:
		if !v.CanAddr() {
			// Copy so Bytes is legal on unaddressable arrays.
			cp := reflect.New(p.typ).Elem()
			cp.Set(v)
			v = cp
		}
		// Value.Bytes on the addressable array directly: unlike
		// Slice(0, n).Bytes() it does not heap-allocate a slice
		// header.
		buf.writeString(v.Bytes())
		return nil

	case opList:
		idx := buf.listStart()
		buf.depth++
		for i, n := 0, v.Len(); i < n; i++ {
			if err := buf.encodePlan(p.elem, v.Index(i)); err != nil {
				return err
			}
		}
		buf.depth--
		buf.listEnd(idx)
		return nil

	case opStruct:
		// Trailing optional zero-value fields are omitted.
		last := len(p.fields)
		for last > 0 && p.fields[last-1].optional && v.Field(p.fields[last-1].index).IsZero() {
			last--
		}
		idx := buf.listStart()
		buf.depth++
		for _, f := range p.fields[:last] {
			fv := v.Field(f.index)
			if f.tail {
				for i, n := 0, fv.Len(); i < n; i++ {
					if err := buf.encodePlan(f.p, fv.Index(i)); err != nil {
						return err
					}
				}
				continue
			}
			if err := buf.encodePlan(f.p, fv); err != nil {
				return err
			}
		}
		buf.depth--
		buf.listEnd(idx)
		return nil

	case opPtr:
		if v.IsNil() {
			buf.writeByte(p.nilByte)
			return nil
		}
		return buf.encodePlan(p.elem, v.Elem())

	case opIface:
		if v.IsNil() {
			return fmt.Errorf("rlp: cannot encode nil interface value")
		}
		// Dynamic re-dispatch on the concrete type.
		return buf.encodeValue(v.Elem())

	default:
		return fmt.Errorf("rlp: internal: no encode op for %v", p.typ)
	}
}
