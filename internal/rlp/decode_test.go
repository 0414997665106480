package rlp

import (
	"bytes"
	"errors"
	"io"
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDecodeVectorsRoundTrip(t *testing.T) {
	// Every encoding vector must decode back to the original value.
	for i, test := range encTests {
		rv := reflect.ValueOf(test.val)
		if !rv.IsValid() || rv.Kind() == reflect.Pointer && rv.IsNil() {
			continue // nil pointers round-trip to nil; handled separately
		}
		enc := mustHex(test.want)
		target := reflect.New(rv.Type())
		if err := DecodeBytes(enc, target.Interface()); err != nil {
			t.Errorf("test %d (%s): decode error: %v", i, test.want, err)
			continue
		}
		got := target.Elem().Interface()
		if !reflect.DeepEqual(got, test.val) {
			// big.Int needs Cmp, not DeepEqual of internals.
			if bi, ok := test.val.(*big.Int); ok {
				if gbi, ok2 := got.(*big.Int); ok2 && gbi.Cmp(bi) == 0 {
					continue
				}
			}
			if b, ok := test.val.([]byte); ok && len(b) == 0 {
				if gb, ok2 := got.([]byte); ok2 && len(gb) == 0 {
					continue
				}
			}
			t.Errorf("test %d: round trip %#v -> %#v", i, test.val, got)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	tests := []struct {
		input string
		into  any
		want  error
	}{
		// Non-canonical single byte as string size.
		{"8100", ptr([]byte{}), ErrCanonSize},
		{"817f", ptr([]byte{}), ErrCanonSize},
		// Leading zero in integer.
		{"820011", ptr(uint64(0)), ErrCanonInt},
		{"00", ptr(uint64(0)), ErrCanonInt},
		// Non-minimal length-of-length.
		{"b800", ptr([]byte{}), ErrCanonSize},
		{"b90037", ptr([]byte{}), ErrCanonSize},
		{"f80102", ptr([]uint{}), ErrCanonSize},
		// Kind mismatches.
		{"c0", ptr(uint64(0)), ErrExpectedString},
		{"c0", ptr([]byte{}), ErrExpectedString},
		{"c0", ptr(""), ErrExpectedString},
		{"83646f67", ptr([]uint{}), ErrExpectedList},
		// Overflow.
		{"89ffffffffffffffffff", ptr(uint64(0)), ErrUintOverflow},
		{"8180", ptr(uint8(0)), nil}, // 128 fits a uint8
		{"820100", ptr(uint8(0)), ErrUintOverflow},
		// Truncated input: the announced size exceeds the input.
		{"83", ptr([]byte{}), ErrValueTooLarge},
		{"c3", ptr([]uint{}), ErrValueTooLarge},
		// Element larger than containing list.
		{"c2820505", ptr([]uint{}), ErrElemTooLarge},
	}
	for _, test := range tests {
		err := DecodeBytes(mustHex(test.input), test.into)
		if test.want == nil {
			if err != nil {
				t.Errorf("input %s: unexpected error %v", test.input, err)
			}
			continue
		}
		if !errors.Is(err, test.want) {
			t.Errorf("input %s into %T: got %v, want %v", test.input, test.into, err, test.want)
		}
	}
}

func TestDecodeTrailingBytes(t *testing.T) {
	var x uint64
	err := DecodeBytes(mustHex("0105"), &x)
	if !errors.Is(err, ErrMoreThanOneValue) {
		t.Errorf("got %v, want ErrMoreThanOneValue", err)
	}
}

func TestDecodeIntoNil(t *testing.T) {
	if err := DecodeBytes(mustHex("01"), nil); err == nil {
		t.Error("expected error decoding into nil")
	}
	var p *uint64
	if err := DecodeBytes(mustHex("01"), p); err == nil {
		t.Error("expected error decoding into nil pointer")
	}
	var x uint64
	if err := DecodeBytes(mustHex("01"), x); err == nil {
		t.Error("expected error decoding into non-pointer")
	}
}

func TestDecodeStruct(t *testing.T) {
	type inner struct {
		X uint
	}
	type outer struct {
		A uint
		B string
		C inner
		D []uint
	}
	enc, err := EncodeToBytes(outer{7, "hi", inner{9}, []uint{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	var got outer
	if err := DecodeBytes(enc, &got); err != nil {
		t.Fatal(err)
	}
	want := outer{7, "hi", inner{9}, []uint{1, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

func TestDecodeStructErrors(t *testing.T) {
	type two struct{ A, B uint }
	// Too few elements.
	if err := DecodeBytes(mustHex("c101"), &two{}); err == nil {
		t.Error("expected error for short list")
	}
	// Too many elements.
	if err := DecodeBytes(mustHex("c3010203"), &two{}); err == nil {
		t.Error("expected error for long list")
	}
}

func TestDecodeOptionalFields(t *testing.T) {
	type withOpt struct {
		A uint
		B uint `rlp:"optional"`
	}
	var v withOpt
	if err := DecodeBytes(mustHex("c101"), &v); err != nil {
		t.Fatal(err)
	}
	if v.A != 1 || v.B != 0 {
		t.Errorf("got %+v", v)
	}
	if err := DecodeBytes(mustHex("c20102"), &v); err != nil {
		t.Fatal(err)
	}
	if v.A != 1 || v.B != 2 {
		t.Errorf("got %+v", v)
	}
}

func TestDecodeTailField(t *testing.T) {
	type withTail struct {
		A    uint
		Rest []uint `rlp:"tail"`
	}
	var v withTail
	if err := DecodeBytes(mustHex("c3010203"), &v); err != nil {
		t.Fatal(err)
	}
	if v.A != 1 || !reflect.DeepEqual(v.Rest, []uint{2, 3}) {
		t.Errorf("got %+v", v)
	}
	// Empty tail is fine.
	if err := DecodeBytes(mustHex("c101"), &v); err != nil {
		t.Fatal(err)
	}
	if len(v.Rest) != 0 {
		t.Errorf("got %+v", v)
	}
}

func TestDecodeByteArray(t *testing.T) {
	var a [4]byte
	if err := DecodeBytes(mustHex("8401020304"), &a); err != nil {
		t.Fatal(err)
	}
	if a != [4]byte{1, 2, 3, 4} {
		t.Errorf("got %x", a)
	}
	// Wrong size.
	if err := DecodeBytes(mustHex("83010203"), &a); err == nil {
		t.Error("expected size mismatch error")
	}
}

func TestDecodeInterface(t *testing.T) {
	var v any
	if err := DecodeBytes(mustHex("c88363617483646f67"), &v); err != nil {
		t.Fatal(err)
	}
	list, ok := v.([]any)
	if !ok || len(list) != 2 {
		t.Fatalf("got %#v", v)
	}
	if string(list[0].([]byte)) != "cat" || string(list[1].([]byte)) != "dog" {
		t.Errorf("got %#v", v)
	}
}

func TestDecodePointerReuse(t *testing.T) {
	var p *uint64
	if err := DecodeBytes(mustHex("05"), &p); err != nil {
		t.Fatal(err)
	}
	if p == nil || *p != 5 {
		t.Errorf("got %v", p)
	}
	// Empty value resets to nil.
	if err := DecodeBytes(mustHex("80"), &p); err != nil {
		t.Fatal(err)
	}
	if p != nil {
		t.Errorf("got %v, want nil", *p)
	}
}

func TestStreamList(t *testing.T) {
	s := newStream(bytes.NewReader(mustHex("c50183040404")), 0)
	size, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if size != 5 {
		t.Errorf("size = %d, want 5", size)
	}
	if v, _ := s.Uint64(); v != 1 {
		t.Errorf("first elem = %d", v)
	}
	if b, _ := s.Bytes(); !bytes.Equal(b, []byte{4, 4, 4}) {
		t.Errorf("second elem = %x", b)
	}
	if _, _, err := s.Kind(); err != EOL {
		t.Errorf("expected EOL, got %v", err)
	}
	if err := s.ListEnd(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Kind(); err != io.EOF {
		t.Errorf("expected EOF after top-level value, got %v", err)
	}
}

func TestStreamSkip(t *testing.T) {
	// [1, [2,3], "dog"] — skip the nested list.
	enc, _ := EncodeToBytes([]any{uint(1), []uint{2, 3}, "dog"})
	s := newStream(bytes.NewReader(enc), 0)
	if _, err := s.List(); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Uint64(); v != 1 {
		t.Fatal("bad first element")
	}
	if err := s.Skip(); err != nil {
		t.Fatal(err)
	}
	b, err := s.Bytes()
	if err != nil || string(b) != "dog" {
		t.Fatalf("got %q, %v", b, err)
	}
}

func TestStreamRaw(t *testing.T) {
	enc := mustHex("c88363617483646f67")
	s := newStream(bytes.NewReader(enc), 0)
	raw, err := s.Raw()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, enc) {
		t.Errorf("got %x, want %x", raw, enc)
	}
}

func TestStreamReset(t *testing.T) {
	s := newStream(bytes.NewReader(mustHex("01")), 0)
	if v, _ := s.Uint64(); v != 1 {
		t.Fatal("bad")
	}
	s.Reset(bytes.NewReader(mustHex("02")), 0)
	if v, _ := s.Uint64(); v != 2 {
		t.Fatal("bad after reset")
	}
}

func TestCountValues(t *testing.T) {
	n, err := CountValues(mustHex("0102c20304"))
	if err != nil || n != 3 {
		t.Errorf("got %d, %v", n, err)
	}
}

func TestSplitList(t *testing.T) {
	content, rest, err := SplitList(mustHex("c2010205"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(content, []byte{1, 2}) || !bytes.Equal(rest, []byte{5}) {
		t.Errorf("content %x rest %x", content, rest)
	}
	if _, _, err := SplitList(mustHex("83010203")); err != ErrExpectedList {
		t.Errorf("got %v", err)
	}
}

func TestSplitString(t *testing.T) {
	content, rest, err := SplitString(mustHex("83646f6701"))
	if err != nil {
		t.Fatal(err)
	}
	if string(content) != "dog" || !bytes.Equal(rest, []byte{1}) {
		t.Errorf("content %q rest %x", content, rest)
	}
}

// Property: uint64 values always round-trip.
func TestQuickUint64RoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		enc, err := EncodeToBytes(v)
		if err != nil {
			return false
		}
		var out uint64
		if err := DecodeBytes(enc, &out); err != nil {
			return false
		}
		return out == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: byte strings always round-trip.
func TestQuickBytesRoundTrip(t *testing.T) {
	f := func(b []byte) bool {
		enc, err := EncodeToBytes(b)
		if err != nil {
			return false
		}
		var out []byte
		if err := DecodeBytes(enc, &out); err != nil {
			return false
		}
		return bytes.Equal(out, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: big integers (non-negative) round-trip.
func TestQuickBigIntRoundTrip(t *testing.T) {
	f := func(b []byte) bool {
		v := new(big.Int).SetBytes(b)
		enc, err := EncodeToBytes(v)
		if err != nil {
			return false
		}
		out := new(big.Int)
		if err := DecodeBytes(enc, &out); err != nil {
			return false
		}
		return out.Cmp(v) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: nested string slices round-trip.
func TestQuickStringSliceRoundTrip(t *testing.T) {
	f := func(v []string) bool {
		enc, err := EncodeToBytes(v)
		if err != nil {
			return false
		}
		var out []string
		if err := DecodeBytes(enc, &out); err != nil {
			return false
		}
		if len(out) != len(v) {
			return false
		}
		for i := range v {
			if out[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the decoder never panics on arbitrary input bytes.
func TestQuickDecoderNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(64)
		b := make([]byte, n)
		rng.Read(b)
		var s []any
		_ = DecodeBytes(b, &s) // must not panic
		var u uint64
		_ = DecodeBytes(b, &u)
		var raw RawValue
		_ = DecodeBytes(b, &raw)
	}
}

// Property: struct encoding equals the encoding of its field list.
func TestQuickStructFieldEquivalence(t *testing.T) {
	f := func(a uint64, b []byte, c string) bool {
		type s struct {
			A uint64
			B []byte
			C string
		}
		e1, err1 := EncodeToBytes(s{a, b, c})
		e2, err2 := EncodeToBytes([]any{a, b, c})
		return err1 == nil && err2 == nil && bytes.Equal(e1, e2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeDeeplyNested(t *testing.T) {
	// 2000 nested lists must be rejected, not overflow the stack.
	b := bytes.Repeat([]byte{0xC1}, 2000)
	b = append(b, 0xC0)
	var v any
	if err := DecodeBytes(b, &v); err == nil {
		t.Error("expected nesting depth error")
	}
}

func BenchmarkDecodeIntSlice(b *testing.B) {
	vals := make([]uint64, 128)
	for i := range vals {
		vals[i] = uint64(i * 7777)
	}
	enc, _ := EncodeToBytes(vals)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var out []uint64
		if err := DecodeBytes(enc, &out); err != nil {
			b.Fatal(err)
		}
	}
}
