package rlp

import (
	"bytes"
	"errors"
	"io"
	"math/big"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func newStream(b []byte) *Stream { return &Stream{in: b} }

func TestDecodeVectorsRoundTrip(t *testing.T) {
	// Every encoding vector must read back to the original value,
	// consuming the whole input.
	for i, test := range encTests {
		s := newStream(mustHex(test.want))
		got, err := test.dec(s)
		if err != nil {
			t.Errorf("test %d (%s): decode error: %v", i, test.want, err)
			continue
		}
		if test.val != nil && !reflect.DeepEqual(got, test.val) {
			t.Errorf("test %d: round trip %#v -> %#v", i, test.val, got)
		}
		if _, _, err := s.Kind(); err != io.EOF {
			t.Errorf("test %d: %v after the value, want io.EOF", i, err)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	bytesOf := func(s *Stream) error { _, err := s.Bytes(); return err }
	textOf := func(s *Stream) error { _, err := s.Text(); return err }
	u64 := func(s *Stream) error { _, err := s.Uint64(); return err }
	u8 := func(s *Stream) error { _, err := s.Uint8(); return err }
	list := func(s *Stream) error { _, err := s.uint64s(); return err }
	tests := []struct {
		input string
		read  func(*Stream) error
		want  error
	}{
		// Non-canonical single byte as string size.
		{"8100", bytesOf, ErrCanonSize},
		{"817f", bytesOf, ErrCanonSize},
		// Leading zero in integer.
		{"820011", u64, ErrCanonInt},
		{"00", u64, ErrCanonInt},
		{"8100", u64, ErrCanonInt},
		// Non-minimal length-of-length.
		{"b800", bytesOf, ErrCanonSize},
		{"b90037", bytesOf, ErrCanonSize},
		{"f80102", list, ErrCanonSize},
		// Kind mismatches.
		{"c0", u64, ErrExpectedString},
		{"c0", bytesOf, ErrExpectedString},
		{"c0", textOf, ErrExpectedString},
		{"83646f67", list, ErrExpectedList},
		// Overflow.
		{"89ffffffffffffffffff", u64, ErrUintOverflow},
		{"8180", u8, nil}, // 128 fits a uint8
		{"820100", u8, ErrUintOverflow},
		// Truncated input: the announced size exceeds the input.
		{"83", bytesOf, ErrValueTooLarge},
		{"c3", list, ErrValueTooLarge},
		{"b90400", bytesOf, ErrValueTooLarge},
		{"bfffffffffffffffff", list, ErrValueTooLarge},
		// Element larger than containing list.
		{"c2820505", list, ErrElemTooLarge},
		{"c2b90400", list, ErrElemTooLarge},
	}
	for _, test := range tests {
		err := test.read(newStream(mustHex(test.input)))
		if test.want == nil {
			if err != nil {
				t.Errorf("input %s: unexpected error %v", test.input, err)
			}
			continue
		}
		if !errors.Is(err, test.want) {
			t.Errorf("input %s: got %v, want %v", test.input, err, test.want)
		}
	}
}

func TestDecodeTrailingBytes(t *testing.T) {
	var x uint64
	err := DecodeBytes(mustHex("0105"), &x)
	if !errors.Is(err, ErrMoreThanOneValue) {
		t.Errorf("got %v, want ErrMoreThanOneValue", err)
	}
	if err := DecodeFirst(mustHex("0105"), &x); err != nil || x != 1 {
		t.Errorf("DecodeFirst: %d, %v; want 1, nil", x, err)
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

// inner and outer are self-coding types nested the way wire types
// nest: outer = [A, B, inner, D...], inner = [X].
type inner struct{ X uint64 }

type outer struct {
	A uint64
	B string
	C inner
	D []uint64
}

func (in *inner) AppendRLP(b []byte) []byte {
	b, l := ListStart(b)
	return ListEnd(AppendUint(b, in.X), l)
}

func (in *inner) DecodeRLP(s *Stream) (err error) {
	if _, err = s.List(); err != nil {
		return err
	}
	if in.X, err = s.Uint64(); err != nil {
		return err
	}
	return s.ListEnd()
}

func (o *outer) AppendRLP(b []byte) []byte {
	b, l := ListStart(b)
	b = AppendUint(b, o.A)
	b = AppendString(b, o.B)
	b = o.C.AppendRLP(b)
	b, _ = EncodeAppend(b, o.D)
	return ListEnd(b, l)
}

func (o *outer) DecodeRLP(s *Stream) (err error) {
	if _, err = s.List(); err != nil {
		return err
	}
	if o.A, err = s.Uint64(); err != nil {
		return err
	}
	if o.B, err = s.Text(); err != nil {
		return err
	}
	if err = o.C.DecodeRLP(s); err != nil {
		return err
	}
	if o.D, err = s.uint64s(); err != nil {
		return err
	}
	return s.ListEnd()
}

func TestDecodeStruct(t *testing.T) {
	want := outer{7, "hi", inner{9}, []uint64{1, 2}}
	enc, err := EncodeToBytes(&want)
	if err != nil {
		t.Fatal(err)
	}
	var got outer
	if err := DecodeBytes(enc, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

func TestDecodeStructErrors(t *testing.T) {
	// Too few elements: the missing one reads as EOL.
	if err := DecodeBytes(mustHex("c101"), &outer{}); !errors.Is(err, EOL) {
		t.Errorf("short list: %v, want EOL", err)
	}
	// Too many elements: ListEnd refuses to leave the list.
	if err := DecodeBytes(mustHex("c30102c0"), &inner{}); err == nil {
		t.Error("expected error for long list")
	}
}

func TestDecodeTailField(t *testing.T) {
	s := newStream(mustHex("c3010203"))
	s.List()   //nolint:errcheck
	s.Uint64() //nolint:errcheck
	rest, err := s.Rest()
	if err != nil || !reflect.DeepEqual(rest, []RawValue{{0x02}, {0x03}}) {
		t.Errorf("got %x, %v", rest, err)
	}
	if err := s.ListEnd(); err != nil {
		t.Fatal(err)
	}
	// Empty tail is nil.
	s = newStream(mustHex("c101"))
	s.List()   //nolint:errcheck
	s.Uint64() //nolint:errcheck
	if rest, err := s.Rest(); rest != nil || err != nil {
		t.Errorf("got %x, %v", rest, err)
	}
	// A tail element that overruns its list is refused.
	s = newStream(mustHex("c20183"))
	s.List()   //nolint:errcheck
	s.Uint64() //nolint:errcheck
	if _, err := s.Rest(); !errors.Is(err, ErrElemTooLarge) {
		t.Errorf("overrun tail: %v", err)
	}
}

func TestDecodeByteArray(t *testing.T) {
	var a [4]byte
	if err := newStream(mustHex("8401020304")).ReadBytes(a[:]); err != nil {
		t.Fatal(err)
	}
	if a != [4]byte{1, 2, 3, 4} {
		t.Errorf("got %x", a)
	}
	// Wrong size.
	if err := newStream(mustHex("83010203")).ReadBytes(a[:]); err == nil {
		t.Error("expected size mismatch error")
	}
}

func TestStreamList(t *testing.T) {
	s := newStream(mustHex("c50183040404"))
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
	s := newStream(mustHex("c801c202038364" + "6f67"))
	if _, err := s.List(); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Uint64(); v != 1 {
		t.Fatal("bad first element")
	}
	if err := s.Skip(); err != nil {
		t.Fatal(err)
	}
	b, err := s.Text()
	if err != nil || b != "dog" {
		t.Fatalf("got %q, %v", b, err)
	}
}

func TestStreamRaw(t *testing.T) {
	enc := mustHex("c88363617483646f67")
	raw, err := newStream(enc).Raw()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, enc) {
		t.Errorf("got %x, want %x", raw, enc)
	}
	// The copy does not alias the input.
	raw[1] = 0
	if enc[1] == 0 {
		t.Error("Raw aliases its input")
	}
}

func TestCountValues(t *testing.T) {
	s := newStream(mustHex("c50102c20304"))
	s.List() //nolint:errcheck
	n, err := s.count()
	if err != nil || n != 3 {
		t.Errorf("got %d, %v", n, err)
	}
	// Counting consumes nothing.
	if v, err := s.Uint64(); v != 1 || err != nil {
		t.Errorf("after count: %d, %v", v, err)
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
		out, err := newStream(AppendBytes(nil, b)).Bytes()
		return err == nil && bytes.Equal(out, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: big integers (non-negative) round-trip.
func TestQuickBigIntRoundTrip(t *testing.T) {
	f := func(b []byte) bool {
		v := new(big.Int).SetBytes(b)
		out, err := newStream(AppendBigInt(nil, v)).BigInt()
		return err == nil && out.Cmp(v) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: lists of strings round-trip.
func TestQuickStringSliceRoundTrip(t *testing.T) {
	f := func(v []string) bool {
		b, l := ListStart(nil)
		for _, str := range v {
			b = AppendString(b, str)
		}
		s := newStream(ListEnd(b, l))
		if _, err := s.List(); err != nil {
			return false
		}
		for _, want := range v {
			if got, err := s.Text(); err != nil || got != want {
				return false
			}
		}
		return s.ListEnd() == nil
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
		var s []uint64
		_ = DecodeBytes(b, &s) // must not panic
		var u uint64
		_ = DecodeBytes(b, &u)
		_, _ = newStream(b).Raw()
		var o outer
		_ = DecodeBytes(b, &o)
	}
}

// Property: a list built with ListStart and ListEnd is its elements'
// encodings behind one header for their total size, however long.
func TestQuickStructFieldEquivalence(t *testing.T) {
	f := func(a uint64, b []byte, c string) bool {
		e1, l := ListStart([]byte{0xAB})
		e1 = AppendUint(e1, a)
		e1 = AppendBytes(e1, b)
		e1 = AppendString(e1, c)
		e1 = ListEnd(e1, l)
		payload := AppendString(AppendBytes(AppendUint(nil, a), b), c)
		e2 := append(appendHead([]byte{0xAB}, 0xC0, uint64(len(payload))), payload...)
		return bytes.Equal(e1, e2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeDeeplyNested(t *testing.T) {
	// Lists nested 2000 deep must be refused at maxDepth, not followed.
	var b []byte
	starts := make([]int, 2000)
	for i := range starts {
		b, starts[i] = ListStart(b)
	}
	for i := len(starts) - 1; i >= 0; i-- {
		b = ListEnd(b, starts[i])
	}
	s := newStream(b)
	var err error
	depth := 0
	for ; err == nil; depth++ {
		_, err = s.List()
	}
	if depth != maxDepth+1 || !strings.Contains(err.Error(), "nested") {
		t.Errorf("List failed at depth %d (%v), want %d", depth, err, maxDepth+1)
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
