package rlp

import (
	"bytes"
	"errors"
	"io"
	"math/big"
	"runtime"
	"testing"
)

// Additional edge-path coverage: encoder corner cases, stream integer
// readers, and split/count error paths.

func TestEncodeNilEncoderPointer(t *testing.T) {
	// A nil pointer whose type implements Encoder encodes as an
	// empty list by convention.
	var e *customEnc
	got, err := EncodeToBytes(e)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{0xC0}) {
		t.Errorf("got %x", got)
	}
}

func TestEncoderValueReceiverViaAddress(t *testing.T) {
	// A struct FIELD of a type with pointer-receiver EncodeRLP must
	// still use the custom encoder (the encoder takes the address).
	type wrapper struct {
		C customEnc
	}
	got, err := EncodeToBytes(&wrapper{})
	if err != nil {
		t.Fatal(err)
	}
	// wrapper encodes as [ c20102 ] => c3 c2 01 02
	if !bytes.Equal(got, mustHex("c3c20102")) {
		t.Errorf("got %x", got)
	}
}

func TestEncodeNilInterface(t *testing.T) {
	if _, err := EncodeToBytes(nil); err == nil {
		t.Fatal("nil accepted")
	}
	var v any
	if _, err := EncodeToBytes([]any{v}); err == nil {
		t.Fatal("nil interface element accepted")
	}
}

func TestEncodeBigIntValue(t *testing.T) {
	// big.Int by value (not pointer).
	v := *big.NewInt(300)
	got, err := EncodeToBytes(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mustHex("82012c")) {
		t.Errorf("got %x", got)
	}
	var back big.Int
	if err := DecodeBytes(got, &back); err != nil {
		t.Fatal(err)
	}
	if back.Int64() != 300 {
		t.Errorf("got %v", back)
	}
}

func TestEncodeUnaddressableByteArray(t *testing.T) {
	m := map[string][4]byte{"k": {1, 2, 3, 4}}
	got, err := EncodeToBytes(m["k"]) // map values are unaddressable
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mustHex("8401020304")) {
		t.Errorf("got %x", got)
	}
}

func TestStreamIntegerSizes(t *testing.T) {
	s := newStream(bytes.NewReader(mustHex("08")), 0)
	if v, err := s.Uint8(); err != nil || v != 8 {
		t.Fatal(v, err)
	}
	s.Reset(bytes.NewReader(mustHex("820400")), 0)
	if v, err := s.Uint16(); err != nil || v != 1024 {
		t.Fatal(v, err)
	}
	s.Reset(bytes.NewReader(mustHex("84ffffffff")), 0)
	if v, err := s.Uint32(); err != nil || v != 0xffffffff {
		t.Fatal(v, err)
	}
	// Overflow per size.
	s.Reset(bytes.NewReader(mustHex("820400")), 0)
	if _, err := s.Uint8(); !errors.Is(err, ErrUintOverflow) {
		t.Fatal(err)
	}
}

// TestStreamUnlimitedDistrustsDeclaredSize is the runtime twin of
// readBytesSized's preallocation cap. An unlimited stream (a reader
// Reset cannot size) meets a header declaring a 1 GiB string followed
// by 10 bytes: Bytes and Raw must fail on the short body having
// allocated in proportion to what arrived, not to what was declared.
func TestStreamUnlimitedDistrustsDeclaredSize(t *testing.T) {
	const budget = 1 << 20
	header := []byte{0xbb, 0x40, 0x00, 0x00, 0x00} // string, 4-byte size 0x40000000
	body := make([]byte, 10)
	var s Stream
	for _, read := range []struct {
		name string
		f    func() ([]byte, error)
	}{
		{"Bytes", s.Bytes},
		{"Raw", s.Raw},
	} {
		s.Reset(io.MultiReader(bytes.NewReader(header), bytes.NewReader(body)), 0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b, err := read.f()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: 1 GiB declared, 10 bytes sent: returned %d bytes and no error", read.name, len(b))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > budget {
			t.Errorf("%s: allocated %d bytes for a 10-byte body, want at most %d", read.name, grew, budget)
		}
	}
}

func TestStreamBoolErrors(t *testing.T) {
	s := newStream(bytes.NewReader(mustHex("02")), 0)
	if _, err := s.Bool(); err == nil {
		t.Fatal("2 accepted as bool")
	}
}

func TestStreamBigIntCanon(t *testing.T) {
	// Leading zero byte in a big int is non-canonical.
	s := newStream(bytes.NewReader(mustHex("820001")), 0)
	if _, err := s.BigInt(); !errors.Is(err, ErrCanonInt) {
		t.Fatal(err)
	}
}

func TestStreamListEndErrors(t *testing.T) {
	s := newStream(bytes.NewReader(mustHex("c20102")), 0)
	if err := s.ListEnd(); err == nil {
		t.Fatal("ListEnd outside list accepted")
	}
	if _, err := s.List(); err != nil {
		t.Fatal(err)
	}
	if err := s.ListEnd(); err == nil {
		t.Fatal("ListEnd with unconsumed elements accepted")
	}
}

func TestStreamSkipString(t *testing.T) {
	s := newStream(bytes.NewReader(mustHex("83646f6705")), 0)
	if err := s.Skip(); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Uint64(); err != nil || v != 5 {
		t.Fatal(v, err)
	}
}

func TestCountValuesErrors(t *testing.T) {
	if _, err := CountValues(mustHex("83ab")); err == nil {
		t.Fatal("truncated value counted")
	}
	if _, err := CountValues(mustHex("b90000")); err == nil {
		t.Fatal("non-canonical size counted")
	}
}

func TestSplitErrors(t *testing.T) {
	if _, _, err := SplitList(nil); err == nil {
		t.Fatal("empty split accepted")
	}
	if _, _, err := SplitList(mustHex("c501")); err != ErrValueTooLarge {
		t.Fatalf("list: got %v", err)
	}
	if _, _, err := SplitString(mustHex("8501")); err != ErrValueTooLarge {
		t.Fatalf("string: got %v", err)
	}
}

func TestDecodeIntoNonEmptyInterface(t *testing.T) {
	var w io.Writer
	if err := DecodeBytes(mustHex("c0"), &w); err == nil {
		t.Fatal("non-empty interface accepted")
	}
}

func TestStructTagErrors(t *testing.T) {
	type badTag struct {
		A uint `rlp:"bogus"`
	}
	if _, err := EncodeToBytes(badTag{}); err == nil {
		t.Fatal("unknown tag accepted")
	}
	type tailNotSlice struct {
		A uint `rlp:"tail"`
	}
	if _, err := EncodeToBytes(tailNotSlice{}); err == nil {
		t.Fatal("non-slice tail accepted")
	}
	type fieldAfterTail struct {
		A []uint `rlp:"tail"`
		B uint
	}
	if _, err := EncodeToBytes(fieldAfterTail{}); err == nil {
		t.Fatal("field after tail accepted")
	}
	type optThenRequired struct {
		A uint `rlp:"optional"`
		B uint
	}
	if _, err := EncodeToBytes(optThenRequired{}); err == nil {
		t.Fatal("required after optional accepted")
	}
}

func TestRawValueRoundTrip(t *testing.T) {
	var raw RawValue
	if err := DecodeBytes(mustHex("c20102"), &raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, mustHex("c20102")) {
		t.Errorf("got %x", raw)
	}
	enc, err := EncodeToBytes(raw)
	if err != nil || !bytes.Equal(enc, mustHex("c20102")) {
		t.Fatalf("got %x, %v", enc, err)
	}
}

func TestDecoderInterfaceUsed(t *testing.T) {
	var d customDec
	if err := DecodeBytes(mustHex("2a"), &d); err != nil {
		t.Fatal(err)
	}
	if d.got != 42 {
		t.Errorf("got %d", d.got)
	}
}

type customDec struct{ got uint64 }

func (d *customDec) DecodeRLP(s *Stream) error {
	v, err := s.Uint64()
	d.got = v
	return err
}
