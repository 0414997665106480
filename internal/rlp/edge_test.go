package rlp

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// Additional edge-path coverage: the front doors' corner cases, the
// stream's integer readers, and the splitter's error paths.

func TestEncodeNilEncoderPointer(t *testing.T) {
	// A nil element of a list of self-coding pointers encodes as an
	// empty list by convention.
	got := appendList(nil, []*customEnc{nil, {}})
	if !bytes.Equal(got, mustHex("c4c0c20102")) {
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

func TestStreamIntegerSizes(t *testing.T) {
	if v, err := newStream(mustHex("08")).Uint8(); err != nil || v != 8 {
		t.Fatal(v, err)
	}
	if v, err := newStream(mustHex("820400")).Uint16(); err != nil || v != 1024 {
		t.Fatal(v, err)
	}
	if v, err := newStream(mustHex("84ffffffff")).Uint32(); err != nil || v != 0xffffffff {
		t.Fatal(v, err)
	}
	// Overflow per size.
	for _, tc := range []struct {
		in   string
		read func(*Stream) error
	}{
		{"820400", func(s *Stream) error { _, err := s.Uint8(); return err }},
		{"83010000", func(s *Stream) error { _, err := s.Uint16(); return err }},
		{"850100000000", func(s *Stream) error { _, err := s.Uint32(); return err }},
	} {
		if err := tc.read(newStream(mustHex(tc.in))); !errors.Is(err, ErrUintOverflow) {
			t.Errorf("%s: %v, want ErrUintOverflow", tc.in, err)
		}
	}
}

func TestStreamBoolErrors(t *testing.T) {
	if _, err := newStream(mustHex("02")).Bool(); err == nil {
		t.Fatal("2 accepted as bool")
	}
}

func TestStreamBigIntCanon(t *testing.T) {
	// Leading zero byte in a big int is non-canonical.
	if _, err := newStream(mustHex("820001")).BigInt(); !errors.Is(err, ErrCanonInt) {
		t.Fatal(err)
	}
}

func TestStreamListEndErrors(t *testing.T) {
	s := newStream(mustHex("c20102"))
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
	s := newStream(mustHex("83646f6705"))
	if err := s.Skip(); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Uint64(); err != nil || v != 5 {
		t.Fatal(v, err)
	}
}

func TestCountValuesErrors(t *testing.T) {
	for _, in := range []string{"c283ab", "c3b90000"} {
		s := newStream(mustHex(in))
		s.List() //nolint:errcheck
		if _, err := s.count(); err == nil {
			t.Errorf("%s: malformed value counted", in)
		}
	}
}

func TestSplitErrors(t *testing.T) {
	if _, _, err := SplitString(nil); err == nil {
		t.Fatal("empty split accepted")
	}
	if _, _, err := SplitString(mustHex("c501")); err != ErrValueTooLarge {
		t.Fatalf("list: got %v", err)
	}
	if _, _, err := SplitString(mustHex("c0")); err != ErrExpectedString {
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

func TestRawValueRoundTrip(t *testing.T) {
	raw, err := newStream(mustHex("c20102")).Raw()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, mustHex("c20102")) {
		t.Errorf("got %x", raw)
	}
	if enc := AppendRaw(nil, raw); !bytes.Equal(enc, mustHex("c20102")) {
		t.Fatalf("got %x", enc)
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
