package rlp

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/big"
	"strings"
	"testing"
)

// encTest is one encoding vector: how to append a value, how to read
// it back from a Stream, and its expected hex.
type encTest struct {
	enc  func([]byte) []byte
	dec  func(*Stream) (any, error)
	val  any
	want string
}

func uintVec(i uint64, want string) encTest {
	return encTest{func(b []byte) []byte { return AppendUint(b, i) }, func(s *Stream) (any, error) { return s.Uint64() }, i, want}
}

func bigVec(i *big.Int, want string) encTest {
	dec := func(s *Stream) (any, error) {
		v, err := s.BigInt()
		if err != nil {
			return nil, err
		}
		if i == nil && v.Sign() == 0 || i != nil && v.Cmp(i) == 0 {
			return i, nil // nil encodes as zero
		}
		return v, nil
	}
	return encTest{func(b []byte) []byte { return AppendBigInt(b, i) }, dec, i, want}
}

func bytesVec(p []byte, want string) encTest {
	return encTest{func(b []byte) []byte { return AppendBytes(b, p) }, func(s *Stream) (any, error) { return s.Bytes() }, p, want}
}

func stringVec(str, want string) encTest {
	return encTest{func(b []byte) []byte { return AppendString(b, str) }, func(s *Stream) (any, error) { return s.Text() }, str, want}
}

// listVec encodes its elements with elem inside one list and reads
// them back with read.
func listVec[T any](elems []T, elem func([]byte, T) []byte, read func(*Stream) (T, error), want string) encTest {
	enc := func(b []byte) []byte {
		b, l := ListStart(b)
		for _, e := range elems {
			b = elem(b, e)
		}
		return ListEnd(b, l)
	}
	dec := func(s *Stream) (any, error) {
		if _, err := s.List(); err != nil {
			return nil, err
		}
		out := []T{}
		for s.MoreDataInList() {
			e, err := read(s)
			if err != nil {
				return nil, err
			}
			out = append(out, e)
		}
		return out, s.ListEnd()
	}
	return encTest{enc, dec, elems, want}
}

// nestedVec builds nested empty lists: each element is the number of
// lists it contains.
func nestedVec() encTest {
	var nest func(b []byte, depth int) []byte
	nest = func(b []byte, depth int) []byte {
		b, l := ListStart(b)
		for i := range depth {
			b = nest(b, i)
		}
		return ListEnd(b, l)
	}
	return encTest{func(b []byte) []byte { return nest(b, 3) }, func(s *Stream) (any, error) { return s.Raw() }, nil, "c7c0c1c0c3c0c1c0"}
}

// The classic vectors from the Ethereum wiki plus edge cases.
var encTests = []encTest{
	// Booleans.
	{func(b []byte) []byte { return AppendBool(b, true) }, func(s *Stream) (any, error) { return s.Bool() }, true, "01"},
	{func(b []byte) []byte { return AppendBool(b, false) }, func(s *Stream) (any, error) { return s.Bool() }, false, "80"},

	// Integers.
	uintVec(0, "80"),
	uintVec(1, "01"),
	uintVec(0x7f, "7f"),
	uintVec(0x80, "8180"),
	uintVec(0xff, "81ff"),
	uintVec(0x100, "820100"),
	uintVec(1024, "820400"),
	uintVec(0xffffff, "83ffffff"),
	uintVec(0xffffffff, "84ffffffff"),
	uintVec(0xffffffffff, "85ffffffffff"),
	uintVec(0xffffffffffff, "86ffffffffffff"),
	uintVec(0xffffffffffffff, "87ffffffffffffff"),
	uintVec(0xffffffffffffffff, "88ffffffffffffffff"),

	// Big integers.
	bigVec(big.NewInt(0), "80"),
	bigVec(big.NewInt(1), "01"),
	bigVec(big.NewInt(127), "7f"),
	bigVec(big.NewInt(128), "8180"),
	bigVec(new(big.Int).SetBytes(mustHex("102030405060708090a0b0c0d0e0f2")), "8f102030405060708090a0b0c0d0e0f2"),
	bigVec(new(big.Int).SetBytes(mustHex("0100020003000400050006000700080009000a000b000c000d000e01")), "9c0100020003000400050006000700080009000a000b000c000d000e01"),
	bigVec(nil, "80"),

	// Byte strings.
	bytesVec([]byte{}, "80"),
	bytesVec([]byte{0x00}, "00"),
	bytesVec([]byte{0x7e}, "7e"),
	bytesVec([]byte{0x7f}, "7f"),
	bytesVec([]byte{0x80}, "8180"),
	bytesVec([]byte("dog"), "83646f67"),
	bytesVec([]byte("Lorem ipsum dolor sit amet, consectetur adipisicing elit"),
		"b8384c6f72656d20697073756d20646f6c6f722073697420616d65742c20636f6e7365637465747572206164697069736963696e6720656c6974"),
	stringVec("dog", "83646f67"),
	stringVec("", "80"),

	// Lists.
	listVec([]uint64{}, AppendUint, (*Stream).Uint64, "c0"),
	listVec([]uint64{1, 2, 3}, AppendUint, (*Stream).Uint64, "c3010203"),
	listVec([]string{"cat", "dog"}, AppendString, (*Stream).Text, "c88363617483646f67"),
	// The set-theoretic representation of three:
	// [ [], [[]], [ [], [[]] ] ]
	nestedVec(),
	// A payload of 56 bytes or more moves up behind a longer header.
	listVec([]string{strings.Repeat("a", 60)}, AppendString, (*Stream).Text, "f83eb83c"+strings.Repeat("61", 60)),

	// RawValue pass-through.
	{func(b []byte) []byte { return AppendRaw(b, RawValue(mustHex("c20102"))) }, func(s *Stream) (any, error) { return s.Raw() }, []byte(mustHex("c20102")), "c20102"},
}

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

func TestEncodeVectors(t *testing.T) {
	for i, test := range encTests {
		// Into a used buffer: the helpers append.
		got := test.enc([]byte{0xAB})
		if got[0] != 0xAB || hex.EncodeToString(got[1:]) != test.want {
			t.Errorf("test %d (%#v): got %x, want ab%s", i, test.val, got, test.want)
		}
	}
}

func TestEncodeNegativeBigInt(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AppendBigInt(-1) did not panic")
		}
	}()
	AppendBigInt(nil, big.NewInt(-1))
}

func TestEncodeUnsupportedTypes(t *testing.T) {
	for _, v := range []any{int(1), int64(-5), float64(1.5), map[string]string{}, make(chan int)} {
		if _, err := EncodeToBytes(v); err == nil {
			t.Errorf("expected error encoding %T", v)
		}
	}
}

func TestEncodeTailField(t *testing.T) {
	// A captured tail is spliced into the outer list, not nested.
	b, l := ListStart(nil)
	b = AppendUint(b, 1)
	b = AppendRaw(b, RawValue{0x02}, RawValue{0x03})
	if got := hex.EncodeToString(ListEnd(b, l)); got != "c3010203" {
		t.Errorf("got %s, want c3010203", got)
	}
}

func TestEncodeCustomEncoder(t *testing.T) {
	got, err := EncodeToBytes(&customEnc{})
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(got) != "c20102" {
		t.Errorf("got %x", got)
	}
}

type customEnc struct{}

var _ Encoder = (*customEnc)(nil)

func (c *customEnc) AppendRLP(b []byte) []byte { return append(b, mustHex("c20102")...) }

func TestEncodeLongList(t *testing.T) {
	// A list longer than 55 bytes gets a multi-byte header.
	vals := make([]uint64, 60)
	for i := range vals {
		vals[i] = 1
	}
	got, err := EncodeToBytes(vals)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xF8 || got[1] != 60 {
		t.Errorf("header = %x %x, want f8 3c", got[0], got[1])
	}
	if len(got) != 62 {
		t.Errorf("len = %d, want 62", len(got))
	}
}

func TestEncodeLongString(t *testing.T) {
	got := AppendBytes(nil, make([]byte, 1024))
	if got[0] != 0xB9 || got[1] != 0x04 || got[2] != 0x00 {
		t.Errorf("header = %x", got[:3])
	}
}

func TestAppendUint(t *testing.T) {
	for _, i := range []uint64{0, 1, 0x7f, 0x80, 0x100, 0xffffffffffffffff} {
		want, _ := EncodeToBytes(i)
		got := AppendUint(nil, i)
		if !bytes.Equal(got, want) {
			t.Errorf("AppendUint(%d) = %x, want %x", i, got, want)
		}
	}
}

func BenchmarkEncodeIntSlice(b *testing.B) {
	vals := make([]uint64, 128)
	for i := range vals {
		vals[i] = uint64(i * 7777)
	}
	buf := make([]byte, 0, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeAppend(buf, vals); err != nil {
			b.Fatal(err)
		}
	}
}

// pair is a two-field wire type that codes itself.
type pair struct {
	Name string
	Port uint64
}

func (p *pair) AppendRLP(b []byte) []byte {
	b, list := ListStart(b)
	b = AppendString(b, p.Name)
	b = AppendUint(b, p.Port)
	return ListEnd(b, list)
}

func ExampleEncodeToBytes() {
	b, _ := EncodeToBytes(&pair{Name: "cat", Port: 30303})
	fmt.Printf("%x\n", b)
	// Output: c78363617482765f
}
