package rlp

import (
	"bytes"
	"fmt"
	"io"
	"math/big"
	"reflect"
	"testing"
)

// Differential tests: the compiled-plan codec against the reflection
// oracle (oracle_test.go). Every target decodes the same input twice
// (DecodeBytes vs oracleDecodeBytes), requires identical outcomes and
// values, then re-encodes both results and requires identical bytes.
// For types without custom codecs the error text must match too —
// the plan decoder reproduces the Stream error taxonomy exactly.

// hashOrNum mirrors eth.HashOrNumber: a custom Encoder/Decoder that
// picks its wire shape (32-byte string vs integer) at runtime.
type hashOrNum struct {
	Hash   [32]byte
	Number uint64
	IsHash bool
}

func (h *hashOrNum) EncodeRLP(w io.Writer) error {
	if h.IsHash {
		return Encode(w, h.Hash)
	}
	return Encode(w, h.Number)
}

func (h *hashOrNum) DecodeRLP(s *Stream) error {
	kind, size, err := s.Kind()
	if err != nil {
		return err
	}
	if kind == String && size == 32 {
		h.IsHash = true
		return s.Decode(&h.Hash)
	}
	h.IsHash = false
	return s.Decode(&h.Number)
}

// customWrap embeds the custom codec by value (pointer-receiver
// Encoder used on an addressable value), by pointer (nil and
// non-nil), and next to plain fields.
type customWrap struct {
	Pre  uint64
	H    hashOrNum
	P    *hashOrNum
	Post string
}

// bigLike exercises both big.Int shapes plus a tail of pointers.
type bigLike struct {
	A *big.Int
	B big.Int
	C []*big.Int `rlp:"tail"`
}

// ptrLike exercises nil-pointer round-trips across element kinds.
type ptrLike struct {
	P *capLike
	N *[]uint64
	R *[4]byte
	U *uint64
	S *string
}

// optLike exercises trailing-optional omission.
type optLike struct {
	A uint64
	B uint64 `rlp:"optional"`
	C []byte `rlp:"optional"`
}

// ifaceLike exercises the dynamic (empty-interface) ops.
type ifaceLike struct {
	V any
	W []any
}

// diffDecode runs one decode through both backends and fails on any
// divergence. strictErr additionally requires identical error text
// (custom DecodeRLP implementations run on a sub-stream in the plan
// path, so their exotic truncation errors may differ in identity
// while still agreeing on failure).
func diffDecode(t *testing.T, data []byte, fast, oracle any, strictErr bool) bool {
	t.Helper()
	errF := DecodeBytes(data, fast)
	errO := oracleDecodeBytes(data, oracle)
	if (errF == nil) != (errO == nil) {
		t.Fatalf("decode outcome diverged for %T\ninput: %x\nplan:   %v\noracle: %v", fast, data, errF, errO)
	}
	if errF != nil {
		if strictErr && errF.Error() != errO.Error() {
			t.Fatalf("decode error diverged for %T\ninput: %x\nplan:   %v\noracle: %v", fast, data, errF, errO)
		}
		return false
	}
	if !reflect.DeepEqual(fast, oracle) {
		t.Fatalf("decoded values diverged for %T\ninput: %x\nplan:   %#v\noracle: %#v", fast, data, fast, oracle)
	}
	encF, errF2 := EncodeToBytes(fast)
	encO, errO2 := oracleEncodeToBytes(oracle)
	if (errF2 == nil) != (errO2 == nil) {
		t.Fatalf("re-encode outcome diverged for %T: plan %v, oracle %v", fast, errF2, errO2)
	}
	if errF2 == nil && !bytes.Equal(encF, encO) {
		t.Fatalf("re-encoded bytes diverged for %T\nplan:   %x\noracle: %x", fast, encF, encO)
	}
	return true
}

func addOracleSeeds(f *testing.F, vals ...any) {
	f.Helper()
	for _, v := range vals {
		enc, err := oracleEncodeToBytes(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
}

func FuzzPlanVsOracleStruct(f *testing.F) {
	u := uint64(7)
	addOracleSeeds(f,
		&helloLike{Version: 5, Name: "plan", Caps: []capLike{{"eth", 63}, {"snap", 1}}, Port: 30303},
		&helloLike{Rest: []RawValue{{0x80}, {0xC0}}},
		&optLike{A: 1},
		&optLike{A: 1, B: 2, C: []byte{3}},
		&ptrLike{U: &u, S: new(string)},
		&ifaceLike{V: []byte("x"), W: []any{[]byte{1}, []any{}}},
	)
	f.Add([]byte{0xC0})
	f.Add([]byte{0xC5, 0x01, 0x80, 0xC0, 0x82, 0x05})
	f.Fuzz(func(t *testing.T, data []byte) {
		diffDecode(t, data, new(helloLike), new(helloLike), true)
		diffDecode(t, data, new(optLike), new(optLike), true)
		diffDecode(t, data, new(ptrLike), new(ptrLike), true)
		diffDecode(t, data, new(ifaceLike), new(ifaceLike), true)
	})
}

func FuzzPlanVsOracleSlice(f *testing.F) {
	addOracleSeeds(f,
		[]uint64{0, 1, 127, 128, 1 << 40},
		[][]byte{{}, {0x80}, bytes.Repeat([]byte{0xAA}, 60)},
		[]capLike{{"eth", 62}, {"les", 2}},
		[4]uint16{1, 2, 3, 4},
		[][2]byte{{1, 2}, {3, 4}},
		[]string{"", "a", "hello world"},
	)
	f.Add([]byte{0xC3, 0x01, 0x02, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		diffDecode(t, data, new([]uint64), new([]uint64), true)
		diffDecode(t, data, new([][]byte), new([][]byte), true)
		diffDecode(t, data, new([]capLike), new([]capLike), true)
		diffDecode(t, data, new([4]uint16), new([4]uint16), true)
		diffDecode(t, data, new([][2]byte), new([][2]byte), true)
		diffDecode(t, data, new([]string), new([]string), true)
	})
}

func FuzzPlanVsOracleBigInt(f *testing.F) {
	big1 := new(big.Int).Lsh(big.NewInt(1), 255)
	addOracleSeeds(f,
		big.NewInt(0),
		big.NewInt(127),
		big1,
		&bigLike{A: big1, B: *big.NewInt(56), C: []*big.Int{big.NewInt(1), big1}},
	)
	f.Add([]byte{0x00})       // non-canonical zero
	f.Add([]byte{0x81, 0x00}) // leading zero byte
	f.Fuzz(func(t *testing.T, data []byte) {
		diffDecode(t, data, new(big.Int), new(big.Int), true)
		aF, aO := new(*big.Int), new(*big.Int)
		diffDecode(t, data, aF, aO, true)
		diffDecode(t, data, new(bigLike), new(bigLike), true)
	})
}

func FuzzPlanVsOracleCustom(f *testing.F) {
	hashed := hashOrNum{IsHash: true}
	copy(hashed.Hash[:], bytes.Repeat([]byte{0xEE}, 32))
	addOracleSeeds(f,
		&hashOrNum{Number: 1234},
		&hashed,
		&customWrap{Pre: 9, H: hashed, P: &hashOrNum{Number: 7}, Post: "tail"},
		&customWrap{},
	)
	f.Add([]byte{0xC0})
	f.Fuzz(func(t *testing.T, data []byte) {
		diffDecode(t, data, new(hashOrNum), new(hashOrNum), false)
		diffDecode(t, data, new(customWrap), new(customWrap), false)
	})
}

// TestPlanMatchesOracle is the deterministic core of the differential
// suite: encode a broad table of values through both backends, then
// decode the canonical bytes back through both and compare.
func TestPlanMatchesOracle(t *testing.T) {
	u := uint64(42)
	str := "addr"
	big1 := new(big.Int).Lsh(big.NewInt(99), 200)
	hashed := hashOrNum{IsHash: true}
	hashed.Hash[0] = 0x7F
	vals := []any{
		uint8(0), uint16(300), uint32(1 << 20), uint64(1 << 50), uint(7), true, false,
		"", "x", "a longer string that needs a multi-byte header because it is over fifty-five bytes long....",
		[]byte{}, []byte{0x01}, bytes.Repeat([]byte{0xAB}, 100),
		[4]byte{1, 2, 3, 4}, [1]byte{0x7F}, [0]byte{},
		[]uint64{}, []uint64{1, 2, 3},
		[][]string{{"a"}, {}},
		RawValue{0xC2, 0x01, 0x02},
		big.NewInt(0), big.NewInt(55), big.NewInt(56), big1,
		&helloLike{Version: 5, Name: "geth", Caps: []capLike{{"eth", 63}}, Port: 30303,
			Rest: []RawValue{{0x01}}},
		&optLike{A: 1}, &optLike{A: 1, B: 2}, &optLike{A: 1, B: 0, C: []byte{9}},
		&ptrLike{}, &ptrLike{U: &u, S: &str, R: &[4]byte{4, 3, 2, 1}},
		&bigLike{A: big1, C: []*big.Int{}},
		&hashOrNum{Number: 88}, &hashed,
		&customWrap{Pre: 1, H: hashed, Post: "p"},
		&ifaceLike{V: []byte{}, W: []any{[]byte{0x30}}},
	}
	for _, v := range vals {
		encF, errF := EncodeToBytes(v)
		encO, errO := oracleEncodeToBytes(v)
		if (errF == nil) != (errO == nil) {
			t.Fatalf("encode outcome diverged for %T: plan %v, oracle %v", v, errF, errO)
		}
		if errF != nil {
			continue
		}
		if !bytes.Equal(encF, encO) {
			t.Fatalf("encoded bytes diverged for %T (%#v)\nplan:   %x\noracle: %x", v, v, encF, encO)
		}
		typ := reflect.TypeOf(v)
		if typ.Kind() == reflect.Pointer {
			typ = typ.Elem()
		}
		fast := reflect.New(typ).Interface()
		oracle := reflect.New(typ).Interface()
		diffDecode(t, encF, fast, oracle, true)
	}
}

// TestPlanErrorParity pins the decoder sentinels through the plan
// path against hostile inputs (the same table decode_test.go checks),
// by requiring identical error text from both backends; then the
// values and targets neither codec supports, which reached the walker
// through the plan codec's fallback while it was linked into
// production and now get their error from the plan itself.
func TestPlanErrorParity(t *testing.T) {
	inputs := []string{
		"", "00", "01", "8100", "817F", "81FF", "820011", "B800", "B90037", "F80102",
		"C0", "C101", "C2820505", "83", "C3", "84646F67", "83646F67",
		"89FFFFFFFFFFFFFFFFFF", "820100", "0105", "C28080",
		"F7" + "C0C0C0C0C0C0C0C0C0C0C0C0C0C0C0C0C0C0C0C0C0C0C0",
	}
	targets := []func() (any, any){
		func() (any, any) { return new(uint64), new(uint64) },
		func() (any, any) { return new(uint8), new(uint8) },
		func() (any, any) { return new(string), new(string) },
		func() (any, any) { return new([]byte), new([]byte) },
		func() (any, any) { return new([]uint), new([]uint) },
		func() (any, any) { return new([2]byte), new([2]byte) },
		func() (any, any) { return new(bool), new(bool) },
		func() (any, any) { return new(big.Int), new(big.Int) },
		func() (any, any) { return new(helloLike), new(helloLike) },
		func() (any, any) { return new(RawValue), new(RawValue) },
		func() (any, any) { return new(any), new(any) },
	}
	for _, hexIn := range inputs {
		data := mustHex(hexIn)
		for _, mk := range targets {
			fast, oracle := mk()
			diffDecode(t, data, fast, oracle, true)
		}
	}
	sameErr := func(what string, errF, errO error) {
		t.Helper()
		if errF == nil || errO == nil || errF.Error() != errO.Error() {
			t.Errorf("%s\nplan:   %v\noracle: %v", what, errF, errO)
		}
	}
	type hasChan struct {
		A uint64
		C chan int
	}
	for _, v := range []any{
		nil, make(chan int), map[string]int{}, int(1),
		hasChan{A: 1}, &hasChan{A: 1}, []any{uint64(1), int(1)}, []chan int{nil},
	} {
		_, errF := EncodeToBytes(v)
		_, errO := oracleEncodeToBytes(v)
		sameErr(fmt.Sprintf("encode %T", v), errF, errO)
	}
	var w io.Writer
	for _, dst := range []any{
		nil, uint64(0), (*uint64)(nil), &w, new(chan int), new(int),
		new(hasChan), new([]chan int),
	} {
		for _, hexIn := range []string{"01", "C101", "C20101"} {
			data := mustHex(hexIn)
			sameErr(fmt.Sprintf("decode %s into %T", hexIn, dst), DecodeBytes(data, dst), oracleDecodeBytes(data, dst))
		}
	}
}
