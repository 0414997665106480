package rlp_test

import (
	"bytes"
	"fmt"
	"io"
	"math/big"
	"net"
	"reflect"
	"testing"

	"repro/internal/chain"
	"repro/internal/devp2p"
	"repro/internal/discv4"
	"repro/internal/enode"
	"repro/internal/eth"
	"repro/internal/rlp"
)

// The wire types against the reference codec of oracle_test.go: every
// hand-written AppendRLP and DecodeRLP must produce and accept exactly
// what the reflection walker does over the same struct declaration.
// rlpx's handshake bodies are unexported; TestHandshakeBodyGolden
// holds them to golden bytes instead.

func init() {
	// The origin's shape depends on its value, so it codes itself in
	// the reference too; TestHashOrNumberRLP (internal/eth) is its own
	// check.
	rlp.OracleLeaf(reflect.TypeOf(eth.HashOrNumber{}))
}

// wireTypes makes a fresh decode target of each wire shape; a fuzz
// input's first byte picks one.
var wireTypes = []func() any{
	func() any { return new(devp2p.Hello) },
	func() any { return new(devp2p.Cap) },
	func() any { return new(eth.Status) },
	func() any { return new(eth.GetBlockHeaders) },
	func() any { return new(chain.Header) },
	func() any { return new([]*chain.Header) },
	func() any { return new(discv4.Ping) },
	func() any { return new(discv4.Pong) },
	func() any { return new(discv4.Findnode) },
	func() any { return new(discv4.Neighbors) },
	func() any { return new(discv4.Endpoint) },
	func() any { return new(discv4.RPCNode) },
	func() any { return new([]uint64) }, // DISCONNECT
	func() any { return new(uint64) },   // DISCONNECT, bare
}

// checkWire decodes data as wire type sel through the front door and
// through the reference. Both must accept or both reject; accepted
// input must decode to equal values, which both encoders turn back
// into data itself.
func checkWire(t *testing.T, sel int, data []byte) {
	t.Helper()
	got, want := wireTypes[sel](), wireTypes[sel]()
	errG := rlp.DecodeBytes(data, got)
	errW := rlp.OracleDecodeBytes(data, want)
	if (errG == nil) != (errW == nil) {
		t.Fatalf("%T: verdicts differ on %x\nwire:      %v\nreference: %v", got, data, errG, errW)
	}
	if errG != nil {
		return
	}
	if !sameValue(reflect.ValueOf(got), reflect.ValueOf(want)) {
		t.Fatalf("%T: values differ on %x\nwire:      %+v\nreference: %+v", got, data, got, want)
	}
	encG, errG := rlp.EncodeToBytes(leaf(got))
	encW, errW := rlp.OracleEncodeToBytes(want)
	if errG != nil || errW != nil || !bytes.Equal(encG, data) || !bytes.Equal(encW, data) {
		t.Fatalf("%T: %x decodes, then encodes to\nwire:      %x (%v)\nreference: %x (%v)", got, data, encG, errG, encW, errW)
	}
}

// leaf unwraps a decoded DISCONNECT payload: the front doors encode
// the integer kinds by value.
func leaf(v any) any {
	switch v := v.(type) {
	case *uint64:
		return *v
	case *[]uint64:
		return *v
	}
	return v
}

// sameValue is reflect.DeepEqual with a nil slice equal to an empty
// one and big integers compared by value: the reference makes empty
// slices where the wire codecs leave nil.
func sameValue(a, b reflect.Value) bool {
	if a.Type() == reflect.TypeOf((*big.Int)(nil)) {
		x, y := a.Interface().(*big.Int), b.Interface().(*big.Int)
		return x == nil && y == nil || x != nil && y != nil && x.Cmp(y) == 0
	}
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

// wireValues is one or more values of each wire type, in wireTypes
// order, covering empty and non-empty tails, nil and wide integers,
// both origin shapes and both address families.
func wireValues() [][]any {
	wide := new(big.Int).Lsh(big.NewInt(99), 200)
	hash := chain.Hash{0xEE, 31: 0x01}
	var id enode.ID
	for i := range id {
		id[i] = byte(i)
	}
	v4, v6 := net.IP{10, 0, 0, 1}, net.ParseIP("2001:db8::1")
	header := &chain.Header{
		ParentHash: hash, Difficulty: big.NewInt(131072), Number: new(big.Int).SetUint64(chain.DAOForkBlock),
		GasLimit: 8_000_000, Time: 1469020840, Extra: chain.DAOForkBlockExtra, Nonce: [8]byte{7: 0x42},
	}
	return [][]any{
		{
			&devp2p.Hello{Version: 5, Name: "Geth/v1.8.11-stable/linux-amd64/go1.10", Caps: []devp2p.Cap{{Name: "eth", Version: 62}, {Name: "eth", Version: 63}}, ListenPort: 30303, ID: id},
			&devp2p.Hello{Rest: []rlp.RawValue{{0x80}, {0xC0}}},
		},
		{&devp2p.Cap{Name: "snap", Version: 1}, &devp2p.Cap{}},
		{
			&eth.Status{ProtocolVersion: 63, NetworkID: 1, TD: wide, BestHash: hash, GenesisHash: chain.MainnetGenesisHash},
			&eth.Status{TD: new(big.Int), Rest: []rlp.RawValue{{0x05}}},
		},
		{
			&eth.GetBlockHeaders{Origin: eth.HashOrNumber{Number: chain.DAOForkBlock}, Amount: 1},
			&eth.GetBlockHeaders{Origin: eth.HashOrNumber{Hash: hash, IsHash: true}, Amount: 2, Skip: 3, Reverse: true},
		},
		{header, &chain.Header{Difficulty: wide, Number: new(big.Int)}},
		{&[]*chain.Header{header, header}, &[]*chain.Header{}},
		{
			&discv4.Ping{Version: 4, From: discv4.Endpoint{IP: v4, UDP: 30303, TCP: 30303}, To: discv4.Endpoint{IP: v6, UDP: 1}, Expiration: 1700000000},
			&discv4.Ping{From: discv4.Endpoint{IP: net.IP{}}, To: discv4.Endpoint{IP: net.IP{}}, Rest: []rlp.RawValue{{0x01}, {0xC1, 0x02}}},
		},
		{&discv4.Pong{To: discv4.Endpoint{IP: v4}, ReplyTok: hash[:], Expiration: 5}},
		{&discv4.Findnode{Target: id, Expiration: 1 << 40}},
		{
			&discv4.Neighbors{Nodes: []discv4.RPCNode{{IP: v4, UDP: 1, TCP: 2, ID: id}, {IP: v6, ID: id}}, Expiration: 9},
			&discv4.Neighbors{Nodes: []discv4.RPCNode{}},
		},
		{&discv4.Endpoint{IP: v6, UDP: 65535, TCP: 128}},
		{&discv4.RPCNode{IP: v4, UDP: 30303, TCP: 30303, ID: id}},
		{[]uint64{0, 1, 127, 128, 1 << 40}, []uint64{}},
		{uint64(0x10)},
	}
}

// wireCorpus is the fuzz seed corpus: each wire value encoded by the
// reference, then the malformed shapes earlier differential targets
// were seeded with, each read as a wire type.
func wireCorpus(f *testing.F) [][]byte {
	var seeds [][]byte
	for sel, vals := range wireValues() {
		for _, v := range vals {
			enc, err := rlp.OracleEncodeToBytes(v)
			if err != nil {
				f.Fatal(err)
			}
			seeds = append(seeds, append([]byte{byte(sel)}, enc...))
		}
	}
	for _, bad := range []string{
		"\x00\xc0", "\x00\xc5\x01\x80\xc0\x82\x05", "\x0c\xc3\x01\x02\x03", "\x02\x00",
		"\x02\x81\x00", "\x03\xc0", "\x05\xc1\xc0", "\x04\xc0", "\x0d\x81\x05",
	} {
		seeds = append(seeds, []byte(bad))
	}
	return seeds
}

// FuzzWireVsOracle throws arbitrary bytes at every wire type, the
// first byte choosing the type.
func FuzzWireVsOracle(f *testing.F) {
	for _, seed := range wireCorpus(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 0 {
			checkWire(t, int(data[0])%len(wireTypes), data[1:])
		}
	})
}

// A wire family is a subset of wireTypes, by index, that shares one
// decoding concern. Its fuzz target spends every input on those types,
// the first byte choosing among them; its corpus lives under its own
// name in testdata/fuzz.
var (
	tailedStructs = []int{0, 2, 6, 7, 8, 9} // Hello, Status, Ping, Pong, Findnode, Neighbors: Rest tails
	listTypes     = []int{12, 5, 9}         // []uint64, []*chain.Header, Neighbors: variable-length lists
	integerTypes  = []int{2, 4, 13}         // Status, Header, bare uint64: big and fixed-width integers
	nestedCodecs  = []int{3, 0, 6, 9}       // GetBlockHeaders, Hello, Ping, Neighbors: fields that code themselves
)

// fuzzFamily seeds f with the reference encoding of each wire value of
// the family, then with extra (already prefixed with a family
// selector), and checks every input against the reference.
func fuzzFamily(f *testing.F, family []int, extra ...[]byte) {
	vals := wireValues()
	for i, sel := range family {
		for _, v := range vals[sel] {
			enc, err := rlp.OracleEncodeToBytes(v)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(append([]byte{byte(i)}, enc...))
		}
	}
	for _, seed := range extra {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 0 {
			checkWire(t, family[int(data[0])%len(family)], data[1:])
		}
	})
}

// FuzzPlanVsOracleStruct fuzzes the structs whose Rest takes the
// fields a newer version appends.
func FuzzPlanVsOracleStruct(f *testing.F) {
	fuzzFamily(f, tailedStructs, []byte("\x00\xc0"), []byte("\x00\xc5\x01\x80\xc0\x82\x05"))
}

// FuzzPlanVsOracleSlice fuzzes the wire types built around a list of
// any length.
func FuzzPlanVsOracleSlice(f *testing.F) {
	fuzzFamily(f, listTypes, []byte("\x00\xc3\x01\x02\x03"), []byte("\x01\xc1\xc0"))
}

// FuzzPlanVsOracleBigInt fuzzes the integer decoders, seeded besides
// with STATUS bodies whose TD is a non-canonical zero or has a leading
// zero byte.
func FuzzPlanVsOracleBigInt(f *testing.F) {
	for _, td := range []rlp.RawValue{{0x00}, {0x82, 0x00, 0x01}} {
		b, start := rlp.ListStart([]byte{0})
		b = rlp.AppendUint(b, 63)
		b = rlp.AppendUint(b, 1)
		b = rlp.AppendRaw(b, td)
		b = rlp.AppendBytes(b, chain.MainnetGenesisHash[:])
		b = rlp.AppendBytes(b, chain.MainnetGenesisHash[:])
		f.Add(rlp.ListEnd(b, start))
	}
	fuzzFamily(f, integerTypes)
}

// FuzzPlanVsOracleCustom fuzzes the wire types with fields that are
// wire types themselves, the block-request origin among them.
func FuzzPlanVsOracleCustom(f *testing.F) {
	fuzzFamily(f, nestedCodecs, []byte("\x00\xc0"))
}

// TestWireMatchesOracle is the deterministic core of the differential
// suite: every wire value encodes to the reference's bytes through
// EncodeToBytes and into a used buffer through EncodeAppend, and those
// bytes decode back the same through both.
func TestWireMatchesOracle(t *testing.T) {
	for sel, vals := range wireValues() {
		for _, v := range vals {
			want, err := rlp.OracleEncodeToBytes(v)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rlp.EncodeToBytes(v)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%T %+v: encoded %x (%v), reference %x", v, v, got, err, want)
			}
			if got, err := rlp.EncodeAppend([]byte{0xAB}, v); err != nil || !bytes.Equal(got[1:], want) || got[0] != 0xAB {
				t.Fatalf("%T: EncodeAppend gave %x (%v), want ab%x", v, got, err, want)
			}
			checkWire(t, sel, want)
		}
	}
	// A nil header encodes as an empty list, which no header decodes
	// from: a BLOCK_HEADERS body of one is refused, never a nil header.
	enc, err := rlp.EncodeToBytes([]*chain.Header{nil})
	if err != nil || !bytes.Equal(enc, []byte{0xC1, 0xC0}) {
		t.Fatalf("nil header encoded to %x (%v), want c1c0", enc, err)
	}
	checkWire(t, 5, enc)
	var hs []*chain.Header
	if err := rlp.DecodeBytes(enc, &hs); err == nil {
		t.Fatalf("c1c0 decoded to %d headers", len(hs))
	}
}

// TestWireVerdictsMatchOracle feeds hostile shapes to every wire type,
// then checks that the front doors refuse, naming its type, every
// value that is not a wire type.
func TestWireVerdictsMatchOracle(t *testing.T) {
	inputs := []string{
		"", "00", "01", "8100", "817F", "81FF", "820011", "B800", "B90037", "F80102",
		"C0", "C101", "C2820505", "83", "C3", "84646F67", "83646F67",
		"89FFFFFFFFFFFFFFFFFF", "820100", "0105", "C28080", "C1C0", "BFFFFFFFFFFFFFFFFF",
		"F7" + "C0C0C0C0C0C0C0C0C0C0C0C0C0C0C0C0C0C0C0C0C0C0C0",
	}
	for _, in := range inputs {
		var data []byte
		fmt.Sscanf(in, "%X", &data) //nolint:errcheck // the empty input scans to nothing
		for sel := range wireTypes {
			checkWire(t, sel, data)
		}
	}
	type plain struct{ A uint64 }
	var w io.Writer
	for _, v := range []any{nil, int(1), "s", plain{1}, &plain{1}, []any{uint64(1)}, []*plain{{1}}, make(chan int)} {
		if _, err := rlp.EncodeToBytes(v); err == nil || !bytes.Contains([]byte(err.Error()), []byte(fmt.Sprintf("%T", v))) {
			t.Errorf("encode %T: err %v, want one naming the type", v, err)
		}
	}
	for _, dst := range []any{nil, uint64(0), (*uint64)(nil), &w, new(int), new(plain), new([]*plain), new([]chain.Header), (*[]*chain.Header)(nil)} {
		if err := rlp.DecodeBytes([]byte{0xC1, 0x01}, dst); err == nil {
			t.Errorf("decode into %T accepted", dst)
		}
	}
}
