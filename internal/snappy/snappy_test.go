package snappy

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, src []byte) {
	t.Helper()
	enc, err := Encode(src)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if n, err := DecodedLen(enc); err != nil || n != len(src) {
		t.Fatalf("DecodedLen = %d, %v; want %d", n, err, len(src))
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(dec, src) {
		t.Fatalf("round trip mismatch: %d in, %d out", len(src), len(dec))
	}
}

func TestRoundTripBasic(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0x01},
		[]byte("a"),
		[]byte("ab"),
		[]byte("hello world"),
		[]byte(strings.Repeat("a", 100)),
		[]byte(strings.Repeat("ab", 1000)),
		[]byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 50)),
		bytes.Repeat([]byte{0}, 65536),
	}
	for _, c := range cases {
		roundTrip(t, c)
	}
}

func TestCompressionActuallyCompresses(t *testing.T) {
	src := []byte(strings.Repeat("DEVp2p snappy compression test payload. ", 200))
	enc, err := Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= len(src)/2 {
		t.Errorf("repetitive input compressed to %d/%d bytes only", len(enc), len(src))
	}
}

func TestIncompressibleInput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, 4096)
	rng.Read(src)
	enc, err := Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) > MaxEncodedLen(len(src)) {
		t.Errorf("encoded %d > MaxEncodedLen %d", len(enc), MaxEncodedLen(len(src)))
	}
	roundTrip(t, src)
}

func TestQuickRoundTripRandom(t *testing.T) {
	f := func(src []byte) bool {
		enc, err := Encode(src)
		if err != nil {
			return false
		}
		dec, err := Decode(enc)
		return err == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickRoundTripStructured(t *testing.T) {
	// Structured inputs with long repeats exercise the copy paths.
	rng := rand.New(rand.NewSource(2))
	words := []string{"transaction", "0x00", "block", "header", "eth/63", "deadbeef"}
	for i := 0; i < 200; i++ {
		var b bytes.Buffer
		for b.Len() < 200+rng.Intn(5000) {
			b.WriteString(words[rng.Intn(len(words))])
		}
		roundTrip(t, b.Bytes())
	}
}

func TestLongMatches(t *testing.T) {
	// Matches of every length class: 4..11 (copy1), 12..64 (copy2),
	// >64 (chunked).
	for _, matchLen := range []int{4, 5, 11, 12, 60, 64, 65, 67, 68, 69, 128, 129, 1000} {
		prefix := []byte("0123456789abcdefprefix-unique-")
		src := append(append([]byte{}, prefix...), bytes.Repeat([]byte("Z"), matchLen)...)
		src = append(src, prefix...) // back-reference to the start
		roundTrip(t, src)
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	cases := [][]byte{
		{},                                   // no varint
		{0xFF},                               // truncated varint
		{0x05},                               // announces 5 bytes, no body
		{0x05, 0x00},                         // literal runs past end
		{0x02, 0xFD, 0x01},                   // huge literal header, short input
		{0x01, 0x01, 0x01},                   // copy with no prior output
		{0x03, 0x00, 0x61, 0x09, 0x00, 0x00}, // copy2 offset 0
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: corrupt input accepted", i)
		}
	}
}

func TestDecodeRejectsWrongLength(t *testing.T) {
	enc, _ := Encode([]byte("hello world, hello world"))
	// Tamper with the announced length.
	enc[0] = 5
	if _, err := Decode(enc); err == nil {
		t.Error("wrong announced length accepted")
	}
}

func TestDecodeTooLarge(t *testing.T) {
	hdr := uvarint(nil, MaxBlockSize+1)
	if _, err := Decode(hdr); err != ErrTooLarge {
		t.Errorf("got %v", err)
	}
}

func TestEncodeTooLarge(t *testing.T) {
	if _, err := Encode(make([]byte, MaxBlockSize+1)); err == nil {
		t.Error("oversized input accepted")
	}
}

func TestOverlappingCopy(t *testing.T) {
	// Run-length-style: offset 1, long length (decoder must copy
	// byte-by-byte).
	src := append([]byte("x"), bytes.Repeat([]byte("y"), 300)...)
	roundTrip(t, src)
}

func TestVarint(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 300, 1 << 20, 1 << 24} {
		enc := uvarint(nil, v)
		got, n := readUvarint(enc)
		if n != len(enc) || got != v {
			t.Errorf("varint %d: got %d (consumed %d/%d)", v, got, n, len(enc))
		}
	}
	if _, n := readUvarint([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}); n != 0 {
		t.Error("overlong varint accepted")
	}
}

// A devp2p STATUS is ~80 bytes: Encode may allocate its output and
// nothing else, whatever table size the input selects.
func TestEncodeAllocs(t *testing.T) {
	for _, n := range []int{80, 1500, 5000} {
		src := bytes.Repeat([]byte("status"), n/6+1)[:n]
		if got := testing.AllocsPerRun(100, func() { Encode(src) }); got > 1 {
			t.Errorf("Encode(%d bytes) allocates %.0f objects, want at most 1", n, got)
		}
	}
}

// AppendDecodeCapped keeps dst's prefix, decodes after it, allocates
// nothing into a buffer with room, and lets no copy reach back past
// the block into the prefix.
func TestAppendDecodeCapped(t *testing.T) {
	src := bytes.Repeat([]byte("eth/63 status "), 20)
	enc, _ := Encode(src)
	buf := make([]byte, 0, 512)
	out, err := AppendDecodeCapped(append(buf, "pre"...), enc, len(src))
	if err != nil || string(out[:3]) != "pre" || !bytes.Equal(out[3:], src) {
		t.Fatalf("AppendDecodeCapped = %q, %v", out, err)
	}
	if got := testing.AllocsPerRun(100, func() { AppendDecodeCapped(buf[:0], enc, len(src)) }); got != 0 {
		t.Errorf("decoding into a buffer with room allocates %.0f objects", got)
	}
	// One literal byte, then a 4-byte copy from offset 2: a reach into
	// the prefix, corrupt however long the prefix is.
	reach := []byte{5, 0 << 2, 'x', 0<<2 | tagCopy1, 2}
	if _, err := AppendDecodeCapped([]byte("prefix"), reach, 16); err != ErrCorrupt {
		t.Errorf("copy reaching into dst's prefix: err = %v, want ErrCorrupt", err)
	}
}

// Inputs on both sides of each table-size boundary round-trip and
// still compress: a smaller table must not stop finding matches.
func TestTableSizeClasses(t *testing.T) {
	for _, n := range []int{16, 255, 256, 257, 2047, 2048, 2049, 20000} {
		src := bytes.Repeat([]byte("eth/63 NodeFinder "), n/18+1)[:n]
		roundTrip(t, src)
		enc, _ := Encode(src)
		if n >= 255 && len(enc) >= n/2 {
			t.Errorf("repetitive %d-byte input compressed to %d bytes only", n, len(enc))
		}
	}
}

func BenchmarkEncodeStatus(b *testing.B) {
	src := make([]byte, 80)
	rand.New(rand.NewSource(3)).Read(src)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncode4K(b *testing.B) {
	src := []byte(strings.Repeat("transaction payload with some repetition ", 100))[:4096]
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode4K(b *testing.B) {
	src := []byte(strings.Repeat("transaction payload with some repetition ", 100))[:4096]
	enc, _ := Encode(src)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}
