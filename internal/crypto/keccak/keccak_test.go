package keccak

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

// Known-answer tests. The legacy (pre-NIST) Keccak vectors are the
// ones Ethereum depends on; e.g. Keccak-256("") is the well-known
// empty hash that appears throughout the Ethereum state trie.

func fromHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestKeccak256KAT(t *testing.T) {
	tests := []struct{ in, want string }{
		{"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"},
		{"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"},
		{"hello", "1c8aff950685c2ed4bc3174f3472287b56d9517b9c948127319a09a7a36deac8"},
		{"The quick brown fox jumps over the lazy dog",
			"4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15"},
	}
	for _, test := range tests {
		got := Sum256([]byte(test.in))
		if hex.EncodeToString(got[:]) != test.want {
			t.Errorf("Keccak256(%q) = %x, want %s", test.in, got, test.want)
		}
	}
}

func TestKeccak512KAT(t *testing.T) {
	got := Sum512(nil)
	want := "0eab42de4c3ceb9235fc91acffe746b29c29a8c366b7c60e4e67c466f36a4304" +
		"c00fa9caf9d87976ba469bcbe06713b435f091ef2769fb160cdab33d3670680e"
	if hex.EncodeToString(got[:]) != want {
		t.Errorf("Keccak512(\"\") = %x, want %s", got, want)
	}
}

func TestSHA3Variant(t *testing.T) {
	// The NIST SHA-3 padding must give different results; this guards
	// against accidentally using the wrong domain byte for Ethereum.
	tests := []struct{ in, want string }{
		{"", "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"},
		{"abc", "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"},
	}
	for _, test := range tests {
		h := NewSHA3_256()
		h.Write([]byte(test.in))
		got := h.Sum(nil)
		if hex.EncodeToString(got) != test.want {
			t.Errorf("SHA3-256(%q) = %x, want %s", test.in, got, test.want)
		}
	}
	if Sum256(nil) == [32]byte(fromHex32(t, "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a")) {
		t.Error("legacy Keccak must differ from SHA3")
	}
}

func fromHex32(t *testing.T, s string) (out [32]byte) {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != 32 {
		t.Fatalf("bad hex %q", s)
	}
	copy(out[:], b)
	return out
}

func TestIncrementalWrite(t *testing.T) {
	// Writing in arbitrary chunk sizes must match a single write.
	data := make([]byte, 1000)
	rng := rand.New(rand.NewSource(1))
	rng.Read(data)
	want := Sum256(data)

	for _, chunk := range []int{1, 3, 7, 64, 135, 136, 137, 999} {
		h := New256()
		for i := 0; i < len(data); i += chunk {
			end := i + chunk
			if end > len(data) {
				end = len(data)
			}
			h.Write(data[i:end])
		}
		if got := h.Sum(nil); !bytes.Equal(got, want[:]) {
			t.Errorf("chunk %d: got %x, want %x", chunk, got, want)
		}
	}

	// Same for the 72-byte rate, whose blocks end mid-way through the
	// 136-byte ones.
	want512 := Sum512(data)
	for _, chunk := range []int{1, 5, 71, 72, 73} {
		h := New512()
		for i := 0; i < len(data); i += chunk {
			h.Write(data[i:min(i+chunk, len(data))])
		}
		if got := h.Sum(nil); !bytes.Equal(got, want512[:]) {
			t.Errorf("512 chunk %d: got %x, want %x", chunk, got, want512)
		}
	}
}

func TestSumDoesNotDisturbState(t *testing.T) {
	h := New256()
	h.Write([]byte("part one"))
	mid := h.Sum(nil)
	mid2 := h.Sum(nil)
	if !bytes.Equal(mid, mid2) {
		t.Error("repeated Sum differs")
	}
	h.Write([]byte(" part two"))
	final := h.Sum(nil)
	want := Sum256([]byte("part one part two"))
	if !bytes.Equal(final, want[:]) {
		t.Errorf("state disturbed by Sum: got %x, want %x", final, want)
	}
}

func TestReset(t *testing.T) {
	h := New256()
	h.Write([]byte("garbage"))
	h.Reset()
	h.Write([]byte("abc"))
	got := h.Sum(nil)
	want := Sum256([]byte("abc"))
	if !bytes.Equal(got, want[:]) {
		t.Errorf("Reset did not clear state")
	}
}

func TestSizes(t *testing.T) {
	if New256().Size() != 32 || New256().BlockSize() != 136 {
		t.Error("bad 256 sizes")
	}
	if New512().Size() != 64 || New512().BlockSize() != 72 {
		t.Error("bad 512 sizes")
	}
}

// Property: hashing is deterministic and collision-free on distinct
// short inputs (sanity, not a cryptographic claim).
func TestQuickDeterminism(t *testing.T) {
	f := func(b []byte) bool {
		return Sum256(b) == Sum256(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a single flipped bit changes the digest.
func TestQuickBitFlipChangesDigest(t *testing.T) {
	f := func(b []byte, pos uint) bool {
		if len(b) == 0 {
			return true
		}
		orig := Sum256(b)
		i := int(pos % uint(len(b)))
		mut := append([]byte(nil), b...)
		mut[i] ^= 1 << (pos % 8)
		return Sum256(mut) != orig
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The MAC path in rlpx calls Sum into a reused scratch buffer for
// every frame, and discv4 hashes every datagram twice with Sum256 —
// both rely on finalize squeezing in place instead of allocating.
func TestSum256Allocs(t *testing.T) {
	data := make([]byte, 300)
	allocs := testing.AllocsPerRun(100, func() {
		Sum256(data)
	})
	if allocs != 0 {
		t.Errorf("Sum256 allocates %.1f objects per call, want 0", allocs)
	}
}

func TestSum512Allocs(t *testing.T) {
	data := make([]byte, 300)
	allocs := testing.AllocsPerRun(100, func() {
		Sum512(data)
	})
	if allocs != 0 {
		t.Errorf("Sum512 allocates %.1f objects per call, want 0", allocs)
	}
}

func TestSumIntoCapacityAllocs(t *testing.T) {
	d := New256()
	d.Write([]byte("rolling mac state"))
	buf := make([]byte, 0, Size256)
	allocs := testing.AllocsPerRun(100, func() {
		buf = d.Sum(buf[:0])
	})
	if allocs != 0 {
		t.Errorf("Sum into capacity allocates %.1f objects per call, want 0", allocs)
	}
}

// Sum must still append after an arbitrary prefix, growing only when
// the capacity runs out.
func TestSumAppendSemantics(t *testing.T) {
	msg := []byte("append semantics")
	want := Sum256(msg)

	d := New256()
	d.Write(msg)
	prefix := []byte{0xAA, 0xBB}
	got := d.Sum(prefix)
	if len(got) != 2+Size256 || got[0] != 0xAA || got[1] != 0xBB {
		t.Fatalf("prefix disturbed: %x", got[:2])
	}
	if !bytes.Equal(got[2:], want[:]) {
		t.Errorf("digest after prefix = %x, want %x", got[2:], want)
	}

	// Exact capacity: result must reuse the backing array.
	buf := make([]byte, 2, 2+Size256)
	copy(buf, prefix)
	got2 := d.Sum(buf)
	if &got2[0] != &buf[:1][0] {
		t.Error("Sum reallocated despite sufficient capacity")
	}
	if !bytes.Equal(got2[2:], want[:]) {
		t.Errorf("in-place digest = %x, want %x", got2[2:], want)
	}
}

// refKeccakF1600 is the textbook triple-loop permutation (theta, rho,
// pi, chi, iota spelled out with %5 indexing and a rotation table),
// kept as the reference the unrolled keccakF1600 is compared against.
func refKeccakF1600(a *[25]uint64) {
	rotc := [5][5]uint{ // rho offsets, indexed [x][y]
		{0, 36, 3, 41, 18},
		{1, 44, 10, 45, 2},
		{62, 6, 43, 15, 61},
		{28, 55, 25, 21, 56},
		{27, 20, 39, 8, 14},
	}
	rotl := func(v uint64, n uint) uint64 { return v<<n | v>>(64-n) }
	var b [25]uint64
	var c, d [5]uint64
	for round := 0; round < 24; round++ {
		for x := 0; x < 5; x++ {
			c[x] = a[x] ^ a[x+5] ^ a[x+10] ^ a[x+15] ^ a[x+20]
		}
		for x := 0; x < 5; x++ {
			d[x] = c[(x+4)%5] ^ rotl(c[(x+1)%5], 1)
			for y := 0; y < 5; y++ {
				a[x+5*y] ^= d[x]
			}
		}
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				b[y+5*((2*x+3*y)%5)] = rotl(a[x+5*y], rotc[x][y])
			}
		}
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				a[x+5*y] = b[x+5*y] ^ (^b[(x+1)%5+5*y] & b[(x+2)%5+5*y])
			}
		}
		a[0] ^= roundConstants[round]
	}
}

// The unrolled permutation must equal the reference state for state:
// on the zero and all-ones states, on single-lane states (which catch
// a swapped rotation or lane), and on random ones, including iterated
// application so an error in any round position shows.
func TestPermutationMatchesReference(t *testing.T) {
	check := func(name string, st [25]uint64) {
		t.Helper()
		got, want := st, st
		for i := 0; i < 3; i++ {
			keccakF1600(&got)
			refKeccakF1600(&want)
			if got != want {
				t.Fatalf("%s: permutation %d differs from reference\n got %x\nwant %x", name, i+1, got, want)
			}
		}
	}
	var zero, ones [25]uint64
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	check("zero", zero)
	check("all-ones", ones)
	for i := 0; i < 25; i++ {
		var st [25]uint64
		st[i] = 0x8000000000000001
		check("single lane", st)
	}
	rng := rand.New(rand.NewSource(1600))
	for i := 0; i < 200; i++ {
		var st [25]uint64
		for j := range st {
			st[j] = rng.Uint64()
		}
		check("random", st)
	}
}

// The RLPx MAC step is Write + Sum on a Sponge held by value inside
// the connection's MAC state; neither may allocate, at any alignment
// of the running position.
func TestSpongeMACStepAllocs(t *testing.T) {
	d := New256Sponge()
	var sum [Size256]byte
	block := make([]byte, 16)
	d.Write([]byte("odd")) // leave the position off a lane boundary
	allocs := testing.AllocsPerRun(200, func() {
		d.Write(block)
		d.Sum(sum[:0])
	})
	if allocs != 0 {
		t.Errorf("MAC step allocates %.1f objects, want 0", allocs)
	}
}

// A Sponge value is a snapshot: copies diverge independently.
func TestSpongeCopyIsSnapshot(t *testing.T) {
	d := New256Sponge()
	d.Write([]byte("shared prefix, "))
	fork := d
	d.Write([]byte("left"))
	fork.Write([]byte("right"))
	left, right := Sum256([]byte("shared prefix, left")), Sum256([]byte("shared prefix, right"))
	if got := d.Sum(nil); !bytes.Equal(got, left[:]) {
		t.Errorf("original after fork = %x, want %x", got, left)
	}
	if got := fork.Sum(nil); !bytes.Equal(got, right[:]) {
		t.Errorf("fork = %x, want %x", got, right)
	}
}

func BenchmarkKeccak256_136(b *testing.B) {
	data := make([]byte, 136)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Sum256(data)
	}
}

func BenchmarkKeccak256_4K(b *testing.B) {
	data := make([]byte, 4096)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Sum256(data)
	}
}
