//go:build !race

// Allocation pin, excluded under the race detector like the other
// packages' alloc tests.
package ctr

import (
	"crypto/aes"
	"testing"
)

// TestStreamStaysOnTheStack: a Stream declared in a function, keyed
// and run, allocates nothing.
func TestStreamStaysOnTheStack(t *testing.T) {
	block, err := aes.NewCipher(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	iv, buf := make([]byte, blockSize), make([]byte, 300)
	if got := testing.AllocsPerRun(100, func() {
		var s Stream
		s.Init(block, iv)
		s.XORKeyStream(buf, buf)
	}); got != 0 {
		t.Errorf("a stack Stream allocates %.1f objects, want 0", got)
	}
}
