//go:build !race

// Allocation-regression pin for Hash.Hex, rendered twice per logged
// STATUS. Excluded under the race detector, whose instrumentation
// changes allocation counts.
package chain

import (
	"fmt"
	"testing"
)

func TestHashHexAllocs(t *testing.T) {
	h := MainnetGenesisHash
	if got, want := h.Hex(), fmt.Sprintf("%x", h[:]); got != want {
		t.Fatalf("Hex() = %s, want %s", got, want)
	}
	var sink string
	if n := testing.AllocsPerRun(200, func() { sink = h.Hex() }); n > 1 {
		t.Errorf("Hash.Hex: %v allocs/op, want ≤1 (the string itself)", n)
	}
	_ = sink
}
