//go:build !race

// Allocation-regression pins for the ID's text forms. Excluded under
// the race detector, whose instrumentation changes allocation counts.
package enode

import (
	"fmt"
	"testing"
)

func TestIDStringAllocs(t *testing.T) {
	id := randomKeyID(t, 11)
	if got, want := id.String(), fmt.Sprintf("%x", id[:]); got != want {
		t.Fatalf("String() = %s, want %s", got, want)
	}
	if got, want := id.TerminalString(), fmt.Sprintf("%x…%x", id[:4], id[60:]); got != want {
		t.Fatalf("TerminalString() = %s, want %s", got, want)
	}
	var sink string
	if n := testing.AllocsPerRun(200, func() { sink = id.String() }); n > 1 {
		t.Errorf("ID.String: %v allocs/op, want ≤1 (the string itself)", n)
	}
	if n := testing.AllocsPerRun(200, func() { sink = id.TerminalString() }); n > 1 {
		t.Errorf("ID.TerminalString: %v allocs/op, want ≤1", n)
	}
	_ = sink
}
