//go:build !race

// Allocation-regression pins for the HELLO round-trip. Excluded under
// the race detector, whose instrumentation changes allocation counts.
package devp2p

import (
	"testing"

	"repro/internal/enode"
	"repro/internal/rlp"
)

func TestHelloAllocs(t *testing.T) {
	hello := &Hello{
		Version:    Version,
		Name:       "Geth/v1.8.11-stable/linux-amd64/go1.10",
		Caps:       []Cap{{Name: "eth", Version: 62}, {Name: "eth", Version: 63}},
		ListenPort: 30303,
		ID:         enode.ID{1, 2, 3},
	}

	buf := make([]byte, 0, 256)
	enc := testing.AllocsPerRun(200, func() {
		out, err := rlp.EncodeAppend(buf, hello)
		if err != nil {
			t.Fatal(err)
		}
		_ = out
	})
	if enc > 0 {
		t.Errorf("hello encode: %v allocs/op, want 0 (EncodeAppend into sized scratch)", enc)
	}

	encoded, err := rlp.EncodeToBytes(hello)
	if err != nil {
		t.Fatal(err)
	}
	var dst Hello
	dec := testing.AllocsPerRun(200, func() {
		if err := rlp.DecodeBytes(encoded, &dst); err != nil {
			t.Fatal(err)
		}
	})
	// Four allocations, all owned by the decoded value: the Name
	// string, the Caps backing array, and the two Cap.Name strings.
	if dec > 4 {
		t.Errorf("hello decode: %v allocs/op, want <= 4", dec)
	}

	// The serving side's read keeps only the caps it knows, in the
	// storage the caller gives it: nothing allocated.
	known := []Cap{{Name: "eth", Version: 63}}
	lean := Hello{Caps: make([]Cap, 0, 1)}
	rw := &oneMsgRW{code: HelloMsg, payload: encoded}
	caps := testing.AllocsPerRun(200, func() {
		rw.read = false
		if err := ReadHelloCaps(rw, &lean, known); err != nil {
			t.Fatal(err)
		}
	})
	if caps > 0 || len(lean.Caps) != 1 || lean.Caps[0] != known[0] {
		t.Errorf("ReadHelloCaps: %v allocs/op and caps %v, want 0 and %v", caps, lean.Caps, known)
	}
}
