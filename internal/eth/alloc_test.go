//go:build !race

// Allocation-regression pins for the STATUS round-trip. Excluded
// under the race detector, whose instrumentation changes allocation
// counts.
package eth

import (
	"math/big"
	"testing"

	"repro/internal/chain"
	"repro/internal/rlp"
)

func TestStatusAllocs(t *testing.T) {
	status := &Status{
		ProtocolVersion: uint32(Version63),
		NetworkID:       1,
		TD:              new(big.Int).SetBytes([]byte{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc}),
		BestHash:        chain.Hash{1},
		GenesisHash:     chain.Hash{2},
	}

	buf := make([]byte, 0, 256)
	enc := testing.AllocsPerRun(200, func() {
		out, err := rlp.EncodeAppend(buf, status)
		if err != nil {
			t.Fatal(err)
		}
		_ = out
	})
	if enc > 0 {
		t.Errorf("status encode: %v allocs/op, want 0 (EncodeAppend into sized scratch)", enc)
	}

	encoded, err := rlp.EncodeToBytes(status)
	if err != nil {
		t.Fatal(err)
	}
	var dst Status
	dec := testing.AllocsPerRun(200, func() {
		if err := rlp.DecodeBytes(encoded, &dst); err != nil {
			t.Fatal(err)
		}
	})
	// Two allocations: the TD big.Int and its word backing. The
	// decoder never reuses a caller's big.Int (the reflection walker
	// doesn't either), so these are inherent to the decoded value.
	if dec > 2 {
		t.Errorf("status decode: %v allocs/op, want <= 2", dec)
	}
}

// replayRW answers every read with one message and drops writes.
type replayRW struct {
	code    uint64
	payload []byte
}

func (rw *replayRW) ReadMsg() (uint64, []byte, error) { return rw.code, rw.payload, nil }
func (rw *replayRW) WriteMsg(uint64, []byte) error    { return nil }

// TestLeanReadAllocs: the DAO check and the serving side's STATUS read
// check their message in place and allocate nothing.
func TestLeanReadAllocs(t *testing.T) {
	body, err := rlp.EncodeToBytes([]*chain.Header{testChain(chain.DAOForkBlock, true)(chain.DAOForkBlock)})
	if err != nil {
		t.Fatal(err)
	}
	headers := &replayRW{offset + BlockHeadersMsg, body}
	if n := testing.AllocsPerRun(200, func() {
		if got, err := VerifyDAOFork(headers, offset); err != nil || got != DAOForkSupported {
			t.Fatalf("VerifyDAOFork = %v, %v", got, err)
		}
	}); n > 0 {
		t.Errorf("VerifyDAOFork: %v allocs/op, want 0", n)
	}
	status, err := rlp.EncodeToBytes(testStatus(1, chain.MainnetGenesisHash))
	if err != nil {
		t.Fatal(err)
	}
	statuses := &replayRW{offset + StatusMsg, status}
	if n := testing.AllocsPerRun(200, func() {
		if err := SkipStatus(statuses, offset); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("SkipStatus: %v allocs/op, want 0", n)
	}
}
