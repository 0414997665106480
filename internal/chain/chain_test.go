package chain

import (
	"math/big"
	"testing"
	"testing/quick"
)

func TestHexToHash(t *testing.T) {
	h, err := HexToHash("d4e56740f876aef8c010b86a40d5f56745a118d0906a34e69aec8c0db1cb8fa3")
	if err != nil {
		t.Fatal(err)
	}
	if h != MainnetGenesisHash {
		t.Fatal("mismatch")
	}
	// 0x prefix accepted.
	h2, err := HexToHash("0xd4e56740f876aef8c010b86a40d5f56745a118d0906a34e69aec8c0db1cb8fa3")
	if err != nil || h2 != h {
		t.Fatal("0x prefix")
	}
	// Errors.
	if _, err := HexToHash("abcd"); err == nil {
		t.Error("short accepted")
	}
	if _, err := HexToHash("zz" + "d4e56740f876aef8c010b86a40d5f56745a118d0906a34e69aec8c0db1cb8fa3"[2:]); err == nil {
		t.Error("bad hex accepted")
	}
}

func TestHashStrings(t *testing.T) {
	if MainnetGenesisHash.Hex() != "d4e56740f876aef8c010b86a40d5f56745a118d0906a34e69aec8c0db1cb8fa3" {
		t.Error(MainnetGenesisHash.Hex())
	}
	// The paper writes the genesis as d4e567…, ending cb8fa3.
	if MainnetGenesisHash.Short() != "d4e567…cb8fa3" {
		t.Error(MainnetGenesisHash.Short())
	}
}

// TestDAOForkExtraData: a header carries the pro-fork stance exactly
// when its extra-data is "dao-hard-fork".
func TestDAOForkExtraData(t *testing.T) {
	if string(DAOForkBlockExtra) != "dao-hard-fork" {
		t.Fatalf("DAOForkBlockExtra = %q", DAOForkBlockExtra)
	}
	fork := &Header{Number: new(big.Int).SetUint64(DAOForkBlock), Extra: []byte("dao-hard-fork")}
	if !fork.SupportsDAOFork() {
		t.Fatal("pro-fork header lacks the stance")
	}
	for _, extra := range [][]byte{nil, []byte("dao-hard-for"), []byte("dao-hard-fork!")} {
		if (&Header{Number: fork.Number, Extra: extra}).SupportsDAOFork() {
			t.Fatalf("extra %q read as pro-fork", extra)
		}
	}
}

func TestHeaderHashDeterministic(t *testing.T) {
	f := func(num uint64, extra []byte) bool {
		h := &Header{Difficulty: big.NewInt(1), Number: new(big.Int).SetUint64(num % 1e9), Extra: extra}
		return h.HashValue() == h.HashValue()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHeaderHashSensitivity(t *testing.T) {
	h1 := &Header{Difficulty: big.NewInt(1), Number: big.NewInt(1)}
	h2 := &Header{Difficulty: big.NewInt(1), Number: big.NewInt(2)}
	if h1.HashValue() == h2.HashValue() {
		t.Fatal("distinct headers share a hash")
	}
}
