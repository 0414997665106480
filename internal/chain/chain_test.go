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

// TestMainnetGenesisHash encodes the Mainnet genesis header and checks
// its Keccak against MainnetGenesisHash: golden wire bytes that hold
// the header codec to Ethereum itself, independent of any oracle.
func TestMainnetGenesisHash(t *testing.T) {
	extra := MustHexToHash("11bbe8db4e347b4e8c937c1c8370e4b5ed33adb3db69cbdb7a38e1e50b1b82fa")
	genesis := &Header{
		UncleHash:   MustHexToHash("1dcc4de8dec75d7aab85b567b6ccd41ad312451b948a7413f0a142fd40d49347"),
		Root:        MustHexToHash("d7f8974fb5ac78d9ac099b9ad5018bedc2ce0a72dad1827a1709da30580f0544"),
		TxHash:      MustHexToHash("56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421"),
		ReceiptHash: MustHexToHash("56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421"),
		Difficulty:  big.NewInt(17179869184),
		Number:      new(big.Int),
		GasLimit:    5000,
		Extra:       extra[:],
		Nonce:       [8]byte{7: 0x42},
	}
	if got := genesis.HashValue(); got != MainnetGenesisHash {
		t.Errorf("genesis header hashes to %s, want %s", got.Hex(), MainnetGenesisHash.Hex())
	}
}
