// Package chain provides the minimal blockchain substrate the network
// measurement stack needs: block headers, header hashing, fork rules,
// and the well-known network/genesis identifiers from the paper.
//
// NodeFinder never validates state; it only needs enough chain
// machinery to (a) identify which blockchain a peer serves (network
// ID + genesis hash), (b) check the DAO-fork block's extra-data, and
// (c) judge node freshness from best-block numbers (Figure 14).
package chain

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/big"

	"repro/internal/crypto/keccak"
	"repro/internal/rlp"
)

// Hash is a 32-byte Keccak-256 hash.
type Hash [32]byte

// Hex returns the full lowercase hex form.
func (h Hash) Hex() string {
	var buf [2 * len(h)]byte
	hex.Encode(buf[:], h[:])
	return string(buf[:])
}

// Short returns the abbreviated form used in the paper's prose,
// e.g. "d4e567…cb8fa3".
func (h Hash) Short() string { return fmt.Sprintf("%x…%x", h[:3], h[29:]) }

// HexToHash parses a 64-char hex string (no 0x prefix required).
func HexToHash(s string) (Hash, error) {
	if len(s) >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		s = s[2:]
	}
	var h Hash
	if len(s) != 64 {
		return h, fmt.Errorf("chain: hash must be 64 hex chars, got %d", len(s))
	}
	for i := 0; i < 32; i++ {
		var b byte
		for j := 0; j < 2; j++ {
			c := s[2*i+j]
			var v byte
			switch {
			case '0' <= c && c <= '9':
				v = c - '0'
			case 'a' <= c && c <= 'f':
				v = c - 'a' + 10
			case 'A' <= c && c <= 'F':
				v = c - 'A' + 10
			default:
				return Hash{}, fmt.Errorf("chain: invalid hex char %q", c)
			}
			b = b<<4 | v
		}
		h[i] = b
	}
	return h, nil
}

// MustHexToHash panics on parse failure; for known constants.
func MustHexToHash(s string) Hash {
	h, err := HexToHash(s)
	if err != nil {
		panic(err)
	}
	return h
}

// Well-known identifiers from the paper.
var (
	// MainnetGenesisHash is the genesis of Ethereum Mainnet
	// (network ID 1): d4e567…cb8fa3 in the paper's §2.3.
	MainnetGenesisHash = MustHexToHash("d4e56740f876aef8c010b86a40d5f56745a118d0906a34e69aec8c0db1cb8fa3")
	// RopstenGenesisHash is the Ropsten testnet genesis (network 3).
	RopstenGenesisHash = MustHexToHash("41941023680923e0fe4d74a34bdac8141f2540e3ae90623718e47d66d1ca4a2d")
	// MordenGenesisHash is the retired Morden testnet genesis.
	MordenGenesisHash = MustHexToHash("0cd786a2425d16f152c658316c423e6ce1181e15c3295826d7c9904cba9ce303")
)

// Network IDs.
const (
	MainnetNetworkID uint64 = 1
	MordenNetworkID  uint64 = 2
	RopstenNetworkID uint64 = 3
	RinkebyNetworkID uint64 = 4
	KovanNetworkID   uint64 = 42
	ClassicNetworkID uint64 = 1 // Classic shares network ID 1; it differs by chain history
)

// Fork block numbers on Mainnet.
const (
	// DAOForkBlock is block 1,920,000: the hard fork of July 20,
	// 2016 that split Ethereum from Ethereum Classic.
	DAOForkBlock uint64 = 1920000
	// ByzantiumForkBlock is block 4,370,000; the paper observes
	// nodes stuck at 4,370,001 (Figure 14).
	ByzantiumForkBlock uint64 = 4370000
)

// DAOForkBlockExtra is the extra-data value ("dao-hard-fork") that
// pro-fork clients place in headers 1,920,000–1,920,009; NodeFinder
// checks it to separate Mainnet from Classic peers.
var DAOForkBlockExtra = []byte{0x64, 0x61, 0x6f, 0x2d, 0x68, 0x61, 0x72, 0x64, 0x2d, 0x66, 0x6f, 0x72, 0x6b}

// A BLOCK_HEADERS body is a []*Header; registering it lets rlp's front
// doors code one like any wire type.
func init() { rlp.RegisterList[Header]() }

// Header is an Ethereum block header. Field order matters: the header
// hash is the Keccak-256 of this exact RLP encoding.
type Header struct {
	ParentHash  Hash
	UncleHash   Hash
	Coinbase    [20]byte
	Root        Hash
	TxHash      Hash
	ReceiptHash Hash
	Bloom       [256]byte
	Difficulty  *big.Int
	Number      *big.Int
	GasLimit    uint64
	GasUsed     uint64
	Time        uint64
	Extra       []byte
	MixDigest   Hash
	Nonce       [8]byte
}

// HashValue computes the header hash.
func (h *Header) HashValue() Hash {
	var buf [640]byte // a header with up to 32 bytes of extra-data encodes in place
	return Hash(keccak.Sum256(h.AppendRLP(buf[:0])))
}

// AppendRLP implements rlp.Encoder.
func (h *Header) AppendRLP(b []byte) []byte {
	b, list := rlp.ListStart(b)
	for _, f := range [...][]byte{h.ParentHash[:], h.UncleHash[:], h.Coinbase[:], h.Root[:], h.TxHash[:], h.ReceiptHash[:], h.Bloom[:]} {
		b = rlp.AppendBytes(b, f)
	}
	b = rlp.AppendBigInt(b, h.Difficulty)
	b = rlp.AppendBigInt(b, h.Number)
	b = rlp.AppendUint(b, h.GasLimit)
	b = rlp.AppendUint(b, h.GasUsed)
	b = rlp.AppendUint(b, h.Time)
	b = rlp.AppendBytes(b, h.Extra)
	b = rlp.AppendBytes(b, h.MixDigest[:])
	b = rlp.AppendBytes(b, h.Nonce[:])
	return rlp.ListEnd(b, list)
}

// DecodeRLP implements rlp.Decoder.
func (h *Header) DecodeRLP(s *rlp.Stream) error {
	difficulty, number, extra, err := h.scan(s)
	if err != nil {
		return err
	}
	h.Difficulty = new(big.Int).SetBytes(difficulty)
	h.Number = new(big.Int).SetBytes(number)
	h.Extra = append(make([]byte, 0, len(extra)), extra...)
	return nil
}

// scan reads a header from s as DecodeRLP does, the fixed-size fields
// into h; the two integers and the extra-data it returns in place, as
// views into s's input.
func (h *Header) scan(s *rlp.Stream) (difficulty, number, extra []byte, err error) {
	if _, err = s.List(); err != nil {
		return
	}
	for _, f := range [...][]byte{h.ParentHash[:], h.UncleHash[:], h.Coinbase[:], h.Root[:], h.TxHash[:], h.ReceiptHash[:], h.Bloom[:]} {
		if err = s.ReadBytes(f); err != nil {
			return
		}
	}
	if difficulty, err = s.BigIntView(); err != nil {
		return
	}
	if number, err = s.BigIntView(); err != nil {
		return
	}
	for _, f := range [...]*uint64{&h.GasLimit, &h.GasUsed, &h.Time} {
		if *f, err = s.Uint64(); err != nil {
			return
		}
	}
	if extra, err = s.BytesView(); err != nil {
		return
	}
	if err = s.ReadBytes(h.MixDigest[:]); err != nil {
		return
	}
	if err = s.ReadBytes(h.Nonce[:]); err != nil {
		return
	}
	err = s.ListEnd()
	return
}

// FirstHeaderExtra reads a BLOCK_HEADERS body without building its
// headers, refusing exactly what rlp.DecodeBytes into a []*Header
// refuses, and returns the first header's extra-data in place (a view
// into body); ok is false when the list is empty.
func FirstHeaderExtra(body []byte) (extra []byte, ok bool, err error) {
	err = rlp.Scan(body, func(s *rlp.Stream) error {
		if _, err := s.List(); err != nil {
			return err
		}
		for s.MoreDataInList() {
			var h Header
			_, _, x, err := h.scan(s)
			if err != nil {
				return err
			}
			if !ok {
				extra, ok = x, true
			}
		}
		return s.ListEnd()
	})
	if err != nil {
		return nil, false, err
	}
	return extra, ok, nil
}

// SupportsDAOFork reports whether a header at the DAO fork height
// carries the pro-fork extra-data.
func (h *Header) SupportsDAOFork() bool {
	return bytes.Equal(h.Extra, DAOForkBlockExtra)
}
