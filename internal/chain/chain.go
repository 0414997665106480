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
	enc, err := rlp.EncodeToBytes(h)
	if err != nil {
		// Headers constructed by this package always encode.
		panic("chain: header encode failed: " + err.Error())
	}
	return Hash(keccak.Sum256(enc))
}

// SupportsDAOFork reports whether a header at the DAO fork height
// carries the pro-fork extra-data.
func (h *Header) SupportsDAOFork() bool {
	return bytes.Equal(h.Extra, DAOForkBlockExtra)
}

// Chain is a simple in-memory header chain for simulated nodes. To
// keep multi-million-block chains cheap, only a sparse set of headers
// is materialized: the genesis, explicitly extended blocks, and jump
// landing points. Gaps use synthetic parent hashes derived from the
// genesis, so lookups stay consistent without storing every header.
type Chain struct {
	NetworkID uint64
	byNumber  map[uint64]*Header
	byHash    map[Hash]*Header
	head      *Header
	headHash  Hash
	genesis   Hash
	td        *big.Int
	daoFork   bool // whether this chain adopted the DAO fork
}

// Config parameterizes a synthetic chain.
type Config struct {
	NetworkID uint64
	// GenesisSeed differentiates distinct blockchains sharing a
	// network ID (the paper found 18,829 genesis hashes).
	GenesisSeed string
	// DAOFork marks the chain as pro-fork (Mainnet) rather than
	// Classic.
	DAOFork bool
	// Length is the number of blocks to build above genesis.
	Length int
	// BlockDifficulty is the per-block difficulty increment.
	BlockDifficulty int64
}

// New builds a deterministic synthetic chain.
func New(cfg Config) *Chain {
	if cfg.BlockDifficulty == 0 {
		cfg.BlockDifficulty = 131072
	}
	c := &Chain{
		NetworkID: cfg.NetworkID,
		byNumber:  make(map[uint64]*Header),
		byHash:    make(map[Hash]*Header),
		td:        new(big.Int),
		daoFork:   cfg.DAOFork,
	}
	genesis := &Header{
		Difficulty: big.NewInt(cfg.BlockDifficulty),
		Number:     big.NewInt(0),
		GasLimit:   5000,
		Extra:      []byte(cfg.GenesisSeed),
	}
	c.insert(genesis)
	c.genesis = c.headHash
	for i := 1; i <= cfg.Length; i++ {
		c.Extend()
	}
	return c
}

// insert records a header as the new head.
func (c *Chain) insert(h *Header) {
	hash := h.HashValue()
	n := h.Number.Uint64()
	c.byNumber[n] = h
	c.byHash[hash] = h
	c.head, c.headHash = h, hash
	c.td = new(big.Int).Add(c.td, h.Difficulty)
}

// Extend mines one synthetic block on the head.
func (c *Chain) Extend() *Header {
	head := c.Head()
	n := new(big.Int).Add(head.Number, big.NewInt(1))
	h := &Header{
		ParentHash: c.headHash,
		Difficulty: new(big.Int).Set(head.Difficulty),
		Number:     n,
		GasLimit:   head.GasLimit,
		Time:       head.Time + 15,
	}
	if c.daoFork && n.Uint64() >= DAOForkBlock && n.Uint64() < DAOForkBlock+10 {
		h.Extra = append([]byte(nil), DAOForkBlockExtra...)
	}
	c.insert(h)
	return h
}

// jumpTo fast-forwards the head to the given height without
// materializing intermediate headers. The landing header's parent
// hash is a synthetic value derived from the genesis and height, so
// distinct chains never collide. Total difficulty is credited for
// the skipped span.
func (c *Chain) jumpTo(number uint64) {
	head := c.Head()
	gap := number - head.Number.Uint64()
	parent := Hash(keccak.Sum256(append(c.genesis[:], byte(number>>24), byte(number>>16), byte(number>>8), byte(number))))
	h := &Header{
		ParentHash: parent,
		Difficulty: new(big.Int).Set(head.Difficulty),
		Number:     new(big.Int).SetUint64(number),
		GasLimit:   head.GasLimit,
		Time:       head.Time + 15*gap,
	}
	// Credit difficulty for the skipped blocks (gap-1 of them; the
	// landing block's own difficulty is added by insert).
	skipped := new(big.Int).Mul(head.Difficulty, new(big.Int).SetUint64(gap-1))
	c.td = new(big.Int).Add(c.td, skipped)
	c.insert(h)
}

// ExtendTo grows the chain until the head reaches the given block
// number, fast-forwarding across large gaps but materializing real
// headers near interesting heights (e.g. the DAO fork window).
func (c *Chain) ExtendTo(number uint64) {
	const window = 64
	for c.Head().Number.Uint64() < number {
		cur := c.Head().Number.Uint64()
		if number-cur > window {
			// Land shortly before the target (and before the DAO
			// window if it is in range) so real blocks cover it.
			land := number - window/2
			// Materialize real headers around the DAO fork window so
			// fork checks can be answered either way.
			if cur < DAOForkBlock && number >= DAOForkBlock && land > DAOForkBlock-window/2 {
				land = DAOForkBlock - window/2
			}
			if land > cur+1 {
				c.jumpTo(land)
				continue
			}
		}
		c.Extend()
	}
}

// Head returns the latest header.
func (c *Chain) Head() *Header { return c.head }

// HeadHash returns the hash of the latest header — the "best hash" of
// eth STATUS messages.
func (c *Chain) HeadHash() Hash { return c.headHash }

// GenesisHash returns block zero's hash.
func (c *Chain) GenesisHash() Hash { return c.genesis }

// TD returns the cumulative total difficulty.
func (c *Chain) TD() *big.Int { return new(big.Int).Set(c.td) }

// Len returns the number of materialized headers including genesis.
func (c *Chain) Len() int { return len(c.byNumber) }

// HeaderByNumber returns the header at the given height, or nil if it
// is above the head or inside a fast-forwarded gap.
func (c *Chain) HeaderByNumber(n uint64) *Header { return c.byNumber[n] }

// HeaderByHash returns the header with the given hash, or nil.
func (c *Chain) HeaderByHash(h Hash) *Header { return c.byHash[h] }

// SupportsDAOFork reports the chain's fork stance.
func (c *Chain) SupportsDAOFork() bool { return c.daoFork }

// ValidateHeaderChain performs block-header validation (§2.3): parent
// linkage, number monotonicity, and timestamp ordering, for a span of
// headers. It returns the first offending index or -1.
func ValidateHeaderChain(headers []*Header) int {
	for i := 1; i < len(headers); i++ {
		prev, cur := headers[i-1], headers[i]
		if cur.ParentHash != prev.HashValue() {
			return i
		}
		if cur.Number.Cmp(new(big.Int).Add(prev.Number, big.NewInt(1))) != 0 {
			return i
		}
		if cur.Time < prev.Time {
			return i
		}
	}
	return -1
}
