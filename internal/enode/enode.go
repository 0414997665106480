// Package enode defines Ethereum node identities and the enode:// URL
// scheme used to exchange node addresses.
//
// A node's identity is its 512-bit secp256k1 public key (the "node
// ID"). RLPx distance calculations operate on the Keccak-256 hash of
// the ID, not the ID itself. An enode URL carries the ID plus IP and
// port information:
//
//	enode://<128 hex chars>@10.3.58.6:30303?discport=30301
//
// The TCP port follows the colon; the optional discport query
// parameter gives the UDP discovery port when it differs.
package enode

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/crypto/keccak"
	"repro/internal/crypto/secp256k1"
)

// IDLength is the byte length of a node ID (512-bit public key).
const IDLength = 64

// ID is a node identifier: the raw X||Y public key encoding.
type ID [IDLength]byte

// Bytes returns the ID as a byte slice.
func (id ID) Bytes() []byte { return id[:] }

// String returns the full hexadecimal representation.
func (id ID) String() string {
	var buf [2 * IDLength]byte
	hex.Encode(buf[:], id[:])
	return string(buf[:])
}

// TerminalString returns an abbreviated form for logs.
func (id ID) TerminalString() string {
	buf := make([]byte, 0, 8+len("…")+8)
	buf = append(hex.AppendEncode(buf, id[:4]), "…"...)
	return string(hex.AppendEncode(buf, id[60:]))
}

// IsZero reports whether the ID is all zeroes.
func (id ID) IsZero() bool { return id == ID{} }

// Hash returns the Keccak-256 hash of the ID, the value RLPx distance
// is computed over.
func (id ID) Hash() [32]byte { return keccak.Sum256(id[:]) }

// PubkeyID converts a public key to a node ID.
func PubkeyID(pub *secp256k1.PublicKey) ID {
	var id ID
	pub.PutRaw((*[IDLength]byte)(&id))
	return id
}

// Pubkey parses the ID back into a public key, validating that it is
// a point on the curve.
func (id ID) Pubkey() (*secp256k1.PublicKey, error) {
	return secp256k1.ParsePublicKey(id[:])
}

// HexID parses a 128-hex-character node ID, with or without an 0x or
// enode:// prefix.
func HexID(s string) (ID, error) {
	s = strings.TrimPrefix(strings.TrimPrefix(s, "enode://"), "0x")
	var id ID
	if len(s) != IDLength*2 {
		return id, fmt.Errorf("enode: ID must be %d hex chars, got %d", IDLength*2, len(s))
	}
	for i := 0; i < IDLength; i++ {
		hi, ok1 := hexVal(s[2*i])
		lo, ok2 := hexVal(s[2*i+1])
		if !ok1 || !ok2 {
			return ID{}, fmt.Errorf("enode: invalid hex character in ID")
		}
		id[i] = hi<<4 | lo
	}
	return id, nil
}

func hexVal(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	default:
		return 0, false
	}
}

// RandomID produces a uniformly random ID from rng. The result is
// generally not a valid curve point; it is used for lookup targets,
// matching how clients pick random discovery targets.
func RandomID(rng *rand.Rand) ID {
	var id ID
	rng.Read(id[:])
	return id
}

// Node describes a network host: identity plus addressing.
type Node struct {
	ID  ID
	IP  net.IP
	UDP uint16 // discovery port
	TCP uint16 // RLPx listening port
}

// New constructs a Node, normalizing the IP form.
func New(id ID, ip net.IP, udp, tcp uint16) *Node {
	if v4 := ip.To4(); v4 != nil {
		ip = v4
	}
	return &Node{ID: id, IP: ip, UDP: udp, TCP: tcp}
}

// Addr returns the UDP address of the node's discovery endpoint.
func (n *Node) Addr() *net.UDPAddr {
	return &net.UDPAddr{IP: n.IP, Port: int(n.UDP)}
}

// TCPAddr returns the node's RLPx endpoint.
func (n *Node) TCPAddr() *net.TCPAddr {
	return &net.TCPAddr{IP: n.IP, Port: int(n.TCP)}
}

// String encodes the node as an enode URL.
func (n *Node) String() string {
	u := url.URL{Scheme: "enode"}
	u.User = url.User(n.ID.String())
	u.Host = net.JoinHostPort(n.IP.String(), strconv.Itoa(int(n.TCP)))
	if n.UDP != n.TCP {
		u.RawQuery = "discport=" + strconv.Itoa(int(n.UDP))
	}
	return u.String()
}

// ErrInvalidURL is returned for strings that are not enode URLs.
var ErrInvalidURL = errors.New("enode: invalid enode URL")

// ParseURL decodes an enode URL into a Node.
func ParseURL(raw string) (*Node, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidURL, err)
	}
	if u.Scheme != "enode" {
		return nil, fmt.Errorf("%w: scheme %q", ErrInvalidURL, u.Scheme)
	}
	if u.User == nil {
		return nil, fmt.Errorf("%w: missing node ID", ErrInvalidURL)
	}
	id, err := HexID(u.User.String())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidURL, err)
	}
	host, portStr, err := net.SplitHostPort(u.Host)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidURL, err)
	}
	ip := net.ParseIP(host)
	if ip == nil {
		return nil, fmt.Errorf("%w: invalid IP %q", ErrInvalidURL, host)
	}
	tcp, err := strconv.ParseUint(portStr, 10, 16)
	if err != nil {
		return nil, fmt.Errorf("%w: invalid port %q", ErrInvalidURL, portStr)
	}
	udp := tcp
	if disc := u.Query().Get("discport"); disc != "" {
		udp, err = strconv.ParseUint(disc, 10, 16)
		if err != nil {
			return nil, fmt.Errorf("%w: invalid discport %q", ErrInvalidURL, disc)
		}
	}
	return New(id, ip, uint16(udp), uint16(tcp)), nil
}

// LogDist returns the logarithmic XOR distance between two ID hashes
// as used by Geth: floor(log2(a XOR b)) + 1, i.e. the bit position of
// the first differing bit. Equal hashes have distance 0; the maximum
// is 256. This corresponds to the paper's "257 distinct node buckets".
func LogDist(a, b [32]byte) int {
	lz := 0
	for i := range a {
		x := a[i] ^ b[i]
		if x == 0 {
			lz += 8
			continue
		}
		for x&0x80 == 0 {
			lz++
			x <<= 1
		}
		break
	}
	return 256 - lz
}

// ParityLogDist computes the distance the way Parity v1.x did, per
// the paper's §6.3 and Appendix A: instead of taking log2 of the
// whole 256-bit XOR, Parity computed the log distance on each *byte*
// of the XOR and summed them. For uniformly random hashes the sum
// concentrates around 32·E[bitlen(byte)] ≈ 227 instead of Geth's
// geometric concentration at 256, so the two clients fundamentally
// disagree about which nodes are "close" (Figure 11). The metrics
// coincide only for values of the form y = 2^ld_G(x,0) − 1 (Eq. 1).
func ParityLogDist(a, b [32]byte) int {
	ret := 0
	for i := 0; i < 32; i++ {
		v := a[i] ^ b[i]
		for v != 0 {
			v >>= 1
			ret++
		}
	}
	return ret
}
