// Package discv4 implements RLPx node discovery (discovery protocol
// v4), the UDP layer of Ethereum's network stack.
//
// Discovery is a Kademlia variant with five differences from the
// original DHT, all reproduced here as the paper describes (§2.1):
// no data storage, 512-bit node IDs, IDs doubling as public keys,
// XOR distance computed over the Keccak-256 hash of the ID, and a
// log2 distance metric yielding 257 distinct buckets.
//
// Wire format of every packet:
//
//	hash(32) || signature(65) || packet-type(1) || RLP payload
//
// where hash = Keccak256(signature || type || payload) and the
// signature is a recoverable secp256k1 signature over
// Keccak256(type || payload). The sender's node ID is recovered from
// the signature, so packets are self-authenticating.
package discv4

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/crypto/keccak"
	"repro/internal/crypto/secp256k1"
	"repro/internal/enode"
	"repro/internal/rlp"
)

// Packet type codes.
const (
	PingPacket byte = iota + 1
	PongPacket
	FindnodePacket
	NeighborsPacket
)

// Version is the discovery protocol version carried in ping packets.
const Version = 4

const (
	macSize  = 32
	sigSize  = secp256k1.SignatureLength
	headSize = macSize + sigSize
)

// Wire layer errors.
var (
	ErrPacketTooSmall = errors.New("discv4: packet too small")
	ErrBadHash        = errors.New("discv4: bad packet hash")
	ErrExpired        = errors.New("discv4: packet expired")
	ErrBadSignature   = errors.New("discv4: invalid signature")
	ErrUnknownPacket  = errors.New("discv4: unknown packet type")
)

// Endpoint is the RLP node endpoint structure: IP plus both ports.
type Endpoint struct {
	IP  net.IP
	UDP uint16
	TCP uint16
}

// NewEndpoint builds an Endpoint from a UDP address and TCP port.
func NewEndpoint(addr *net.UDPAddr, tcpPort uint16) Endpoint {
	ip := addr.IP.To4()
	if ip == nil {
		ip = addr.IP
	}
	return Endpoint{IP: ip, UDP: uint16(addr.Port), TCP: tcpPort}
}

// AppendRLP implements rlp.Encoder.
func (e *Endpoint) AppendRLP(b []byte) []byte {
	b, list := rlp.ListStart(b)
	b = appendAddr(b, e.IP, e.UDP, e.TCP)
	return rlp.ListEnd(b, list)
}

// DecodeRLP implements rlp.Decoder.
func (e *Endpoint) DecodeRLP(s *rlp.Stream) (err error) {
	if _, err = s.List(); err != nil {
		return err
	}
	if e.IP, e.UDP, e.TCP, err = decodeAddr(s); err != nil {
		return err
	}
	return s.ListEnd()
}

// appendAddr and decodeAddr code the IP, UDP port, TCP port triple
// that an Endpoint and an RPCNode both begin with.
func appendAddr(b []byte, ip net.IP, udp, tcp uint16) []byte {
	b = rlp.AppendBytes(b, ip)
	b = rlp.AppendUint(b, uint64(udp))
	return rlp.AppendUint(b, uint64(tcp))
}

func decodeAddr(s *rlp.Stream) (ip net.IP, udp, tcp uint16, err error) {
	if ip, err = s.Bytes(); err != nil {
		return
	}
	if udp, err = s.Uint16(); err != nil {
		return
	}
	tcp, err = s.Uint16()
	return
}

// The packet payloads. Each Rest captures the fields a newer version
// appends; its tag marks it for the reference codec in internal/rlp's
// tests.

// Ping is the liveness probe. Expiration is an absolute Unix time
// after which receivers drop the packet.
type Ping struct {
	Version    uint
	From, To   Endpoint
	Expiration uint64
	Rest       []rlp.RawValue `rlp:"tail"`
}

// AppendRLP implements rlp.Encoder.
func (p *Ping) AppendRLP(b []byte) []byte {
	b, list := rlp.ListStart(b)
	b = rlp.AppendUint(b, uint64(p.Version))
	b = p.From.AppendRLP(b)
	b = p.To.AppendRLP(b)
	b = rlp.AppendUint(b, p.Expiration)
	b = rlp.AppendRaw(b, p.Rest...)
	return rlp.ListEnd(b, list)
}

// DecodeRLP implements rlp.Decoder.
func (p *Ping) DecodeRLP(s *rlp.Stream) (err error) {
	if _, err = s.List(); err != nil {
		return err
	}
	v, err := s.Uint64()
	if err != nil {
		return err
	}
	p.Version = uint(v)
	if err = p.From.DecodeRLP(s); err != nil {
		return err
	}
	if err = p.To.DecodeRLP(s); err != nil {
		return err
	}
	return decodeTail(s, &p.Expiration, &p.Rest)
}

// Pong answers a ping; ReplyTok echoes the ping's packet hash.
type Pong struct {
	To         Endpoint
	ReplyTok   []byte
	Expiration uint64
	Rest       []rlp.RawValue `rlp:"tail"`
}

// AppendRLP implements rlp.Encoder.
func (p *Pong) AppendRLP(b []byte) []byte {
	b, list := rlp.ListStart(b)
	b = p.To.AppendRLP(b)
	b = rlp.AppendBytes(b, p.ReplyTok)
	b = rlp.AppendUint(b, p.Expiration)
	b = rlp.AppendRaw(b, p.Rest...)
	return rlp.ListEnd(b, list)
}

// DecodeRLP implements rlp.Decoder.
func (p *Pong) DecodeRLP(s *rlp.Stream) (err error) {
	if _, err = s.List(); err != nil {
		return err
	}
	if err = p.To.DecodeRLP(s); err != nil {
		return err
	}
	if p.ReplyTok, err = s.Bytes(); err != nil {
		return err
	}
	return decodeTail(s, &p.Expiration, &p.Rest)
}

// Findnode asks for the k closest nodes to Target.
type Findnode struct {
	Target     enode.ID
	Expiration uint64
	Rest       []rlp.RawValue `rlp:"tail"`
}

// AppendRLP implements rlp.Encoder.
func (f *Findnode) AppendRLP(b []byte) []byte {
	b, list := rlp.ListStart(b)
	b = rlp.AppendBytes(b, f.Target[:])
	b = rlp.AppendUint(b, f.Expiration)
	b = rlp.AppendRaw(b, f.Rest...)
	return rlp.ListEnd(b, list)
}

// DecodeRLP implements rlp.Decoder.
func (f *Findnode) DecodeRLP(s *rlp.Stream) (err error) {
	if _, err = s.List(); err != nil {
		return err
	}
	if err = s.ReadBytes(f.Target[:]); err != nil {
		return err
	}
	return decodeTail(s, &f.Expiration, &f.Rest)
}

// Neighbors carries the response node list.
type Neighbors struct {
	Nodes      []RPCNode
	Expiration uint64
	Rest       []rlp.RawValue `rlp:"tail"`
}

// AppendRLP implements rlp.Encoder.
func (n *Neighbors) AppendRLP(b []byte) []byte {
	b, list := rlp.ListStart(b)
	b, nodes := rlp.ListStart(b)
	for i := range n.Nodes {
		b = n.Nodes[i].AppendRLP(b)
	}
	b = rlp.ListEnd(b, nodes)
	b = rlp.AppendUint(b, n.Expiration)
	b = rlp.AppendRaw(b, n.Rest...)
	return rlp.ListEnd(b, list)
}

// DecodeRLP implements rlp.Decoder.
func (n *Neighbors) DecodeRLP(s *rlp.Stream) (err error) {
	if _, err = s.List(); err != nil {
		return err
	}
	if n.Nodes, err = rlp.DecodeList[RPCNode](s); err != nil {
		return err
	}
	return decodeTail(s, &n.Expiration, &n.Rest)
}

// decodeTail reads the expiration and the Rest every packet ends
// with, and leaves the packet's list.
func decodeTail(s *rlp.Stream, expiration *uint64, rest *[]rlp.RawValue) (err error) {
	if *expiration, err = s.Uint64(); err != nil {
		return err
	}
	if *rest, err = s.Rest(); err != nil {
		return err
	}
	return s.ListEnd()
}

// RPCNode is the node record as transmitted in neighbors packets.
type RPCNode struct {
	IP  net.IP
	UDP uint16
	TCP uint16
	ID  enode.ID
}

// AppendRLP implements rlp.Encoder.
func (r *RPCNode) AppendRLP(b []byte) []byte {
	b, list := rlp.ListStart(b)
	b = appendAddr(b, r.IP, r.UDP, r.TCP)
	b = rlp.AppendBytes(b, r.ID[:])
	return rlp.ListEnd(b, list)
}

// DecodeRLP implements rlp.Decoder.
func (r *RPCNode) DecodeRLP(s *rlp.Stream) (err error) {
	if _, err = s.List(); err != nil {
		return err
	}
	if r.IP, r.UDP, r.TCP, err = decodeAddr(s); err != nil {
		return err
	}
	if err = s.ReadBytes(r.ID[:]); err != nil {
		return err
	}
	return s.ListEnd()
}

// Node converts an RPCNode to an enode.Node.
func (r RPCNode) Node() *enode.Node {
	return enode.New(r.ID, r.IP, r.UDP, r.TCP)
}

// RPCNodeFrom converts an enode.Node to its wire form.
func RPCNodeFrom(n *enode.Node) RPCNode {
	return RPCNode{IP: n.IP, UDP: n.UDP, TCP: n.TCP, ID: n.ID}
}

// packetTypeOf returns the type byte for a payload struct.
func packetTypeOf(pkt any) (byte, error) {
	switch pkt.(type) {
	case *Ping:
		return PingPacket, nil
	case *Pong:
		return PongPacket, nil
	case *Findnode:
		return FindnodePacket, nil
	case *Neighbors:
		return NeighborsPacket, nil
	default:
		return 0, fmt.Errorf("discv4: cannot encode %T", pkt)
	}
}

// EncodePacket signs and frames a discovery packet. It returns the
// full datagram and the packet hash (used as the pong reply token).
func EncodePacket(priv *secp256k1.PrivateKey, pkt any) (datagram, hash []byte, err error) {
	ptype, err := packetTypeOf(pkt)
	if err != nil {
		return nil, nil, err
	}
	// Encode the payload directly behind the packet header instead of
	// into a temporary: one buffer, one allocation for the datagram.
	b := make([]byte, headSize+1, headSize+1+256)
	b[headSize] = ptype
	b, err = rlp.EncodeAppend(b, pkt)
	if err != nil {
		return nil, nil, fmt.Errorf("discv4: encoding payload: %w", err)
	}

	toSign := keccak.Sum256(b[headSize:])
	sig, err := secp256k1.Sign(priv, toSign[:])
	if err != nil {
		return nil, nil, fmt.Errorf("discv4: signing: %w", err)
	}
	copy(b[macSize:], sig)
	h := keccak.Sum256(b[macSize:])
	copy(b, h[:])
	return b, h[:], nil
}

// DecodePacket verifies and parses a datagram. It returns the decoded
// payload, the sender's recovered node ID, and the packet hash.
func DecodePacket(buf []byte) (pkt any, fromID enode.ID, hash []byte, err error) {
	if len(buf) < headSize+1 {
		return nil, enode.ID{}, nil, ErrPacketTooSmall
	}
	h := keccak.Sum256(buf[macSize:])
	if !bytes.Equal(h[:], buf[:macSize]) {
		return nil, enode.ID{}, nil, ErrBadHash
	}
	toSign := keccak.Sum256(buf[headSize:])
	pub, err := secp256k1.RecoverPubkey(toSign[:], buf[macSize:headSize])
	if err != nil {
		return nil, enode.ID{}, nil, fmt.Errorf("%w: %v", ErrBadSignature, err)
	}
	fromID = enode.PubkeyID(pub)

	var dec any
	switch ptype := buf[headSize]; ptype {
	case PingPacket:
		dec = new(Ping)
	case PongPacket:
		dec = new(Pong)
	case FindnodePacket:
		dec = new(Findnode)
	case NeighborsPacket:
		dec = new(Neighbors)
	default:
		return nil, fromID, h[:], fmt.Errorf("%w: %d", ErrUnknownPacket, ptype)
	}
	// DecodeFirst, like the stream decoder it replaces, tolerates
	// trailing bytes after the first value — real clients pad
	// discovery payloads for forward compatibility.
	if err := rlp.DecodeFirst(buf[headSize+1:], dec); err != nil {
		return nil, fromID, h[:], fmt.Errorf("discv4: decoding payload: %w", err)
	}
	return dec, fromID, h[:], nil
}

// expired reports whether an absolute Unix timestamp is in the past.
func expired(ts uint64, now time.Time) bool {
	return ts < uint64(now.Unix())
}
