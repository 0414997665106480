package faultnet

import (
	"math/big"
	"math/rand"
	"net"
	"time"

	"repro/internal/crypto/secp256k1"
	"repro/internal/devp2p"
	"repro/internal/enode"
	"repro/internal/eth"
	"repro/internal/rlp"
	"repro/internal/rlpx"
)

// HostileKind selects which protocol attack a hostile peer mounts.
type HostileKind int

// Hostile peer behaviors. Each targets one layer of the crawler's
// establishment chain; together they cover every parser that sees
// attacker-controlled bytes.
const (
	// HostileNeverAck reads the RLPx auth message and never answers —
	// the half-open handshake that wedges an unhardened dialer.
	HostileNeverAck HostileKind = iota
	// HostileHangAfterHandshake completes RLPx, then goes silent
	// before HELLO.
	HostileHangAfterHandshake
	// HostileWrongMAC completes RLPx, then emits bytes that fail the
	// frame MAC.
	HostileWrongMAC
	// HostileGiantFrame completes RLPx, then announces a frame far
	// above the reader's cap.
	HostileGiantFrame
	// HostileOversizedHello sends a HELLO payload above
	// devp2p.MaxHelloSize.
	HostileOversizedHello
	// HostileBadRLPHello sends a HELLO whose payload is not valid
	// RLP.
	HostileBadRLPHello
	// HostileSnappyBomb negotiates snappy, then sends a payload whose
	// snappy header announces gigabytes.
	HostileSnappyBomb
	// HostileStatusFlood handshakes honestly, then floods STATUS
	// messages as fast as the socket accepts them.
	HostileStatusFlood
	// HostileImmediateReset accepts and resets the connection.
	HostileImmediateReset
	// HostileGarbage spews random bytes with no handshake at all.
	HostileGarbage

	NumHostileKinds
)

var hostileNames = map[HostileKind]string{
	HostileNeverAck:           "never-ack",
	HostileHangAfterHandshake: "hang-after-handshake",
	HostileWrongMAC:           "wrong-mac",
	HostileGiantFrame:         "giant-frame",
	HostileOversizedHello:     "oversized-hello",
	HostileBadRLPHello:        "bad-rlp-hello",
	HostileSnappyBomb:         "snappy-bomb",
	HostileStatusFlood:        "status-flood",
	HostileImmediateReset:     "immediate-reset",
	HostileGarbage:            "garbage",
}

func (k HostileKind) String() string {
	if n, ok := hostileNames[k]; ok {
		return n
	}
	return "unknown"
}

// hostileConnDeadline bounds every hostile connection's lifetime so
// the attacker side cannot leak goroutines either — the leak checker
// watches both ends of the taxonomy and chaos tests.
const hostileConnDeadline = 30 * time.Second

// ServeConn mounts one hostile attack on an already-established
// connection, then returns when the victim hangs up (or the
// connection deadline expires). Simulated populations project a
// hostile node onto any net.Conn with it — an in-memory pipe or an
// accepted loopback socket when simnet promotes a node for one
// connection — and the attack bytes are the same on both.
//
// Errors are irrelevant: the victim hanging up on us IS the desired
// outcome.
func ServeConn(kind HostileKind, key *secp256k1.PrivateKey, seed int64, fd net.Conn) {
	// Wall time by design: the socket deadline is an absolute
	// wall-clock instant the kernel compares against real time.
	fd.SetDeadline(time.Now().Add(hostileConnDeadline)) //nolint:errcheck
	serveConn(kind, key, fd, rand.New(rand.NewSource(seed)))
}

func serveConn(kind HostileKind, key *secp256k1.PrivateKey, fd net.Conn, rng *rand.Rand) {
	switch kind {
	case HostileNeverAck:
		// Drain whatever the initiator sends, answer nothing. The
		// conn deadline (or the victim's dial budget, whichever fires
		// first) ends it.
		buf := make([]byte, 4096)
		for {
			if _, err := fd.Read(buf); err != nil {
				return
			}
		}
	case HostileImmediateReset:
		if tc, ok := fd.(*net.TCPConn); ok {
			tc.SetLinger(0) //nolint:errcheck
		}
		return // deferred Close sends the RST
	case HostileGarbage:
		buf := make([]byte, 1024)
		for {
			rng.Read(buf) //nolint:errcheck
			if _, err := fd.Write(buf); err != nil {
				return
			}
		}
	}

	// Every remaining attack first completes a genuine RLPx
	// handshake; the victim's own key proves nothing about good
	// faith.
	conn, err := rlpx.AcceptTimeout(fd, key, 10*time.Second)
	if err != nil {
		return
	}
	switch kind {
	case HostileHangAfterHandshake:
		// Say nothing; read and discard so the victim's HELLO write
		// succeeds and it commits to waiting for ours. Keep draining
		// until the victim (or the conn deadline) hangs up — returning
		// early would close the socket and turn the hang into an EOF.
		for {
			if _, _, err := conn.ReadMsg(); err != nil {
				return
			}
		}
	case HostileWrongMAC:
		// 32 bytes of junk where an authenticated header belongs.
		junk := make([]byte, 32)
		rng.Read(junk) //nolint:errcheck
		fd.Write(junk) //nolint:errcheck
		conn.ReadMsg() //nolint:errcheck // hold until the victim hangs up
	case HostileGiantFrame:
		// A legally-framed message far above the victim's read cap:
		// rejected from the header alone.
		conn.WriteMsg(devp2p.HelloMsg, make([]byte, 2*1024*1024)) //nolint:errcheck
		conn.ReadMsg()                                            //nolint:errcheck
	case HostileOversizedHello:
		payload := validHelloPayload(key, devp2p.MaxHelloSize*4)
		conn.WriteMsg(devp2p.HelloMsg, payload) //nolint:errcheck
		conn.ReadMsg()                          //nolint:errcheck
	case HostileBadRLPHello:
		// A size header announcing 2^64-1 bytes: the overflow shape
		// the fuzzer found in the RLP splitter.
		conn.WriteMsg(devp2p.HelloMsg, []byte{0xBF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}) //nolint:errcheck
		conn.ReadMsg()                                                                               //nolint:errcheck
	case HostileSnappyBomb:
		serveSnappyBomb(conn, key)
	case HostileStatusFlood:
		serveStatusFlood(conn, key)
	}
}

// validHelloPayload RLP-encodes a well-formed HELLO inflated past
// minSize by an absurd client name — syntactically perfect, just too
// big to be worth parsing.
func validHelloPayload(key *secp256k1.PrivateKey, minSize int) []byte {
	name := make([]byte, minSize)
	for i := range name {
		name[i] = 'A'
	}
	h := devp2p.Hello{
		Version:    devp2p.Version,
		Name:       string(name),
		Caps:       []devp2p.Cap{{Name: eth.ProtocolName, Version: 63}},
		ListenPort: 30303,
		ID:         enode.PubkeyID(&key.Pub),
	}
	payload, err := rlp.EncodeToBytes(&h)
	if err != nil {
		return name // raw garbage is an acceptable fallback
	}
	return payload
}

// serveSnappyBomb negotiates devp2p v5 honestly so the victim
// enables snappy, then sends a payload whose snappy length header
// announces 2 GiB. The victim must reject it from the header without
// allocating.
func serveSnappyBomb(conn *rlpx.Conn, key *secp256k1.PrivateKey) {
	theirs, err := exchangeHello(conn, key)
	if err != nil || theirs.Version < devp2p.Version {
		return
	}
	// NOTE: our side deliberately does NOT enable snappy compression
	// for writes — the victim will treat the raw payload below as a
	// snappy stream and read its poisoned length header.
	bomb := []byte{0x80, 0x80, 0x80, 0x80, 0x08} // uvarint(2 GiB)
	bomb = append(bomb, 0xFF, 0xFF, 0xFF, 0xFF)
	conn.WriteMsg(devp2p.BaseProtocolLength+eth.StatusMsg, bomb) //nolint:errcheck
	conn.ReadMsg()                                               //nolint:errcheck
}

// serveStatusFlood handshakes honestly, then streams STATUS messages
// until the victim hangs up — a peer stuck in a protocol loop.
func serveStatusFlood(conn *rlpx.Conn, key *secp256k1.PrivateKey) {
	theirs, err := exchangeHello(conn, key)
	if err != nil {
		return
	}
	if theirs.Version >= devp2p.Version {
		// Unlike the snappy bomb, the flood compresses honestly: the
		// attack is volume, not framing.
		conn.SetSnappy(true)
	}
	status := FloodStatus()
	for {
		if err := eth.SendStatus(conn, devp2p.BaseProtocolLength, status); err != nil {
			return
		}
	}
}

// FloodStatus is the STATUS a HostileStatusFlood peer repeats. Its
// network is not Mainnet, which keeps the victim's DAO check out of
// the loop.
func FloodStatus() *eth.Status {
	return &eth.Status{ProtocolVersion: 63, NetworkID: 99, TD: big.NewInt(1)}
}

// hostileCaps is what HostileHello offers: eth, so that the victim
// goes on to the STATUS exchange the bomb and the flood attack.
var hostileCaps = []devp2p.Cap{{Name: eth.ProtocolName, Version: 62}, {Name: eth.ProtocolName, Version: 63}}

// HostileHello is the plausible HELLO (devp2p v5, eth/62 and eth/63)
// the attacks that get past HELLO — the snappy bomb and the STATUS
// flood — announce as node id. Caps is shared and must not be
// modified.
func HostileHello(id enode.ID) *devp2p.Hello {
	return &devp2p.Hello{
		Version:    devp2p.Version,
		Name:       "faultnet/hostile",
		Caps:       hostileCaps,
		ListenPort: 30303,
		ID:         id,
	}
}

// exchangeHello sends HostileHello and reads the victim's.
func exchangeHello(conn *rlpx.Conn, key *secp256k1.PrivateKey) (*devp2p.Hello, error) {
	return devp2p.ExchangeHello(conn, HostileHello(enode.PubkeyID(&key.Pub)))
}
