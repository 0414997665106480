// Package ethnode implements a miniature but protocol-complete
// Ethereum node: RLPx listener, outbound dialing, DEVp2p session
// handling, eth STATUS exchange, block-header serving, and
// transaction broadcast.
//
// It exists so NodeFinder can be exercised end-to-end over real
// sockets: a population of ethnodes with configurable client names,
// capabilities, chains, and peer limits stands in for the live
// network at laptop scale. Its behavioral knobs mirror the client
// differences the paper measures: maximum peer count (Geth 25 vs
// Parity 50), disconnect behavior, subprotocol sets, and the
// transaction relay policies of §3 (Geth broadcasts to all peers,
// Parity to √n).
package ethnode

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/chain"
	"repro/internal/crypto/secp256k1"
	"repro/internal/devp2p"
	"repro/internal/discv4"
	"repro/internal/enode"
	"repro/internal/eth"
	"repro/internal/rlp"
	"repro/internal/rlpx"
)

// ethCapLengths gives MatchCaps the message space of eth, the one
// subprotocol spoken here. Read-only: every handshake shares it.
var ethCapLengths = map[string]uint64{eth.ProtocolName: eth.ProtocolLength}

// TxRelayPolicy selects which peers receive transaction broadcasts.
type TxRelayPolicy int

// Relay policies from the §3 case study.
const (
	// RelayAll is Geth's policy: broadcast to every peer.
	RelayAll TxRelayPolicy = iota
	// RelaySqrt is Parity's policy: broadcast to √n peers.
	RelaySqrt
)

// Config parameterizes a node.
type Config struct {
	Key        *secp256k1.PrivateKey
	ClientName string
	// Caps are the advertised capabilities; default is eth/62+63.
	Caps []devp2p.Cap
	// Chain is the blockchain this node serves; nil nodes speak
	// DEVp2p but have no eth service ("non-productive peers").
	Chain *chain.Chain
	// MaxPeers is the concurrent peer limit (Geth defaults to 25,
	// Parity to 50). Zero means 25.
	MaxPeers int
	// ListenAddr is the TCP listen address; empty picks an ephemeral
	// loopback port.
	ListenAddr string
	// Discovery enables a discv4 transport on the same port number.
	Discovery bool
	// Bootnodes seed the discovery table.
	Bootnodes []*enode.Node
	// DiscoveryMetric overrides the table distance metric, allowing
	// Parity's buggy metric to be modeled (§6.3).
	DiscoveryMetric discv4.DistanceFunc
	// DialPeers enables the outbound dial loop: the node fills its
	// peer slots from discovery results like a normal client.
	DialPeers bool
	// TxInterval enables periodic transaction broadcast to connected
	// peers (zero disables).
	TxInterval time.Duration
	// TxRelay selects the broadcast policy.
	TxRelay TxRelayPolicy
	// Seed drives deterministic internals.
	Seed int64
}

// MsgCounters tallies base and eth protocol messages by direction,
// the instrumentation of the §3 case study.
type MsgCounters struct {
	mu   sync.Mutex
	Sent map[string]uint64
	Recv map[string]uint64
}

func newMsgCounters() *MsgCounters {
	return &MsgCounters{Sent: map[string]uint64{}, Recv: map[string]uint64{}}
}

func (m *MsgCounters) bump(sent bool, name string) {
	m.mu.Lock()
	if sent {
		m.Sent[name]++
	} else {
		m.Recv[name]++
	}
	m.mu.Unlock()
}

// Snapshot returns copies of the counter maps.
func (m *MsgCounters) Snapshot() (sent, recv map[string]uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sent = make(map[string]uint64, len(m.Sent))
	recv = make(map[string]uint64, len(m.Recv))
	for k, v := range m.Sent {
		sent[k] = v
	}
	for k, v := range m.Recv {
		recv[k] = v
	}
	return sent, recv
}

// peerSession is one live peer connection.
type peerSession struct {
	conn   *rlpx.Conn
	ethCap *devp2p.NegotiatedCap
	wmu    sync.Mutex // serializes frame writes
}

// write sends one message under the session write lock.
func (p *peerSession) write(code uint64, payload []byte) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	return p.conn.WriteMsg(code, payload)
}

// Node is a running mini Ethereum node.
type Node struct {
	cfg      Config
	ln       net.Listener
	disc     *discv4.Transport
	self     enode.ID
	Counters *MsgCounters

	mu       sync.Mutex
	peers    map[enode.ID]*peerSession
	closed   bool
	wg       sync.WaitGroup
	stopOnce sync.Once
	done     chan struct{}
}

// Start launches the node's listener (and discovery, dialing, and
// transaction broadcast, if enabled).
func Start(cfg Config) (*Node, error) {
	if cfg.Key == nil {
		return nil, errors.New("ethnode: config requires a key")
	}
	if cfg.MaxPeers == 0 {
		cfg.MaxPeers = 25
	}
	if cfg.Caps == nil && cfg.Chain != nil {
		cfg.Caps = []devp2p.Cap{{Name: "eth", Version: 62}, {Name: "eth", Version: 63}}
	}
	addr := cfg.ListenAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp4", addr)
	if err != nil {
		return nil, fmt.Errorf("ethnode: listen: %w", err)
	}
	n := &Node{
		cfg:      cfg,
		ln:       ln,
		self:     enode.PubkeyID(&cfg.Key.Pub),
		Counters: newMsgCounters(),
		peers:    make(map[enode.ID]*peerSession),
		done:     make(chan struct{}),
	}
	if cfg.Discovery {
		port := ln.Addr().(*net.TCPAddr).Port
		udpConn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port})
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("ethnode: udp listen: %w", err)
		}
		n.disc, err = discv4.Listen(discv4.UDPConn{UDPConn: udpConn}, discv4.Config{
			Key:         cfg.Key,
			AnnounceTCP: uint16(port),
			Bootnodes:   cfg.Bootnodes,
			Distance:    cfg.DiscoveryMetric,
			Seed:        cfg.Seed,
		})
		if err != nil {
			ln.Close()
			return nil, err
		}
	}
	n.wg.Add(1)
	go n.acceptLoop()
	if cfg.DialPeers {
		if n.disc == nil {
			ln.Close()
			return nil, errors.New("ethnode: DialPeers requires Discovery")
		}
		n.wg.Add(1)
		go n.dialLoop()
	}
	if cfg.TxInterval > 0 {
		n.wg.Add(1)
		go n.txLoop()
	}
	return n, nil
}

// Self returns this node's enode record.
func (n *Node) Self() *enode.Node {
	addr := n.ln.Addr().(*net.TCPAddr)
	return enode.New(n.self, addr.IP, uint16(addr.Port), uint16(addr.Port))
}

// Discovery returns the node's discv4 transport, if enabled.
func (n *Node) Discovery() *discv4.Transport { return n.disc }

// PeerCount returns the number of connected peers.
func (n *Node) PeerCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.peers)
}

// Bond pings a peer over discovery so lookups succeed.
func (n *Node) Bond(other *enode.Node) error {
	if n.disc == nil {
		return errors.New("ethnode: discovery disabled")
	}
	return n.disc.Ping(other)
}

// Close shuts the node down.
func (n *Node) Close() {
	n.stopOnce.Do(func() {
		n.mu.Lock()
		n.closed = true
		sessions := make([]*peerSession, 0, len(n.peers))
		for _, p := range n.peers {
			sessions = append(sessions, p)
		}
		n.mu.Unlock()
		close(n.done)
		n.ln.Close()
		for _, p := range sessions {
			p.conn.Close()
		}
		if n.disc != nil {
			n.disc.Close()
		}
	})
	n.wg.Wait()
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		fd, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer fd.Close()
			conn, err := rlpx.Accept(fd, n.cfg.Key)
			if err != nil {
				return
			}
			n.runSession(conn)
		}()
	}
}

// dialLoop fills free peer slots from discovery results, the way a
// normal client does ("The discovery process is initiated whenever
// the client has room for more peers", §4).
func (n *Node) dialLoop() {
	defer n.wg.Done()
	rng := rand.New(rand.NewSource(n.cfg.Seed ^ 0xd1a7))
	ticker := time.NewTicker(500 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-n.done:
			return
		case <-ticker.C:
		}
		if n.PeerCount() >= n.cfg.MaxPeers {
			continue
		}
		candidates := n.disc.Lookup(enode.RandomID(rng))
		for _, cand := range candidates {
			if cand.ID == n.self || n.hasPeer(cand.ID) {
				continue
			}
			if n.PeerCount() >= n.cfg.MaxPeers {
				break
			}
			n.wg.Add(1)
			go func(target *enode.Node) {
				defer n.wg.Done()
				n.dialPeer(target)
			}(cand)
		}
	}
}

func (n *Node) hasPeer(id enode.ID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.peers[id]
	return ok
}

// dialPeer establishes an outbound session.
func (n *Node) dialPeer(target *enode.Node) {
	fd, err := net.DialTimeout("tcp", target.TCPAddr().String(), 5*time.Second)
	if err != nil {
		return
	}
	defer fd.Close()
	conn, err := rlpx.Initiate(fd, n.cfg.Key, target.ID)
	if err != nil {
		return
	}
	n.runSession(conn)
}

// runSession performs the DEVp2p + eth handshakes and serves the
// session until it ends. Both inbound and outbound sessions share
// this path.
func (n *Node) runSession(conn *rlpx.Conn) {
	remoteID := conn.RemoteID()

	ours := &devp2p.Hello{
		Version:    devp2p.Version,
		Name:       n.cfg.ClientName,
		Caps:       n.cfg.Caps,
		ListenPort: uint64(n.ln.Addr().(*net.TCPAddr).Port),
		ID:         n.self,
	}
	n.Counters.bump(true, "HELLO")
	theirs, err := devp2p.ExchangeHello(conn, ours)
	if err != nil {
		var de devp2p.DisconnectError
		if errors.As(err, &de) {
			n.Counters.bump(false, "DISCONNECT:"+de.Reason.String())
		}
		return
	}
	n.Counters.bump(false, "HELLO")
	if ours.Version >= devp2p.Version && theirs.Version >= devp2p.Version {
		conn.SetSnappy(true)
	}

	// Peer limit: the "Too many peers" path that dominates Table 1.
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	if len(n.peers) >= n.cfg.MaxPeers {
		n.mu.Unlock()
		n.Counters.bump(true, "DISCONNECT:"+devp2p.DiscTooManyPeers.String())
		devp2p.SendDisconnect(conn, devp2p.DiscTooManyPeers) //nolint:errcheck
		return
	}
	if _, dup := n.peers[remoteID]; dup {
		n.mu.Unlock()
		n.Counters.bump(true, "DISCONNECT:"+devp2p.DiscAlreadyConnected.String())
		devp2p.SendDisconnect(conn, devp2p.DiscAlreadyConnected) //nolint:errcheck
		return
	}
	session := &peerSession{conn: conn}
	n.peers[remoteID] = session
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.peers, remoteID)
		n.mu.Unlock()
	}()

	// Capability match; useless peers are cut loose like Geth does.
	// ethCap is read concurrently by the broadcast loop, so the
	// assignment happens under the node lock.
	caps := devp2p.MatchCaps(ours.Caps, theirs.Caps, ethCapLengths)
	var ethCap *devp2p.NegotiatedCap
	for i := range caps {
		if caps[i].Name == eth.ProtocolName {
			ethCap = &caps[i]
		}
	}
	n.mu.Lock()
	session.ethCap = ethCap
	n.mu.Unlock()
	if ethCap == nil || n.cfg.Chain == nil {
		n.Counters.bump(true, "DISCONNECT:"+devp2p.DiscUselessPeer.String())
		devp2p.SendDisconnect(conn, devp2p.DiscUselessPeer) //nolint:errcheck
		return
	}

	// eth STATUS exchange.
	c := n.cfg.Chain
	ourStatus := &eth.Status{
		ProtocolVersion: uint32(session.ethCap.Version),
		NetworkID:       c.NetworkID,
		TD:              c.TD(),
		BestHash:        c.HeadHash(),
		GenesisHash:     c.GenesisHash(),
	}
	n.Counters.bump(true, "STATUS")
	payload, err := rlp.EncodeToBytes(ourStatus)
	if err != nil {
		return
	}
	if err := session.write(session.ethCap.Offset+eth.StatusMsg, payload); err != nil {
		return
	}
	theirStatus, err := eth.ReadStatus(conn, session.ethCap.Offset)
	if err != nil {
		return
	}
	n.Counters.bump(false, "STATUS")
	if theirStatus.NetworkID != ourStatus.NetworkID || theirStatus.GenesisHash != ourStatus.GenesisHash {
		n.Counters.bump(true, "DISCONNECT:"+devp2p.DiscSubprotocolError.String())
		devp2p.SendDisconnect(conn, devp2p.DiscSubprotocolError) //nolint:errcheck
		return
	}

	// Long-lived session: disable the per-read deadline (Close
	// unblocks the read); writes keep the standard deadline.
	conn.SetTimeouts(0, rlpx.FrameWriteTimeout)
	n.serve(session)
}

// serve handles inbound messages until the session ends.
func (n *Node) serve(p *peerSession) {
	for {
		code, payload, err := p.conn.ReadMsg()
		if err != nil {
			return
		}
		switch {
		case code == devp2p.PingMsg:
			n.Counters.bump(false, "PING")
			n.Counters.bump(true, "PONG")
			if err := p.write(devp2p.PongMsg, []byte{0xC0}); err != nil {
				return
			}
		case code == devp2p.DiscMsg:
			reason := devp2p.DecodeDisconnect(payload)
			n.Counters.bump(false, "DISCONNECT:"+reason.String())
			return
		case code == p.ethCap.Offset+eth.GetBlockHeadersMsg:
			n.Counters.bump(false, "GET_BLOCK_HEADERS")
			var req eth.GetBlockHeaders
			if err := rlp.DecodeBytes(payload, &req); err != nil {
				return
			}
			headers := eth.ServeHeaders(n.cfg.Chain, &req)
			resp, err := rlp.EncodeToBytes(headers)
			if err != nil {
				return
			}
			n.Counters.bump(true, "BLOCK_HEADERS")
			if err := p.write(p.ethCap.Offset+eth.BlockHeadersMsg, resp); err != nil {
				return
			}
		case code == p.ethCap.Offset+eth.TransactionsMsg:
			n.Counters.bump(false, "TRANSACTIONS")
		default:
			n.Counters.bump(false, eth.MsgName(code-p.ethCap.Offset))
		}
	}
}

// txLoop periodically broadcasts a synthetic transaction to connected
// peers per the configured relay policy.
func (n *Node) txLoop() {
	defer n.wg.Done()
	rng := rand.New(rand.NewSource(n.cfg.Seed ^ 0x7a5))
	ticker := time.NewTicker(n.cfg.TxInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.done:
			return
		case <-ticker.C:
			n.broadcastTx(rng)
		}
	}
}

// broadcastTx sends one synthetic transaction to the selected peers.
func (n *Node) broadcastTx(rng *rand.Rand) {
	blob := make([]byte, 100+rng.Intn(100))
	rng.Read(blob)
	payload, err := rlp.EncodeToBytes([][]byte{blob})
	if err != nil {
		return
	}

	// Capture sessions and their negotiated offsets under the lock;
	// ethCap is written by runSession under the same lock.
	type target struct {
		p      *peerSession
		offset uint64
	}
	n.mu.Lock()
	sessions := make([]target, 0, len(n.peers))
	for _, p := range n.peers {
		if p.ethCap != nil {
			sessions = append(sessions, target{p, p.ethCap.Offset})
		}
	}
	n.mu.Unlock()
	if len(sessions) == 0 {
		return
	}

	targets := sessions
	if n.cfg.TxRelay == RelaySqrt {
		// Parity's policy: √n of the peers.
		k := int(math.Ceil(math.Sqrt(float64(len(sessions)))))
		rng.Shuffle(len(sessions), func(i, j int) { sessions[i], sessions[j] = sessions[j], sessions[i] })
		targets = sessions[:k]
	}
	for _, tg := range targets {
		if err := tg.p.write(tg.offset+eth.TransactionsMsg, payload); err == nil {
			n.Counters.bump(true, "TRANSACTIONS")
		}
	}
}

// MainnetStatusFor builds the STATUS a crawler should announce to be
// accepted by nodes serving chain c.
func MainnetStatusFor(c *chain.Chain) eth.Status {
	return eth.Status{
		ProtocolVersion: uint32(eth.Version63),
		NetworkID:       c.NetworkID,
		TD:              new(big.Int),
		BestHash:        c.GenesisHash(),
		GenesisHash:     c.GenesisHash(),
	}
}

// WaitForPeers polls until the node has at least want peers or the
// timeout elapses; test convenience.
func (n *Node) WaitForPeers(want int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if n.PeerCount() >= want {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}
