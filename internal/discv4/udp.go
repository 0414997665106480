package discv4

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/crypto/secp256k1"
	"repro/internal/enode"
	"repro/internal/metrics"
)

// Default protocol timing constants, mirroring the values the paper
// lists for Geth 1.7.3 (§4).
const (
	DefaultRespTimeout = 500 * time.Millisecond
	// DefaultExpiration is how far in the future packets are dated.
	DefaultExpiration = 20 * time.Second
	// BondExpiration is how long an endpoint proof (pong) stays
	// valid; findnode from unbonded peers is ignored.
	BondExpiration = 24 * time.Hour
	// LookupAlpha is the lookup concurrency factor α.
	LookupAlpha = 3
	// maxNeighborsPerPacket keeps neighbors datagrams under the UDP
	// size limit.
	maxNeighborsPerPacket = 12
)

// PacketConn abstracts the datagram socket so the transport runs over
// real UDP or the in-memory netsim fabric.
type PacketConn interface {
	ReadFrom(p []byte) (n int, addr *net.UDPAddr, err error)
	WriteTo(p []byte, addr *net.UDPAddr) (n int, err error)
	LocalAddr() *net.UDPAddr
	Close() error
}

// UDPConn adapts *net.UDPConn to PacketConn.
type UDPConn struct{ *net.UDPConn }

// ReadFrom implements PacketConn.
func (c UDPConn) ReadFrom(p []byte) (int, *net.UDPAddr, error) {
	return c.UDPConn.ReadFromUDP(p)
}

// WriteTo implements PacketConn.
func (c UDPConn) WriteTo(p []byte, addr *net.UDPAddr) (int, error) {
	return c.UDPConn.WriteToUDP(p, addr)
}

// LocalAddr implements PacketConn.
func (c UDPConn) LocalAddr() *net.UDPAddr {
	return c.UDPConn.LocalAddr().(*net.UDPAddr)
}

// Config configures a discovery transport.
type Config struct {
	Key *secp256k1.PrivateKey
	// AnnounceTCP is the TCP (RLPx) port advertised in pings.
	AnnounceTCP uint16
	// Bootnodes seed the table.
	Bootnodes []*enode.Node
	// Distance overrides the bucket metric (nil = Geth metric).
	Distance DistanceFunc
	// RespTimeout bounds waits for pong/neighbors replies.
	RespTimeout time.Duration
	// Seed feeds the table's internal shuffling.
	Seed int64
	// Metrics, when non-nil, receives live protocol telemetry
	// (packets in/out by type, table occupancy, bond failures,
	// lookup convergence). Nil disables instrumentation.
	Metrics *metrics.Registry
}

// Transport is a running discovery endpoint.
type Transport struct {
	conn   PacketConn
	priv   *secp256k1.PrivateKey
	selfID enode.ID
	cfg    Config
	table  *Table

	mu      sync.Mutex
	pending []*pendingReply
	// bonds tracks the last time we received a pong from a node
	// (our proof of their endpoint) and sent one to them.
	bondsRecv map[enode.ID]time.Time
	bondsSent map[enode.ID]time.Time

	wg     sync.WaitGroup
	closed chan struct{}

	// Stats counts protocol events for the measurement experiments.
	stats Stats
	// metrics mirrors stats into the registry for live telemetry;
	// always non-nil (instruments are nil when disabled).
	metrics *transportMetrics
}

// transportMetrics holds the transport's resolved instruments.
type transportMetrics struct {
	packetsIn    *metrics.CounterVec // by packet type
	packetsOut   *metrics.CounterVec
	badPackets   *metrics.Counter
	expired      *metrics.Counter
	unsolicited  *metrics.Counter
	lookups      *metrics.Counter
	lookupNodes  *metrics.Histogram // convergence: result size per lookup
	bondFailures *metrics.Counter
}

func newTransportMetrics(r *metrics.Registry, table *Table) *transportMetrics {
	if r != nil {
		r.GaugeFunc("discv4.table_size", func() int64 { return int64(table.Len()) })
	}
	return &transportMetrics{
		packetsIn:    r.CounterVec("discv4.packets_in"),
		packetsOut:   r.CounterVec("discv4.packets_out"),
		badPackets:   r.Counter("discv4.bad_packets"),
		expired:      r.Counter("discv4.expired_packets"),
		unsolicited:  r.Counter("discv4.unsolicited_replies"),
		lookups:      r.Counter("discv4.lookups"),
		lookupNodes:  r.Histogram("discv4.lookup_nodes"),
		bondFailures: r.Counter("discv4.bond_failures"),
	}
}

// packetName maps a decoded packet to its telemetry label.
func packetName(pkt any) string {
	switch pkt.(type) {
	case *Ping:
		return "ping"
	case *Pong:
		return "pong"
	case *Findnode:
		return "findnode"
	case *Neighbors:
		return "neighbors"
	default:
		return "unknown"
	}
}

// Stats are cumulative protocol counters.
type Stats struct {
	PingsSent, PongsSent, FindnodesSent, NeighborsSent      uint64
	PingsRecv, PongsRecv, FindnodesRecv, NeighborsRecv      uint64
	BadPackets, ExpiredPackets, UnsolicitedReplies, Lookups uint64
}

type pendingReply struct {
	from     enode.ID
	ptype    byte
	deadline time.Time
	// matched is called with each candidate packet; it returns
	// (consumed, done). done removes the entry.
	matched func(pkt any) (bool, bool)
	errc    chan error
}

// Listen starts a discovery transport on conn.
func Listen(conn PacketConn, cfg Config) (*Transport, error) {
	if cfg.Key == nil {
		return nil, errors.New("discv4: config requires a private key")
	}
	if cfg.RespTimeout == 0 {
		cfg.RespTimeout = DefaultRespTimeout
	}
	selfID := enode.PubkeyID(&cfg.Key.Pub)
	t := &Transport{
		conn:      conn,
		priv:      cfg.Key,
		selfID:    selfID,
		cfg:       cfg,
		table:     NewTable(selfID, cfg.Distance, cfg.Seed),
		bondsRecv: make(map[enode.ID]time.Time),
		bondsSent: make(map[enode.ID]time.Time),
		closed:    make(chan struct{}),
	}
	t.metrics = newTransportMetrics(cfg.Metrics, t.table)
	for _, bn := range cfg.Bootnodes {
		t.table.AddSeenNode(bn, time.Now())
	}
	t.wg.Add(2)
	go t.readLoop()
	go t.expireLoop()
	return t, nil
}

// Self returns the local node ID.
func (t *Transport) Self() enode.ID { return t.selfID }

// Table exposes the routing table.
func (t *Transport) Table() *Table { return t.table }

// Stats returns a snapshot of the protocol counters.
func (t *Transport) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// Close shuts the transport down and waits for its goroutines.
func (t *Transport) Close() error {
	select {
	case <-t.closed:
		return nil
	default:
	}
	close(t.closed)
	err := t.conn.Close()
	t.wg.Wait()
	return err
}

func (t *Transport) readLoop() {
	defer t.wg.Done()
	buf := make([]byte, 1500)
	for {
		n, from, err := t.conn.ReadFrom(buf)
		if err != nil {
			select {
			case <-t.closed:
				return
			default:
			}
			// Transient errors: keep reading unless closed.
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return
		}
		t.handlePacket(buf[:n], from)
	}
}

// expireLoop sweeps timed-out pending replies.
func (t *Transport) expireLoop() {
	defer t.wg.Done()
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-t.closed:
			t.mu.Lock()
			for _, p := range t.pending {
				// errc is buffered (cap 1) and each pending entry resolves
				// once, so the send under t.mu cannot block.
				p.errc <- errors.New("discv4: transport closed")
			}
			t.pending = nil
			t.mu.Unlock()
			return
		case now := <-tick.C:
			t.mu.Lock()
			kept := t.pending[:0]
			for _, p := range t.pending {
				if now.After(p.deadline) {
					// Cap-1 errc, resolved once: the send cannot block.
					p.errc <- errTimeout
				} else {
					kept = append(kept, p)
				}
			}
			t.pending = kept
			t.mu.Unlock()
		}
	}
}

var errTimeout = errors.New("discv4: reply timeout")

func (t *Transport) handlePacket(buf []byte, from *net.UDPAddr) {
	pkt, fromID, hash, err := DecodePacket(buf)
	if err != nil {
		t.mu.Lock()
		t.stats.BadPackets++
		t.mu.Unlock()
		t.metrics.badPackets.Inc()
		return
	}
	t.metrics.packetsIn.Inc(packetName(pkt))
	now := time.Now()
	switch p := pkt.(type) {
	case *Ping:
		t.mu.Lock()
		t.stats.PingsRecv++
		t.mu.Unlock()
		if expired(p.Expiration, now) {
			t.countExpired()
			return
		}
		t.handlePing(p, fromID, from, hash)
	case *Pong:
		t.mu.Lock()
		t.stats.PongsRecv++
		t.mu.Unlock()
		if expired(p.Expiration, now) {
			t.countExpired()
			return
		}
		t.mu.Lock()
		t.bondsRecv[fromID] = now
		t.mu.Unlock()
		t.deliver(fromID, PongPacket, p)
	case *Findnode:
		t.mu.Lock()
		t.stats.FindnodesRecv++
		t.mu.Unlock()
		if expired(p.Expiration, now) {
			t.countExpired()
			return
		}
		t.handleFindnode(p, fromID, from)
	case *Neighbors:
		t.mu.Lock()
		t.stats.NeighborsRecv++
		t.mu.Unlock()
		if expired(p.Expiration, now) {
			t.countExpired()
			return
		}
		t.deliver(fromID, NeighborsPacket, p)
	}
}

func (t *Transport) countExpired() {
	t.mu.Lock()
	t.stats.ExpiredPackets++
	t.mu.Unlock()
	t.metrics.expired.Inc()
}

func (t *Transport) handlePing(p *Ping, fromID enode.ID, from *net.UDPAddr, hash []byte) {
	pong := &Pong{
		To:         NewEndpoint(from, p.From.TCP),
		ReplyTok:   hash,
		Expiration: uint64(time.Now().Add(DefaultExpiration).Unix()),
	}
	t.send(from, pong)
	t.mu.Lock()
	t.stats.PongsSent++
	lastPong, bonded := t.bondsRecv[fromID]
	t.bondsSent[fromID] = time.Now()
	t.mu.Unlock()

	n := enode.New(fromID, from.IP, uint16(from.Port), p.From.TCP)
	t.table.AddSeenNode(n, time.Now())
	// Ping back to complete the bond if we have no recent proof of
	// their endpoint.
	if !bonded || time.Since(lastPong) > BondExpiration {
		go t.Ping(n) //nolint:errcheck // best-effort bond completion
	}
}

func (t *Transport) handleFindnode(p *Findnode, fromID enode.ID, from *net.UDPAddr) {
	t.mu.Lock()
	lastPong, bonded := t.bondsRecv[fromID]
	t.mu.Unlock()
	if !bonded || time.Since(lastPong) > BondExpiration {
		// Unbonded sender: ignoring prevents amplification attacks.
		return
	}
	closest := t.table.Closest(p.Target, BucketSize)
	exp := uint64(time.Now().Add(DefaultExpiration).Unix())
	for i := 0; i < len(closest); i += maxNeighborsPerPacket {
		end := i + maxNeighborsPerPacket
		if end > len(closest) {
			end = len(closest)
		}
		resp := &Neighbors{Expiration: exp}
		for _, n := range closest[i:end] {
			resp.Nodes = append(resp.Nodes, RPCNodeFrom(n))
		}
		t.send(from, resp)
		t.mu.Lock()
		t.stats.NeighborsSent++
		t.mu.Unlock()
	}
}

// deliver routes a reply packet to pending waiters.
func (t *Transport) deliver(from enode.ID, ptype byte, pkt any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	matched := false
	kept := t.pending[:0]
	for _, p := range t.pending {
		if p.from == from && p.ptype == ptype {
			consumed, done := p.matched(pkt)
			matched = matched || consumed
			if done {
				// Cap-1 errc, resolved once: the send cannot block.
				p.errc <- nil
				continue
			}
		}
		kept = append(kept, p)
	}
	t.pending = kept
	if !matched {
		t.stats.UnsolicitedReplies++
		t.metrics.unsolicited.Inc()
	}
}

// expect registers interest in a future reply.
func (t *Transport) expect(from enode.ID, ptype byte, matched func(any) (bool, bool)) chan error {
	p := &pendingReply{
		from:     from,
		ptype:    ptype,
		deadline: time.Now().Add(t.cfg.RespTimeout),
		matched:  matched,
		errc:     make(chan error, 1),
	}
	t.mu.Lock()
	t.pending = append(t.pending, p)
	t.mu.Unlock()
	return p.errc
}

func (t *Transport) send(to *net.UDPAddr, pkt any) {
	dgram, _, err := EncodePacket(t.priv, pkt)
	if err != nil {
		return
	}
	t.conn.WriteTo(dgram, to) //nolint:errcheck // UDP send is fire and forget
	t.metrics.packetsOut.Inc(packetName(pkt))
}

// Ping sends a ping and waits for the matching pong.
func (t *Transport) Ping(n *enode.Node) error {
	self := t.conn.LocalAddr()
	ping := &Ping{
		Version:    Version,
		From:       NewEndpoint(self, t.cfg.AnnounceTCP),
		To:         NewEndpoint(n.Addr(), n.TCP),
		Expiration: uint64(time.Now().Add(DefaultExpiration).Unix()),
	}
	dgram, hash, err := EncodePacket(t.priv, ping)
	if err != nil {
		return err
	}
	errc := t.expect(n.ID, PongPacket, func(pkt any) (bool, bool) {
		pong := pkt.(*Pong)
		if len(pong.ReplyTok) > 0 && string(pong.ReplyTok) != string(hash) {
			return false, false
		}
		return true, true
	})
	if _, err := t.conn.WriteTo(dgram, n.Addr()); err != nil {
		return fmt.Errorf("discv4: sending ping: %w", err)
	}
	t.mu.Lock()
	t.stats.PingsSent++
	t.mu.Unlock()
	t.metrics.packetsOut.Inc("ping")
	if err := t.await(errc); err != nil {
		t.table.FailLiveness(n.ID)
		t.metrics.bondFailures.Inc()
		return err
	}
	t.table.AddVerifiedNode(n, time.Now())
	return nil
}

// await waits for a pending reply, unblocking if the transport shuts
// down first (the expire loop stops sweeping after close).
func (t *Transport) await(errc chan error) error {
	select {
	case err := <-errc:
		return err
	case <-t.closed:
		return errors.New("discv4: transport closed")
	}
}

// ensureBond pings the node unless a recent pong proves its endpoint.
func (t *Transport) ensureBond(n *enode.Node) error {
	t.mu.Lock()
	lastPong, ok := t.bondsRecv[n.ID]
	t.mu.Unlock()
	if ok && time.Since(lastPong) < BondExpiration {
		return nil
	}
	return t.Ping(n)
}

// Findnode queries n for its k closest nodes to target. A first
// attempt may race the peer's reverse bond (our pong to its
// bond-completing ping can still be in flight when the FINDNODE
// arrives, so the peer drops it); one retry absorbs that window.
func (t *Transport) Findnode(n *enode.Node, target enode.ID) ([]*enode.Node, error) {
	nodes, err := t.findnodeOnce(n, target)
	if err != nil && len(nodes) == 0 {
		nodes, err = t.findnodeOnce(n, target)
	}
	return nodes, err
}

func (t *Transport) findnodeOnce(n *enode.Node, target enode.ID) ([]*enode.Node, error) {
	if err := t.ensureBond(n); err != nil {
		return nil, fmt.Errorf("discv4: bonding with %s: %w", n.ID.TerminalString(), err)
	}
	req := &Findnode{
		Target:     target,
		Expiration: uint64(time.Now().Add(DefaultExpiration).Unix()),
	}
	var (
		mu    sync.Mutex
		nodes []*enode.Node
	)
	errc := t.expect(n.ID, NeighborsPacket, func(pkt any) (bool, bool) {
		resp := pkt.(*Neighbors)
		mu.Lock()
		for _, rn := range resp.Nodes {
			nodes = append(nodes, rn.Node())
		}
		done := len(nodes) >= BucketSize
		mu.Unlock()
		return true, done
	})
	t.send(n.Addr(), req)
	t.mu.Lock()
	t.stats.FindnodesSent++
	t.mu.Unlock()
	err := t.await(errc)
	mu.Lock()
	defer mu.Unlock()
	if err != nil && len(nodes) == 0 {
		t.table.FailLiveness(n.ID)
		return nil, err
	}
	// Partial results before the timeout are still useful.
	for _, found := range nodes {
		t.table.AddSeenNode(found, time.Now())
	}
	return nodes, nil
}

// Lookup performs the iterative Kademlia convergence toward target
// and returns the closest nodes found. This is the "node discovery"
// operation whose rate Figure 5 measures.
func (t *Transport) Lookup(target enode.ID) []*enode.Node {
	t.mu.Lock()
	t.stats.Lookups++
	t.mu.Unlock()
	t.metrics.lookups.Inc()
	result := t.lookup(target)
	t.metrics.lookupNodes.Observe(uint64(len(result)))
	return result
}

func (t *Transport) lookup(target enode.ID) []*enode.Node {
	targetHash := target.Hash()
	asked := map[enode.ID]bool{t.selfID: true}
	seen := map[enode.ID]bool{}
	result := t.table.Closest(target, BucketSize)
	for _, n := range result {
		seen[n.ID] = true
	}

	for {
		// Pick the α closest unasked nodes.
		var batch []*enode.Node
		for _, n := range result {
			if !asked[n.ID] {
				asked[n.ID] = true
				batch = append(batch, n)
				if len(batch) == LookupAlpha {
					break
				}
			}
		}
		if len(batch) == 0 {
			return result
		}
		var (
			mu      sync.Mutex
			wg      sync.WaitGroup
			learned []*enode.Node
		)
		for _, n := range batch {
			n := n
			wg.Add(1)
			go func() {
				defer wg.Done()
				found, err := t.Findnode(n, target)
				if err != nil {
					return
				}
				mu.Lock()
				learned = append(learned, found...)
				mu.Unlock()
			}()
		}
		wg.Wait()
		for _, n := range learned {
			if !seen[n.ID] && n.ID != t.selfID {
				seen[n.ID] = true
				result = append(result, n)
			}
		}
		sort.Slice(result, func(i, j int) bool {
			di := enode.LogDist(result[i].ID.Hash(), targetHash)
			dj := enode.LogDist(result[j].ID.Hash(), targetHash)
			return di < dj
		})
		if len(result) > BucketSize {
			result = result[:BucketSize]
		}
	}
}
