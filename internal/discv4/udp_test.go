package discv4

import (
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/enode"
)

// newLoopbackTransport starts a transport on an ephemeral loopback
// UDP port.
func newLoopbackTransport(t *testing.T, seed int64, boot []*enode.Node) (*Transport, *enode.Node) {
	t.Helper()
	key := testKey(t, seed)
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Listen(UDPConn{conn}, Config{
		Key:         key,
		AnnounceTCP: 30303,
		Bootnodes:   boot,
		RespTimeout: 700 * time.Millisecond, // generous: CI machines stall under load
		Seed:        seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// After a failure the transport may be wedged, and Close would
		// wait on it until the package times out.
		if !t.Failed() {
			tr.Close()
		}
	})
	addr := conn.LocalAddr().(*net.UDPAddr)
	self := enode.New(tr.Self(), addr.IP, uint16(addr.Port), 30303)
	return tr, self
}

func TestPingPong(t *testing.T) {
	a, _ := newLoopbackTransport(t, 1, nil)
	_, bNode := newLoopbackTransport(t, 2, nil)

	if err := a.Ping(bNode); err != nil {
		t.Fatalf("ping: %v", err)
	}
	st := a.Stats()
	if st.PingsSent == 0 || st.PongsRecv == 0 {
		t.Errorf("stats %+v", st)
	}
	if !a.table.Contains(bNode.ID) {
		t.Error("pinged node not in table")
	}
}

func TestPingTimeout(t *testing.T) {
	a, _ := newLoopbackTransport(t, 3, nil)
	// Point at a black-hole address (reserved TEST-NET).
	ghost := enode.New(enode.RandomID(rand.New(rand.NewSource(9))), net.IPv4(127, 0, 0, 1), 9, 9)
	start := time.Now()
	if err := a.Ping(ghost); err == nil {
		t.Fatal("ping to ghost succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}

// TestRevalidationEvictsDeadNode: a table entry that fails three
// pings in a row is evicted, and one that answers stays.
func TestRevalidationEvictsDeadNode(t *testing.T) {
	key := testKey(t, 60)
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Listen(UDPConn{conn}, Config{Key: key, AnnounceTCP: 30303, RespTimeout: 150 * time.Millisecond, Seed: 60})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	_, liveNode := newLoopbackTransport(t, 61, nil)
	deadNode := enode.New(enode.RandomID(rand.New(rand.NewSource(62))), net.IPv4(127, 0, 0, 1), 9, 9)
	a.table.AddSeenNode(liveNode, time.Now())
	a.table.AddSeenNode(deadNode, time.Now())
	for i := 0; i < 3; i++ {
		if !a.table.Contains(deadNode.ID) {
			t.Fatalf("dead node evicted after %d failed pings, want 3", i)
		}
		if a.Ping(deadNode) == nil {
			t.Fatal("ping to a dead node succeeded")
		}
	}
	if a.table.Contains(deadNode.ID) {
		t.Fatal("dead node survived three failed pings")
	}
	if err := a.Ping(liveNode); err != nil || !a.table.Contains(liveNode.ID) {
		t.Fatalf("live node: ping %v, in table %v", err, a.table.Contains(liveNode.ID))
	}
}

func TestFindnodeRequiresBond(t *testing.T) {
	a, aNode := newLoopbackTransport(t, 4, nil)
	b, bNode := newLoopbackTransport(t, 5, nil)

	// Seed b's table so it has something to return.
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 5; i++ {
		b.table.AddSeenNode(randomNode(rng), time.Now())
	}
	_ = aNode

	// After bonding (Findnode pings first), the query must succeed.
	nodes, err := a.Findnode(bNode, enode.RandomID(rng))
	if err != nil {
		t.Fatalf("findnode: %v", err)
	}
	if len(nodes) == 0 {
		t.Fatal("no nodes returned")
	}
}

func TestLookupConverges(t *testing.T) {
	// Build a small mesh: one bootstrap plus 8 members that all know
	// the bootstrap; lookups starting from one member must discover
	// the others through iterative findnode.
	boot, bootNode := newLoopbackTransport(t, 20, nil)
	_ = boot
	var members []*Transport
	var memberNodes []*enode.Node
	for i := 0; i < 8; i++ {
		tr, n := newLoopbackTransport(t, 30+int64(i), []*enode.Node{bootNode})
		members = append(members, tr)
		memberNodes = append(memberNodes, n)
	}
	// Everyone pings the bootstrap so its table fills.
	for _, m := range members {
		if err := m.Ping(bootNode); err != nil {
			t.Fatalf("bootstrap ping: %v", err)
		}
	}
	// A lookup from member 0 should learn most other members.
	rng := rand.New(rand.NewSource(11))
	found := map[enode.ID]bool{}
	for i := 0; i < 5; i++ {
		for _, n := range members[0].Lookup(enode.RandomID(rng)) {
			found[n.ID] = true
		}
		hits := 0
		for _, n := range memberNodes[1:] {
			if found[n.ID] || members[0].table.Contains(n.ID) {
				hits++
			}
		}
		if hits >= 4 {
			return
		}
	}
	t.Fatalf("lookups discovered fewer than 4/7 members")
}

// TestTransportNeverWedges: replies are resolved under t.mu on cap-1
// slots, so a reply path that can block (a slot with no room, a lock
// held across the wait) stalls the whole transport instead of failing.
// Each step here must finish well inside its watchdog: a ping that is
// answered, one that times out, and a Close with a reply still pending.
func TestTransportNeverWedges(t *testing.T) {
	a, _ := newLoopbackTransport(t, 42, nil)
	_, bNode := newLoopbackTransport(t, 43, nil)
	ghost := enode.New(enode.RandomID(rand.New(rand.NewSource(44))), net.IPv4(127, 0, 0, 1), 9, 9)
	within := func(what string, step func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); step() }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s wedged the transport", what)
		}
	}
	within("an answered ping", func() { a.Ping(bNode) })
	within("a ping that times out", func() { a.Ping(ghost) })
	go a.Ping(ghost)
	within("registering a reply", func() {
		for {
			a.mu.Lock()
			n := len(a.pending)
			a.mu.Unlock()
			if n > 0 {
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
	within("closing with a reply pending", func() { a.Close() })
}

func TestTransportCloseIdempotent(t *testing.T) {
	a, _ := newLoopbackTransport(t, 40, nil)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBadPacketCounted(t *testing.T) {
	a, aNode := newLoopbackTransport(t, 41, nil)
	// Fire garbage at the socket.
	conn, err := net.DialUDP("udp4", nil, aNode.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("not a discovery packet at all, just noise"))
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if a.Stats().BadPackets > 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("bad packet never counted")
}
