//go:build !race

// Allocation pins for World.answer and the simulated dial and lookup.
// Excluded under the race detector, whose instrumentation changes
// allocation counts.
package simnet

import (
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/devp2p"
	"repro/internal/enode"
	"repro/internal/eth"
	"repro/internal/nodefinder"
	"repro/internal/nodefinder/mlog"
)

// TestWorldAnswerAllocs pins the answer of an eth, a les and an
// other-service node: once the shared caps, client name and head
// answer exist, answering again into storage the caller owns
// allocates nothing, and the answer is still the node's.
func TestWorldAnswerAllocs(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.BaseNodes = 3000
	w := NewWorld(cfg)
	now := w.Clock.Now()
	for _, tc := range []struct {
		svc  Service
		caps []devp2p.Cap
	}{
		{SvcEth, []devp2p.Cap{{Name: "eth", Version: 62}, {Name: "eth", Version: 63}}},
		{SvcLES, []devp2p.Cap{{Name: "les", Version: 2}}},
		{SvcOther, []devp2p.Cap{{Name: "xyz", Version: 1}}},
	} {
		// A Geth or Parity node where there is one: their names are
		// the ones built from a release and an OS.
		var n *SimNode
		for _, c := range w.Nodes {
			if c.Service == tc.svc && !c.Hostile && (n == nil || c.Client == ClientGeth || c.Client == ClientParity) {
				n = c
			}
		}
		if n == nil {
			t.Fatalf("no %s node in the world", tc.svc)
		}
		var (
			res   nodefinder.DialResult
			hello devp2p.Hello
		)
		allocs := testing.AllocsPerRun(100, func() {
			res = nodefinder.DialResult{}
			w.answer(&res, &hello, n, now)
		})
		if allocs != 0 {
			t.Errorf("%s node: answer allocates %.1f objects, want 0", tc.svc, allocs)
		}
		if res.Hello != &hello || hello.ID != n.Node.ID || !slices.Equal(hello.Caps, tc.caps) || hello.Name != w.ClientNameAt(n, now) {
			t.Errorf("%s node: answered HELLO %+v, want caps %v and the node's ID and name", tc.svc, hello, tc.caps)
		}
		speaksEth := tc.svc == SvcEth
		if (res.Status != nil) != speaksEth || speaksEth && res.Status.ProtocolVersion != uint32(eth.Version63) {
			t.Errorf("%s node: answered STATUS %+v", tc.svc, res.Status)
		}
	}
}

// TestSimDialRecyclesAllocs: once a dial of each outcome class has
// run, a SimDialer dial and its completion allocate nothing — the
// finished dial, its result and its HELLO are reused — and neither
// does a SimDiscovery lookup.
func TestSimDialRecyclesAllocs(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.BaseNodes = 3000
	cfg.AbusiveIPs = 0 // the dial's or lookup's completion is the clock's only event
	w := NewWorld(cfg)
	now := w.Clock.Now()
	var nat, full, honest *SimNode
	for _, n := range w.Nodes {
		switch {
		case n.Hostile || !n.OnlineAt(now) || !n.OnlineAt(now.Add(time.Hour)):
		case !n.Reachable:
			nat = n
		case n.Service != SvcEth:
		case full == nil:
			full = n
		default:
			honest = n
		}
	}
	if nat == nil || full == nil || honest == nil {
		t.Fatal("the world lacks a NAT'd, a second eth and an honest eth node online for the next hour")
	}
	full.Occupancy, honest.Occupancy = 1, 0
	dead := enode.New(enode.ID{1}, net.IPv4(192, 0, 2, 1), 30303, 30303)

	d := w.NewDialer(1)
	var err error
	var hello, tooMany bool
	done := func(res *nodefinder.DialResult) {
		err, hello, tooMany = res.Err, res.Hello != nil, res.Disconnect != nil && *res.Disconnect == devp2p.DiscTooManyPeers
	}
	for _, tc := range []struct {
		name   string
		target *enode.Node
		err    error
		hello  bool
	}{
		{"dead address", dead, errConnRefused, false},
		{"NAT'd node", nat.Node, errTimeout, false},
		{"full node", full.Node, nil, false},
		{"honest eth node", honest.Node, nil, true},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			d.Dial(tc.target, mlog.ConnDynamicDial, done)
			w.Clock.RunAll(1)
		})
		if allocs != 0 {
			t.Errorf("%s: a dial allocates %.1f objects, want 0", tc.name, allocs)
		}
		if err != tc.err || hello != tc.hello || tooMany != (tc.target == full.Node) {
			t.Errorf("%s: the dial ended with error %v, HELLO %v, Too many peers %v", tc.name, err, hello, tooMany)
		}
	}

	disc := w.NewDiscovery(1)
	found := 0
	report := func(nodes []*enode.Node) { found = len(nodes) }
	allocs := testing.AllocsPerRun(100, func() {
		disc.Lookup(enode.ID{2}, report)
		w.Clock.RunAll(1)
	})
	if allocs != 0 || found == 0 {
		t.Errorf("a lookup allocates %.1f objects and found %d nodes, want 0 and some", allocs, found)
	}
}
