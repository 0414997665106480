package simnet_test

import (
	"fmt"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/enode"
	"repro/internal/eth"
	"repro/internal/nodefinder"
	"repro/internal/nodefinder/mlog"
	"repro/internal/simnet"
	"repro/internal/testutil/leakcheck"
)

// A dialCase is one row of the differential between the two models of
// a dialed node: SimDialer's analytic outcome, and RealDialer's dial
// of the same node served by World.serveWire.
type dialCase struct {
	name string
	// pick chooses the world node the row conscripts; nil dials an
	// address outside the world.
	pick func(n *simnet.SimNode) bool
	// setup makes the node behave as the row needs. The runner has
	// already set its Occupancy to 0.
	setup func(n *simnet.SimNode)
	// classes are the outcome classes a wire dial may land in.
	classes []string
	// dao is the DAO verdict both models must reach: "" for no check.
	dao string
	// analytic rows fail before any connection exists, so they have no
	// loopback variant: a listener cannot refuse or black-hole a dial.
	analytic bool
	// diverge names, by transport, why the wire's outcome class may
	// differ from SimDialer's. Every other field must still agree.
	diverge map[string]string
}

// Transports a differential row runs over.
const (
	overPipe     = "pipe"     // World.DialWire's in-memory pipe
	overLoopback = "loopback" // World.ServeLoopback's TCP listener
)

// runDifferential dials every row's node over each transport and holds
// the result to SimDialer's outcome for the same node at the same
// virtual time: the outcome class, the HELLO (ID, name, caps), the
// STATUS (network, genesis, best hash) and the DAO verdict. Timing
// (RTT, Duration, Start) is not compared. Occupancy is 0 or 1, so the
// two models' occupancy draws, from different RNG streams, cannot
// disagree. Each transport's dials run concurrently and must all end
// within the dial budget's reach.
func runDifferential(t *testing.T, w *simnet.World, cases []dialCase) {
	t.Helper()
	now := w.Clock.Now()
	sim := w.NewDialer(1)
	stranger := enode.New(enode.RandomID(rand.New(rand.NewSource(1))), net.IP{10, 9, 9, 9}, 30303, 30303)

	targets := make([]*simnet.SimNode, len(cases))
	taken := make(map[*simnet.SimNode]bool)
	for i, c := range cases {
		if c.pick == nil {
			continue
		}
		for _, n := range w.Nodes {
			if !taken[n] && !n.Hostile && n.Reachable && c.pick(n) {
				targets[i], taken[n] = n, true
				break
			}
		}
		n := targets[i]
		if n == nil {
			t.Fatalf("%s: no node to conscript", c.name)
		}
		n.Occupancy = 0
		if c.setup != nil {
			c.setup(n)
		}
	}

	pipe := wireDialer(t, w, 1500*time.Millisecond)
	loopback := wireDialer(t, w, 1500*time.Millisecond)
	loopback.DialFunc = nil // the kernel's TCP stack
	for _, transport := range []string{overPipe, overLoopback} {
		type result struct {
			i   int
			res *nodefinder.DialResult
		}
		results := make(chan result, len(cases))
		dialed := make([]*enode.Node, len(cases))
		launched := 0
		for i, c := range cases {
			d, node := pipe, stranger
			if targets[i] != nil {
				node = targets[i].Node
			}
			if transport == overLoopback {
				if c.analytic {
					continue
				}
				served, err := w.ServeLoopback(targets[i])
				if err != nil {
					t.Fatal(err)
				}
				d, node = loopback, served
			}
			dialed[i] = node
			launched++
			d.Dial(node, mlog.ConnDynamicDial, func(res *nodefinder.DialResult) { results <- result{i, res} })
		}
		got := make([]*nodefinder.DialResult, len(cases))
		deadline := time.After(20 * time.Second)
		for k := 0; k < launched; k++ {
			select {
			case r := <-results:
				got[r.i] = r.res
			case <-deadline:
				t.Fatalf("%s: %d of %d dials never ended: a peer outlasted the dial budget", transport, launched-k, launched)
			}
		}

		for i, c := range cases {
			res := got[i]
			if res == nil {
				continue
			}
			class := res.Outcome()
			if !slices.Contains(c.classes, class.String()) {
				t.Errorf("%s over %s: class %q (err=%v), want one of %v", c.name, transport, class, res.Err, c.classes)
			}
			if got := daoVerdict(res); got != c.dao {
				t.Errorf("%s over %s: DAO verdict %q, want %q", c.name, transport, got, c.dao)
			}
			// SimDialer knows a node by its ID, whatever address it is
			// served at.
			want := sim.OutcomeAt(dialed[i], mlog.ConnDynamicDial, now)
			if simClass := want.Outcome(); simClass != class {
				if reason, ok := c.diverge[transport]; ok {
					t.Logf("%s over %s: class %q, SimDialer %q: %s", c.name, transport, class, simClass, reason)
				} else {
					t.Errorf("%s over %s: class %q (err=%v), SimDialer %q (err=%v)", c.name, transport, class, res.Err, simClass, want.Err)
				}
			}
			if diff := outcomeDiff(want, res); diff != "" {
				t.Errorf("%s over %s: SimDialer and the wire disagree: %s", c.name, transport, diff)
			}
		}
		waitDemoted(t, w, 0)
	}
}

// outcomeDiff describes how two dial results differ in what a crawl
// records of the peer, or returns "".
func outcomeDiff(sim, wire *nodefinder.DialResult) string {
	switch {
	case (sim.Hello == nil) != (wire.Hello == nil):
		return fmt.Sprintf("HELLO %v vs %v", sim.Hello, wire.Hello)
	case sim.Hello != nil && (sim.Hello.ID != wire.Hello.ID || sim.Hello.Name != wire.Hello.Name ||
		!slices.Equal(sim.Hello.Caps, wire.Hello.Caps)):
		return fmt.Sprintf("HELLO %s %q %v vs %s %q %v", sim.Hello.ID.TerminalString(), sim.Hello.Name, sim.Hello.Caps,
			wire.Hello.ID.TerminalString(), wire.Hello.Name, wire.Hello.Caps)
	case (sim.Status == nil) != (wire.Status == nil):
		return fmt.Sprintf("STATUS %v vs %v", sim.Status, wire.Status)
	case sim.Status != nil && (sim.Status.NetworkID != wire.Status.NetworkID ||
		sim.Status.GenesisHash != wire.Status.GenesisHash || sim.Status.BestHash != wire.Status.BestHash):
		return fmt.Sprintf("STATUS network %d genesis %s best %s vs network %d genesis %s best %s",
			sim.Status.NetworkID, sim.Status.GenesisHash.Short(), sim.Status.BestHash.Short(),
			wire.Status.NetworkID, wire.Status.GenesisHash.Short(), wire.Status.BestHash.Short())
	case daoVerdict(sim) != daoVerdict(wire):
		return fmt.Sprintf("DAO verdict %q vs %q", daoVerdict(sim), daoVerdict(wire))
	}
	return ""
}

// daoVerdict is the fork stance a dial recorded, as the log spells it.
func daoVerdict(res *nodefinder.DialResult) string {
	switch {
	case !res.DAOChecked:
		return ""
	case res.DAOFork == eth.DAOForkSupported:
		return "supported"
	case res.DAOFork == eth.DAOForkOpposed:
		return "opposed"
	default:
		return "unknown"
	}
}

// TestSimDialerMatchesWire is the honest half of the differential:
// every outcome class an honest or absent peer produces, from the
// analytic failures to the DAO check's three verdicts.
// TestPromotedHostileTaxonomy is the hostile half.
func TestSimDialerMatchesWire(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	leakcheck.Check(t, leakcheck.Window(10*time.Second))
	w := wireWorld(t, 41, nil)
	w.Clock.Advance(6 * time.Hour) // some nodes have gone offline
	now := w.Clock.Now()
	online := func(n *simnet.SimNode) bool { return n.OnlineAt(now) }
	serve := func(svc simnet.Service, nw *simnet.Network) func(*simnet.SimNode) {
		return func(n *simnet.SimNode) {
			n.Service, n.Network, n.Fresh = svc, nw, simnet.FreshSynced
		}
	}
	var other *simnet.Network
	for _, nw := range w.Networks {
		if nw.NetworkID != chain.MainnetNetworkID {
			other = nw
			break
		}
	}

	runDifferential(t, w, []dialCase{
		{name: "unknown address", classes: []string{"tcp-refused"}, analytic: true},
		{name: "NAT'd", pick: online, setup: func(n *simnet.SimNode) { n.Reachable = false },
			classes: []string{"tcp-timeout"}, analytic: true},
		{name: "offline", pick: func(n *simnet.SimNode) bool { return !n.OnlineAt(now) },
			classes: []string{"tcp-refused"}, analytic: true},
		{name: "too many peers", pick: online, setup: func(n *simnet.SimNode) {
			serve(simnet.SvcEth, w.Mainnet)(n)
			n.Occupancy = 1
		}, classes: []string{"too-many-peers"}},
		{name: "non-eth service", pick: online, setup: serve(simnet.SvcSwarm, nil), classes: []string{"hello-no-eth"}},
		{name: "les", pick: online, setup: serve(simnet.SvcLES, w.Mainnet), classes: []string{"hello-no-eth"}},
		{name: "pip", pick: online, setup: serve(simnet.SvcPIP, w.Mainnet), classes: []string{"hello-no-eth"}},
		{name: "other network", pick: online, setup: serve(simnet.SvcEth, other), classes: []string{"eth-handshake"}},
		{name: "Mainnet before the fork", pick: online, setup: func(n *simnet.SimNode) {
			serve(simnet.SvcEth, w.Mainnet)(n)
			n.Fresh, n.LagBlocks = simnet.FreshStuckOld, w.Mainnet.HeadAt(now)-(chain.DAOForkBlock-1000)
		}, classes: []string{"eth-handshake"}, dao: "unknown"},
		{name: "Mainnet for the fork", pick: online, setup: serve(simnet.SvcEth, w.Mainnet),
			classes: []string{"eth-handshake"}, dao: "supported"},
		{name: "Mainnet against the fork", pick: online, setup: serve(simnet.SvcEth, w.Classic),
			classes: []string{"eth-handshake"}, dao: "opposed"},
	})
}
