//go:build !race

// Allocation-regression pin for one full dial. Excluded under the
// race detector, whose instrumentation changes allocation counts.
package simnet_test

import (
	"testing"
	"time"

	"repro/internal/nodefinder"
)

// TestWireDialAllocs holds one honest Mainnet dial — RLPx handshake,
// HELLO, STATUS, DAO header check, DISCONNECT, through RealDialer over
// World.DialWire — to an absolute allocation budget, both ends of the
// pipe counted. It is the go-test twin of the ledger's crawl-wire
// allocs_per_op, which averages the same path over every outcome a
// 10k world produces and is compared only between two commits.
func TestWireDialAllocs(t *testing.T) {
	w := wireWorld(t, 7, nil)
	target := honestMainnetNode(t, w)
	d := wireDialer(t, w, 10*time.Second)
	allocs := testing.AllocsPerRun(50, func() {
		res := dialOne(t, d, target.Node)
		if class := nodefinder.OutcomeClass(res); class != "eth-handshake" || !res.DAOChecked {
			t.Fatalf("outcome %q (DAO checked %v): %v", class, res.DAOChecked, res.Err)
		}
		waitDemoted(t, w, 0) // the serving side's teardown belongs to this dial
	})
	// Measures 32, harness channel and timeout timer included: 150
	// before each RLPx end was born holding its keys and scratch and a
	// netpipe pair became one allocation, 82 before the CTR streams
	// were held by value, the pair shared one deadline timer, the
	// dialer built its HELLO and STATUS once and the world answered
	// from shared values into one scratch per session, 46 before the
	// DAO check read its header in place and the world checked the
	// crawler's HELLO and STATUS without decoding what it drops.
	const budget = 32
	if allocs > budget {
		t.Errorf("honest mainnet wire dial: %.1f allocs, budget %d", allocs, budget)
	}
	t.Logf("honest mainnet wire dial: %.1f allocs", allocs)
}
