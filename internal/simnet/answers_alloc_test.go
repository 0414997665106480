//go:build !race

// Allocation pin for World.answer. Excluded under the race detector,
// whose instrumentation changes allocation counts.
package simnet

import (
	"slices"
	"testing"

	"repro/internal/devp2p"
	"repro/internal/eth"
	"repro/internal/nodefinder"
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
