package simnet

import (
	"math/rand"
	"time"

	"repro/internal/enode"
)

// EthernodesSnapshot models the comparison crawler of §5.3 (Table 2).
//
// Ethernodes.org runs one or a few crawling nodes and lists every
// node seen with network ID 1 within 24 hours. It has two systematic
// differences from NodeFinder: lower coverage (fewer vantage points,
// normal client behavior), and network attribution by the *claimed*
// network ID rather than verified genesis + DAO stance, so its
// "Mainnet" page mixes in alt-chain and spam identities.
type EthernodesSnapshot struct {
	// Listed is every node on the "Mainnet nodes" page (network ID 1
	// claimants seen in the window).
	Listed []enode.ID
	// GenesisFiltered is the subset whose reported genesis hash is
	// the Mainnet genesis — the paper's 4,717 of 20,437.
	GenesisFiltered []enode.ID
}

// EthernodesConfig tunes the model.
type EthernodesConfig struct {
	// ReachableCoverage is the probability a reachable network-1
	// node is seen in the window.
	ReachableCoverage float64
	// UnreachableCoverage is the same for NAT'd nodes (they must
	// happen to dial the Ethernodes crawler).
	UnreachableCoverage float64
	Seed                int64
}

// DefaultEthernodesConfig reflects a single-crawler deployment.
func DefaultEthernodesConfig(seed int64) EthernodesConfig {
	return EthernodesConfig{ReachableCoverage: 0.80, UnreachableCoverage: 0.42, Seed: seed}
}

// Ethernodes computes the snapshot for a 24-hour window starting at
// from. Listing is a deterministic per-node coin so repeated calls
// agree.
//
// Light-protocol nodes (les/pip) appear on the page too: Ethernodes'
// crawler obtains their network information, but NodeFinder cannot
// complete an eth STATUS exchange with them — §5.3's explanation for
// 61 of the nodes Ethernodes had that NodeFinder could not verify.
func (w *World) Ethernodes(cfg EthernodesConfig, from time.Time) *EthernodesSnapshot {
	to := from.Add(24 * time.Hour)
	snap := &EthernodesSnapshot{}
	for _, n := range w.Nodes {
		light := n.Service == SvcLES || n.Service == SvcPIP
		if !light && (n.Service != SvcEth || n.Network == nil || n.Network.NetworkID != 1) {
			continue
		}
		if light && (n.Network == nil || n.Network.NetworkID != 1) {
			continue
		}
		if !n.onlineSomeTimeIn(from, to) {
			continue
		}
		cov := cfg.ReachableCoverage
		if !n.Reachable {
			cov = cfg.UnreachableCoverage
		}
		// Per-node deterministic coin.
		coin := rand.New(rand.NewSource(cfg.Seed ^ int64(n.life.seed))).Float64()
		if coin >= cov {
			continue
		}
		snap.Listed = append(snap.Listed, n.Node.ID)
		// Genesis filter: the claimed genesis. Our network-1 nodes
		// all carry the Mainnet genesis (Mainnet and Classic share
		// it), so the filter passes them; abusive identities report
		// the genesis as their best hash and pass too.
		snap.GenesisFiltered = append(snap.GenesisFiltered, n.Node.ID)
	}
	return snap
}

// onlineSomeTimeIn reports whether the node had any online overlap
// with [from, to], sampled at 30-minute resolution.
func (n *SimNode) onlineSomeTimeIn(from, to time.Time) bool {
	for t := from; t.Before(to); t = t.Add(30 * time.Minute) {
		if n.OnlineAt(t) {
			return true
		}
	}
	return false
}

// MainnetGroundTruth returns the IDs of genuine Mainnet (pro-DAO,
// non-abusive) nodes online at some point in [from, to] — the
// denominator NodeFinder is validated against.
func (w *World) MainnetGroundTruth(from, to time.Time) []enode.ID {
	var out []enode.ID
	for _, n := range w.Nodes {
		if n.Abusive || n.Service != SvcEth || n.Network != w.Mainnet {
			continue
		}
		if n.onlineSomeTimeIn(from, to) {
			out = append(out, n.Node.ID)
		}
	}
	return out
}
