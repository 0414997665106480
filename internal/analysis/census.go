package analysis

import (
	"sort"
	"strings"

	"repro/internal/chain"
)

// Share is one row of a ranked distribution.
type Share struct {
	Key      string
	Count    int
	Fraction float64
}

// rank converts a count map to rows sorted by count descending (ties
// by key for determinism).
func rank(counts map[string]int) []Share {
	total := 0
	for _, c := range counts {
		total += c
	}
	rows := make([]Share, 0, len(counts))
	for k, c := range counts {
		f := 0.0
		if total > 0 {
			f = float64(c) / float64(total)
		}
		rows = append(rows, Share{Key: k, Count: c, Fraction: f})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		return rows[i].Key < rows[j].Key
	})
	return rows
}

// knownServices are the Table 3 capability names.
var knownServices = []string{"eth", "bzz", "les", "exp", "istanbul", "shh", "dbix", "pip", "mc", "ele"}

// PrimaryService classifies a node's service from its capability
// list, the way Table 3 does: eth wins if present, then the other
// known services, otherwise the first capability name.
func PrimaryService(caps []string) string {
	names := map[string]bool{}
	var first string
	for _, c := range caps {
		name := c
		if i := strings.IndexByte(c, '/'); i >= 0 {
			name = c[:i]
		}
		if first == "" {
			first = name
		}
		names[name] = true
	}
	for _, s := range knownServices {
		if names[s] {
			return s
		}
	}
	if first == "" {
		return "unknown"
	}
	return "other:" + first
}

// ServiceCensus computes Table 3 from per-node observations.
func ServiceCensus(nodes map[string]*NodeObservation) []Share {
	counts := map[string]int{}
	for _, o := range nodes {
		if len(o.Caps) == 0 {
			continue // no HELLO: not part of the DEVp2p census
		}
		counts[PrimaryService(o.Caps)]++
	}
	return rank(counts)
}

// NetworkCensus captures Figure 9.
type NetworkCensus struct {
	// Networks ranks network IDs by node count.
	Networks []Share
	// GenesisHashes ranks genesis hashes by node count.
	GenesisHashes []Share
	// DistinctNetworks and DistinctGenesis are the headline counts
	// (the paper: 4,076 and 18,829).
	DistinctNetworks int
	DistinctGenesis  int
	// SinglePeerNetworks is how many networks were seen at exactly
	// one peer (the paper: 1,402).
	SinglePeerNetworks int
	// MainnetGenesisImpostors counts non-network-1 peers advertising
	// the Mainnet genesis hash (the paper: 10,497 instances).
	MainnetGenesisImpostors int
}

// Networks computes Figure 9 from observations with STATUS data.
func Networks(nodes map[string]*NodeObservation) *NetworkCensus {
	netCounts := map[string]int{}
	genCounts := map[string]int{}
	impostors := 0
	for _, o := range nodes {
		if !o.HasStatus {
			continue
		}
		netCounts[netKey(o.NetworkID)]++
		genCounts[o.GenesisHash]++
		if o.NetworkID != 1 && o.GenesisHash == mainnetGenesisHex {
			impostors++
		}
	}
	nc := &NetworkCensus{
		Networks:                rank(netCounts),
		GenesisHashes:           rank(genCounts),
		DistinctNetworks:        len(netCounts),
		DistinctGenesis:         len(genCounts),
		MainnetGenesisImpostors: impostors,
	}
	for _, c := range netCounts {
		if c == 1 {
			nc.SinglePeerNetworks++
		}
	}
	return nc
}

func netKey(id uint64) string {
	switch id {
	case 1:
		return "1 (Mainnet/Classic)"
	case 3:
		return "3 (Ropsten)"
	default:
		return uitoa(id)
	}
}

func uitoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// mainnetGenesisHex is the form STATUS genesis hashes are logged in.
// Every census asks IsMainnet of every node, so it is rendered once.
var mainnetGenesisHex = chain.MainnetGenesisHash.Hex()

// IsMainnet reports whether an observation is a verified non-Classic
// Mainnet node: network 1, Mainnet genesis, and a pro-fork DAO check.
func IsMainnet(o *NodeObservation) bool {
	return IsMainnetLike(o, mainnetGenesisHex)
}

// IsMainnetLike is IsMainnet against a caller-supplied genesis hash,
// for test networks whose "Mainnet" has a synthetic genesis.
func IsMainnetLike(o *NodeObservation, genesisHex string) bool {
	return o.HasStatus &&
		o.NetworkID == 1 &&
		o.GenesisHash == genesisHex &&
		o.DAOFork == "supported"
}

// MainnetSubset filters to verified Mainnet nodes (§6.2's population).
func MainnetSubset(nodes map[string]*NodeObservation) map[string]*NodeObservation {
	out := map[string]*NodeObservation{}
	for id, o := range nodes {
		if IsMainnet(o) {
			out[id] = o
		}
	}
	return out
}

// ClientCensus computes Table 4: implementation shares among the
// given (typically Mainnet) observations.
func ClientCensus(nodes map[string]*NodeObservation) []Share {
	counts := map[string]int{}
	for _, o := range nodes {
		if o.ClientName == "" {
			continue
		}
		impl := o.ClientName
		if i := strings.IndexByte(impl, '/'); i >= 0 {
			impl = impl[:i]
		}
		counts[impl]++
	}
	return rank(counts)
}

// VersionCensus captures Table 5 for one client.
type VersionCensus struct {
	Client      string
	Total       int
	StableCount int
	StableShare float64
	// Versions ranks version strings.
	Versions []Share
}

// Versions computes Table 5 for the named client prefix ("Geth",
// "Parity").
func Versions(nodes map[string]*NodeObservation, client string) *VersionCensus {
	counts := map[string]int{}
	stable := 0
	total := 0
	for _, o := range nodes {
		if !strings.HasPrefix(o.ClientName, client+"/") {
			continue
		}
		parts := strings.SplitN(o.ClientName, "/", 3)
		if len(parts) < 2 {
			continue
		}
		v := parts[1]
		counts[v]++
		total++
		if strings.Contains(v, "stable") {
			stable++
		}
	}
	vc := &VersionCensus{Client: client, Total: total, StableCount: stable, Versions: rank(counts)}
	if total > 0 {
		vc.StableShare = float64(stable) / float64(total)
	}
	return vc
}

// DisconnectTable computes Table 1 style shares from reason counts.
func DisconnectTable(counts map[uint64]uint64) []Share {
	m := map[string]int{}
	for reason, c := range counts {
		m[reasonName(reason)] = int(c)
	}
	return rank(m)
}

func reasonName(r uint64) string {
	names := map[uint64]string{
		0x00: "Disconnect requested",
		0x03: "Useless peer",
		0x04: "Too many peers",
		0x05: "Already connected",
		0x08: "Client quitting",
		0x0b: "Read timeout",
		0x10: "Subprotocol error",
	}
	if n, ok := names[r]; ok {
		return n
	}
	return "Other"
}
