package analysis

import (
	"slices"
	"strings"

	"repro/internal/chain"
)

// Share is one row of a ranked distribution; the census service serves
// it as is.
type Share struct {
	Key      string  `json:"key"`
	Count    int     `json:"count"`
	Fraction float64 `json:"fraction"`
}

// Every census below is two steps: count the observations by a bucket
// key (ServiceKey, ClientKey, VersionKey, NetworkKey, ResolveGeo), then
// finish the counts into ranked rows (Rank, NetworkCensusOf,
// VersionCensusOf, GeoCensusOf). The census daemon keeps the same
// counts as running tallies, by the same keys, and finishes them with
// the same functions; only how the counts come about differs.

// Rank converts a count map to rows sorted by count descending (ties
// by key for determinism).
func Rank(counts map[string]int) []Share {
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
	slices.SortFunc(rows, func(a, b Share) int {
		if a.Count != b.Count {
			return b.Count - a.Count
		}
		return strings.Compare(a.Key, b.Key)
	})
	return rows
}

// knownServices are the Table 3 capability names.
var knownServices = []string{"eth", "bzz", "les", "exp", "istanbul", "shh", "dbix", "pip", "mc", "ele"}

// PrimaryService classifies a node's service from its capability
// list, the way Table 3 does: eth wins if present, then the other
// known services, otherwise the first capability name.
func PrimaryService(caps []string) string {
	for _, s := range knownServices {
		for _, c := range caps {
			if name, _, _ := strings.Cut(c, "/"); name == s {
				return s
			}
		}
	}
	for _, c := range caps {
		if name, _, _ := strings.Cut(c, "/"); name != "" {
			return "other:" + name
		}
	}
	return "unknown"
}

// ServiceKey is o's Table 3 row; ok is false without a HELLO, which
// leaves o out of the DEVp2p census.
func ServiceKey(o *NodeObservation) (key string, ok bool) {
	if len(o.Caps) == 0 {
		return "", false
	}
	return PrimaryService(o.Caps), true
}

// ServiceCensus computes Table 3 from per-node observations.
func ServiceCensus(nodes map[string]*NodeObservation) []Share {
	counts := map[string]int{}
	for _, o := range nodes {
		if key, ok := ServiceKey(o); ok {
			counts[key]++
		}
	}
	return Rank(counts)
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
		netCounts[NetworkKey(o.NetworkID)]++
		genCounts[o.GenesisHash]++
		if IsImpostor(o) {
			impostors++
		}
	}
	return NetworkCensusOf(netCounts, genCounts, impostors)
}

// IsImpostor reports a peer outside network 1 advertising the Mainnet
// genesis hash.
func IsImpostor(o *NodeObservation) bool {
	return o.HasStatus && o.NetworkID != 1 && o.GenesisHash == mainnetGenesisHex
}

// NetworkCensusOf finishes Figure 9 from its counts.
func NetworkCensusOf(netCounts, genCounts map[string]int, impostors int) *NetworkCensus {
	nc := &NetworkCensus{
		Networks:                Rank(netCounts),
		GenesisHashes:           Rank(genCounts),
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

// NetworkKey is the Figure 9 row of a network ID.
func NetworkKey(id uint64) string {
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
		if impl, ok := ClientKey(o); ok {
			counts[impl]++
		}
	}
	return Rank(counts)
}

// ClientKey is o's Table 4 row: the implementation its HELLO names, the
// client name up to the first '/'; ok is false without a name.
func ClientKey(o *NodeObservation) (impl string, ok bool) {
	impl, _, _ = strings.Cut(o.ClientName, "/")
	return impl, o.ClientName != ""
}

// VersionKey is o's Table 5 row for client: the second part of a client
// name whose first part is client; ok is false for any other name.
func VersionKey(o *NodeObservation, client string) (version string, ok bool) {
	rest, ok := strings.CutPrefix(o.ClientName, client+"/")
	version, _, _ = strings.Cut(rest, "/")
	return version, ok
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
	for _, o := range nodes {
		if v, ok := VersionKey(o, client); ok {
			counts[v]++
		}
	}
	return VersionCensusOf(client, counts)
}

// VersionCensusOf finishes Table 5 from client's version counts.
func VersionCensusOf(client string, counts map[string]int) *VersionCensus {
	vc := &VersionCensus{Client: client, Versions: Rank(counts)}
	for v, c := range counts {
		vc.Total += c
		if stableVersion(v) {
			vc.StableCount += c
		}
	}
	if vc.Total > 0 {
		vc.StableShare = float64(vc.StableCount) / float64(vc.Total)
	}
	return vc
}

// stableVersion reports whether version names a stable-channel release:
// its release tag, the part after the first '-', is "stable" or starts
// with "stable-" (Geth appends the commit, as in
// "v1.8.11-stable-dea1ce05"). "-unstable", "-beta", "-rc" and untagged
// versions are not stable.
func stableVersion(version string) bool {
	_, tag, ok := strings.Cut(version, "-")
	return ok && (tag == "stable" || strings.HasPrefix(tag, "stable-"))
}

// DisconnectTable computes Table 1 style shares from reason counts.
func DisconnectTable(counts map[uint64]uint64) []Share {
	m := map[string]int{}
	for reason, c := range counts {
		m[reasonName(reason)] = int(c)
	}
	return Rank(m)
}

// reasonNames are Table 1's rows, by DISCONNECT reason code.
var reasonNames = map[uint64]string{
	0x00: "Disconnect requested",
	0x03: "Useless peer",
	0x04: "Too many peers",
	0x05: "Already connected",
	0x08: "Client quitting",
	0x0b: "Read timeout",
	0x10: "Subprotocol error",
}

func reasonName(r uint64) string {
	if n, ok := reasonNames[r]; ok {
		return n
	}
	return "Other"
}
