// Package simnet models the DEVp2p node population the paper
// measured, as a discrete-event simulation over a virtual clock.
//
// The live network is unavailable offline, so this package generates
// a synthetic world whose *composition* follows the paper's published
// distributions — services (Table 3), Ethereum networks and genesis
// hashes (Figure 9), clients (Table 4), versions (Table 5, Figure
// 10), geography and ASes (Figure 12), latency (Figure 13), freshness
// (Figure 14), churn, NAT'd unreachable nodes, and the abusive
// node-ID generators of §5.4. NodeFinder's scheduling logic (package
// nodefinder) runs unmodified against this world through the
// SimDiscovery and SimDialer adapters, so the crawler behavior the
// paper validates internally (Figures 5-8) emerges from the same code
// paths.
package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/chain"
	"repro/internal/crypto/keccak"
	"repro/internal/crypto/secp256k1"
	"repro/internal/enode"
	"repro/internal/faultnet"
	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/simclock"
)

// Service identifies which DEVp2p application a node runs (Table 3).
type Service string

// Services observed by the paper, with their capability names.
const (
	SvcEth      Service = "eth"
	SvcSwarm    Service = "bzz"
	SvcLES      Service = "les"
	SvcExpanse  Service = "exp"
	SvcIstanbul Service = "istanbul"
	SvcWhisper  Service = "shh"
	SvcDubai    Service = "dbix"
	SvcPIP      Service = "pip"
	SvcMOAC     Service = "mc"
	SvcElement  Service = "ele"
	SvcOther    Service = "other"
)

// ServiceShare is one Table 3 row.
type ServiceShare struct {
	Service Service
	Share   float64
}

// PaperServiceDistribution is Table 3.
var PaperServiceDistribution = []ServiceShare{
	{SvcEth, 0.9398},
	{SvcSwarm, 0.0185},
	{SvcLES, 0.0124},
	{SvcExpanse, 0.0050},
	{SvcIstanbul, 0.0046},
	{SvcWhisper, 0.0045},
	{SvcDubai, 0.0028},
	{SvcPIP, 0.0027},
	{SvcMOAC, 0.0016},
	{SvcElement, 0.0008},
	{SvcOther, 0.0073},
}

// ClientType identifies the implementation (Table 4).
type ClientType string

// Clients of Table 4.
const (
	ClientGeth       ClientType = "Geth"
	ClientParity     ClientType = "Parity"
	ClientEthereumJS ClientType = "ethereumjs"
	ClientCpp        ClientType = "cpp-ethereum"
	ClientHarmony    ClientType = "Harmony"
	ClientOther      ClientType = "other"
)

// Network identifies one (networkID, genesisHash) blockchain.
type Network struct {
	Name        string
	NetworkID   uint64
	GenesisHash chain.Hash
	// DAOFork is the chain's fork stance (only meaningful for the
	// Mainnet-genesis chains).
	DAOFork bool
	// HeadAt returns the chain head number at a virtual time.
	base     uint64
	baseTime time.Time

	heads    heads         // answers by best block (answers.go)
	forkOnce sync.Once     // builds fork
	fork     *chain.Header // the DAO fork block's header
}

// HeadAt extrapolates the head block at t from a 15-second block time.
func (n *Network) HeadAt(t time.Time) uint64 {
	if t.Before(n.baseTime) {
		return n.base
	}
	return n.base + uint64(t.Sub(n.baseTime)/(15*time.Second))
}

// BestHashAt synthesizes the head block hash at a height.
func (n *Network) BestHashAt(num uint64) chain.Hash {
	var in [len(n.GenesisHash) + 4]byte
	copy(in[:], n.GenesisHash[:])
	in[32], in[33], in[34], in[35] = byte(num>>24), byte(num>>16), byte(num>>8), byte(num)
	return chain.Hash(keccak.Sum256(in[:]))
}

// Freshness classifies a node's sync state (Figure 14).
type Freshness int

// Freshness states.
const (
	FreshSynced         Freshness = iota // tracks the head
	FreshLagging                         // fixed lag behind the head
	FreshStuckByzantium                  // stuck at block 4,370,001
	FreshStuckOld                        // stuck at an arbitrary old block
)

// SimNode is one behavioral node.
type SimNode struct {
	Node    *enode.Node
	Service Service
	Client  ClientType
	// OSBuild completes the client version string.
	OSBuild string

	// Network is nil for non-eth services.
	Network *Network
	// MaxPeers and occupancy drive the Too-many-peers rate.
	MaxPeers  int
	Occupancy float64 // probability a dial finds the node full

	// Reachable is false for NAT'd nodes: they only appear via
	// incoming connections.
	Reachable bool

	// Churn: the node alternates online/offline sessions.
	SessionMean time.Duration
	OfflineMean time.Duration
	// life is the event-driven on/off state machine; the whole
	// schedule is a pure function of its seed, materialized one
	// window at a time (see lifecycle.go).
	life lifecycle

	// Version lifecycle.
	UpgradeLagDays float64 // mean days behind a release this node upgrades
	PinnedVersion  string  // non-empty: never upgrades
	// StableOnly nodes adopt only stable-channel releases; DevBuild
	// Geth nodes run unstable development snapshots. Together these
	// produce Table 5's stable shares (Geth 81.9%, Parity 56.2%).
	StableOnly bool
	DevBuild   bool

	// Freshness.
	Fresh     Freshness
	LagBlocks uint64

	// Latency model: median RTT for dials to this node.
	RTTMedian time.Duration

	// Hostile marks nodes that are adversarial at the wire level:
	// they execute one of faultnet's hostile peer models instead of
	// honest protocol. HostileKind is meaningful only when Hostile.
	Hostile     bool
	HostileKind faultnet.HostileKind

	// key is the node's real secp256k1 identity (WireFidelity worlds
	// only; nil in analytic worlds). PubkeyID(key.Pub) == Node.ID, so
	// a promoted server passes the crawler's RLPx identity check.
	key *secp256k1.PrivateKey

	// Abusive marks §5.4 spam identities.
	Abusive bool
	// Born/Died bound the identity's lifetime (abusive IDs live
	// minutes; normal nodes span the whole measurement).
	Born, Died time.Time
}

// CapName returns the DEVp2p capability the node advertises.
func (n *SimNode) CapName() string {
	if n.Service == SvcOther {
		return "xyz"
	}
	return string(n.Service)
}

// WorldConfig scales and seeds the population.
type WorldConfig struct {
	Seed int64
	// Start is the virtual measurement start (paper: 2018-04-18).
	Start time.Time
	// BaseNodes is the steady-state DEVp2p population size
	// (scaled-down from the paper's ecosystem).
	BaseNodes int
	// AbusiveIPs is the number of spam-generator IPs (§5.4 found
	// 1,256 at full scale; the top one alone minted 42,237 IDs).
	AbusiveIPs int
	// AbusiveRate is how often each abusive IP mints a new node ID.
	AbusiveRate time.Duration
	// UnreachableFraction is the share of nodes behind NAT.
	UnreachableFraction float64
	// MainnetShare is the fraction of eth nodes on the true Mainnet
	// (network 1 + Mainnet genesis + pro-DAO). The paper's §6.1
	// implies ≈55% of eth nodes (51.8% of all DEVp2p nodes).
	MainnetShare float64
	// AltNetworks is the number of distinct alternative networks to
	// mint (Figure 9's long tail, scaled).
	AltNetworks int
	// HostileFraction is the share of the base population that is
	// wire-hostile (faultnet's hostile peer models). Zero keeps the
	// world uniformly well-behaved, the pre-faultnet default.
	HostileFraction float64
	// WireFidelity mints real cryptographic identities (secp256k1
	// keys whose public key IS the node ID), so a dial can promote
	// the target from its analytic state machine to a live server on
	// an in-memory connection and run the genuine RLPx/DEVp2p/eth
	// handshake chain (see wire.go). Off by default: analytic worlds
	// need no keys and no promotion machinery.
	WireFidelity bool
	// Metrics, when non-nil, receives promotion-lifecycle telemetry
	// (simnet.promotions, simnet.demotions, simnet.promoted_active).
	Metrics *metrics.Registry
}

// DefaultConfig is a laptop-scale world preserving the paper's
// proportions. AbusiveRate is the configured mint cadence; the
// crawler only catches roughly half of the minted identities while
// they are alive, so the *observed* generation interval is about
// twice this — it must stay comfortably under the §5.4 filter's
// 30-minute threshold.
func DefaultConfig(seed int64) WorldConfig {
	return WorldConfig{
		Seed:                seed,
		Start:               time.Date(2018, 4, 18, 0, 0, 0, 0, time.UTC),
		BaseNodes:           1500,
		AbusiveIPs:          4,
		AbusiveRate:         10 * time.Minute,
		UnreachableFraction: 0.55,
		MainnetShare:        0.551,
		AltNetworks:         60,
	}
}

// World is the simulated DEVp2p ecosystem.
type World struct {
	Cfg   WorldConfig
	Clock *simclock.Simulated
	Geo   *geo.DB
	Rng   *rand.Rand

	Mainnet *Network
	Classic *Network
	// Networks indexes every blockchain in the world.
	Networks []*Network

	// Nodes is the full identity census, including churned-out and
	// abusive identities (ground truth for validation).
	Nodes  []*SimNode
	byID   map[enode.ID]*SimNode
	byAddr map[string]*SimNode // TCP address → node, for wire dials

	// wire is the promotion machinery (WireFidelity worlds only).
	wire *wireState
	// keyRng is a dedicated stream for identity keys so WireFidelity
	// does not perturb the population draws.
	keyRng *rand.Rand

	// ipCounter allocates synthetic addresses.
	ipCounter uint32
	// abusive IP addresses.
	AbusiveAddrs []net.IP

	names clientNames // (answers.go)
}

// NewWorld builds the initial population.
func NewWorld(cfg WorldConfig) *World {
	w := &World{
		Cfg:    cfg,
		Clock:  simclock.NewSimulated(cfg.Start),
		Geo:    geo.NewDB(),
		Rng:    rand.New(rand.NewSource(cfg.Seed)),
		byID:   make(map[enode.ID]*SimNode),
		byAddr: make(map[string]*SimNode),
		keyRng: rand.New(rand.NewSource(cfg.Seed ^ 0x6b37)),
		names:  clientNames{m: make(map[clientName]string)},
	}
	w.wire = newWireState(cfg.Seed, cfg.Metrics)
	w.buildNetworks()
	w.buildPopulation()
	w.startAbusiveGenerators()
	return w
}

// buildNetworks mints the blockchain universe: Mainnet, Classic,
// testnets, and the alt-coin tail.
func (w *World) buildNetworks() {
	start := w.Cfg.Start
	// Mainnet head was ≈5.44M blocks on 2018-04-18.
	w.Mainnet = &Network{
		Name: "Mainnet", NetworkID: 1,
		GenesisHash: chain.MainnetGenesisHash,
		DAOFork:     true,
		base:        5_440_000, baseTime: start,
	}
	w.Classic = &Network{
		Name: "Classic", NetworkID: 1,
		GenesisHash: chain.MainnetGenesisHash, // same genesis; differs at the DAO fork
		DAOFork:     false,
		base:        5_780_000, baseTime: start,
	}
	w.Networks = append(w.Networks, w.Mainnet, w.Classic)
	w.Networks = append(w.Networks,
		&Network{Name: "Ropsten", NetworkID: 3, GenesisHash: chain.RopstenGenesisHash, base: 3_100_000, baseTime: start},
		&Network{Name: "Musicoin", NetworkID: 7762959, GenesisHash: w.mintGenesis("musicoin"), base: 1_800_000, baseTime: start},
		&Network{Name: "Pirl", NetworkID: 3125659152, GenesisHash: w.mintGenesis("pirl"), base: 1_200_000, baseTime: start},
		&Network{Name: "Ubiq", NetworkID: 8, GenesisHash: w.mintGenesis("ubiq"), base: 600_000, baseTime: start},
	)
	// Long tail (Figure 9): many single-peer networks; some advertise
	// the Mainnet genesis on a non-1 network ID (misconfiguration).
	for i := 0; i < w.Cfg.AltNetworks; i++ {
		gh := w.mintGenesis(fmt.Sprintf("alt-%d", i))
		if i%7 == 3 {
			gh = chain.MainnetGenesisHash // misconfigured Mainnet-genesis claimant
		}
		w.Networks = append(w.Networks, &Network{
			Name:        fmt.Sprintf("alt-%d", i),
			NetworkID:   uint64(1000 + i),
			GenesisHash: gh,
			base:        uint64(w.Rng.Intn(1_000_000)),
			baseTime:    start,
		})
	}
}

// mintKey draws a real identity key from the dedicated key stream.
func (w *World) mintKey() *secp256k1.PrivateKey {
	key, err := secp256k1.GenerateKey(w.keyRng)
	if err != nil {
		// The deterministic rng never fails to yield a scalar in range
		// within the retry budget; treat exhaustion as a program bug.
		panic(fmt.Sprintf("simnet: minting identity key: %v", err))
	}
	return key
}

func (w *World) mintGenesis(seed string) chain.Hash {
	return chain.Hash(keccak.Sum256([]byte("genesis:" + seed)))
}

// nextIP allocates a unique synthetic public IP.
func (w *World) nextIP() net.IP {
	w.ipCounter++
	c := w.ipCounter
	return net.IPv4(byte(11+(c>>16)%200), byte(c>>12), byte(c>>4), byte(c&0xF)*16+1)
}

// buildPopulation mints the steady-state nodes.
func (w *World) buildPopulation() {
	for i := 0; i < w.Cfg.BaseNodes; i++ {
		w.register(w.mintNode())
	}
}

// register indexes a minted node by identity and wire address.
func (w *World) register(n *SimNode) {
	w.Nodes = append(w.Nodes, n)
	w.byID[n.Node.ID] = n
	w.byAddr[n.Node.TCPAddr().String()] = n
}

// mintNode draws one node from the population distributions.
func (w *World) mintNode() *SimNode {
	rng := w.Rng
	id := enode.RandomID(rng)
	var key *secp256k1.PrivateKey
	if w.Cfg.WireFidelity {
		key = w.mintKey()
		id = enode.PubkeyID(&key.Pub)
	}
	ip := w.nextIP()
	node := enode.New(id, ip, 30303, 30303)

	n := &SimNode{
		Node:      node,
		key:       key,
		Service:   w.drawService(),
		Reachable: rng.Float64() >= w.Cfg.UnreachableFraction,
		Born:      w.Cfg.Start,
		Died:      w.Cfg.Start.Add(100 * 24 * time.Hour),
		// Churn: heavy-tailed session lengths; median sessions of
		// hours with a long online tail.
		SessionMean: time.Duration(2+rng.ExpFloat64()*20) * time.Hour,
		OfflineMean: time.Duration(1+rng.ExpFloat64()*8) * time.Hour,
		life:        lifecycle{seed: uint64(rng.Int63())},
	}
	country := w.Geo.Country(ip)
	n.RTTMedian = rttForCountry(country, rng)

	// A HostileFraction slice of the world is adversarial on the
	// wire: its protocol identity below is what it *claims* during
	// discovery, but dials hit one of faultnet's attack behaviors.
	if rng.Float64() < w.Cfg.HostileFraction {
		n.Hostile = true
		n.HostileKind = faultnet.HostileKind(rng.Intn(int(faultnet.NumHostileKinds)))
	}

	switch n.Service {
	case SvcEth:
		w.assignEthIdentity(n, rng)
	case SvcLES, SvcPIP:
		// Light clients still belong to Mainnet logically.
		n.Network = w.Mainnet
		if n.Service == SvcPIP {
			n.Client = ClientParity
		} else {
			n.Client = ClientGeth
		}
		n.MaxPeers, n.Occupancy = 25, 0.3
	default:
		n.Client = ClientOther
		n.MaxPeers, n.Occupancy = 25, 0.2
	}
	w.assignClientName(n)
	return n
}

func (w *World) drawService() Service {
	f := w.Rng.Float64()
	acc := 0.0
	for _, s := range PaperServiceDistribution {
		acc += s.Share
		if f < acc {
			return s.Service
		}
	}
	return SvcOther
}

// assignEthIdentity picks network, client, version behavior, peers,
// and freshness for an eth-subprotocol node.
func (w *World) assignEthIdentity(n *SimNode, rng *rand.Rand) {
	// Network: MainnetShare on the true Mainnet; the rest spread
	// over Classic, testnets, and the alt tail.
	f := rng.Float64()
	switch {
	case f < w.Cfg.MainnetShare:
		n.Network = w.Mainnet
	case f < w.Cfg.MainnetShare+0.08:
		n.Network = w.Classic
	case f < w.Cfg.MainnetShare+0.13:
		n.Network = w.Networks[2] // Ropsten
	default:
		// Zipf-ish tail over the alt networks: low indexes get more.
		idx := 3 + int(math.Floor(math.Pow(rng.Float64(), 2.5)*float64(len(w.Networks)-3)))
		if idx >= len(w.Networks) {
			idx = len(w.Networks) - 1
		}
		n.Network = w.Networks[idx]
	}

	// Client mix (Table 4).
	cf := rng.Float64()
	switch {
	case cf < 0.766:
		n.Client = ClientGeth
		n.MaxPeers = 25
	case cf < 0.766+0.170:
		n.Client = ClientParity
		n.MaxPeers = 50
	case cf < 0.766+0.170+0.052:
		n.Client = ClientEthereumJS
		n.MaxPeers = 25
	case cf < 0.766+0.170+0.052+0.006:
		n.Client = ClientCpp
		n.MaxPeers = 25
	case cf < 0.766+0.170+0.052+0.006+0.004:
		n.Client = ClientHarmony
		n.MaxPeers = 25
	default:
		n.Client = ClientOther
		n.MaxPeers = 25
	}
	// Occupancy: both clients sit at max peers most of the time
	// (99.1% Geth, 91.5% Parity in §3).
	switch n.Client {
	case ClientGeth:
		n.Occupancy = 0.991
	case ClientParity:
		n.Occupancy = 0.915
	default:
		n.Occupancy = 0.85
	}

	// Version behavior: most upgrade with a lag; some pin; channel
	// preferences shape Table 5's stable shares.
	n.UpgradeLagDays = rng.ExpFloat64() * 18
	switch n.Client {
	case ClientGeth:
		switch {
		case rng.Float64() < 0.035:
			// §6.2: 3.5% run versions older than v1.7.1.
			n.PinnedVersion = pickOne(rng, []string{"v1.6.7-stable", "v1.6.5-stable", "v1.5.9-stable", "v1.7.0-unstable"})
		case rng.Float64() < 0.08:
			n.PinnedVersion = pickOne(rng, []string{"v1.7.2-stable", "v1.7.3-stable"})
		default:
			// ≈15% of Geth nodes build from source and run unstable
			// development snapshots.
			n.DevBuild = rng.Float64() < 0.16
		}
	case ClientParity:
		// Parity publishes stable/beta/rc weekly; slightly under half
		// of deployments track only the stable channel (Table 5:
		// 56.2% stable overall).
		n.StableOnly = rng.Float64() < 0.45
	}

	// Freshness (Figure 14): about a third of Mainnet nodes are
	// stale; a small cluster is stuck just past Byzantium.
	ff := rng.Float64()
	switch {
	case ff < 0.02 && n.Network == w.Mainnet:
		n.Fresh = FreshStuckByzantium
	case ff < 0.327:
		if rng.Float64() < 0.4 {
			n.Fresh = FreshStuckOld
			n.LagBlocks = uint64(50_000 + rng.Intn(2_000_000))
		} else {
			n.Fresh = FreshLagging
			// Log-uniform lag from hundreds to ~100k blocks.
			n.LagBlocks = uint64(math.Pow(10, 2.5+rng.Float64()*2.5))
		}
	default:
		n.Fresh = FreshSynced
	}
}

func pickOne(rng *rand.Rand, xs []string) string { return xs[rng.Intn(len(xs))] }

// countryRTTms is the median RTT, in milliseconds, from the central US
// to each country the world places nodes in. Read-only.
var countryRTTms = map[geo.Country]float64{
	"US": 40, "CA": 55, "GB": 95, "DE": 105, "FR": 100, "NL": 100,
	"RU": 150, "CN": 210, "KR": 180, "JP": 160, "SG": 220, "AU": 210,
	"OTHER": 140,
}

// rttForCountry samples a median RTT consistent with a crawler in
// the central US (the paper's vantage point).
func rttForCountry(c geo.Country, rng *rand.Rand) time.Duration {
	m, ok := countryRTTms[c]
	if !ok {
		m = 140
	}
	// Lognormal jitter around the base.
	f := math.Exp(rng.NormFloat64() * 0.35)
	return time.Duration(m*f) * time.Millisecond
}

// NodeByID looks up a node.
func (w *World) NodeByID(id enode.ID) *SimNode {
	return w.byID[id]
}

// OnlineAt reports whether a node is online at virtual time t. The
// on/off schedule is a deterministic function of the node's lifecycle
// seed; queries at non-decreasing times are O(1) amortized.
func (n *SimNode) OnlineAt(t time.Time) bool {
	return n.life.onlineAt(n, t)
}

// NextTransitionAfter returns the node's first online/offline state
// change at or after t — the instant an event-driven scheduler should
// revisit the node instead of polling it.
func (n *SimNode) NextTransitionAfter(t time.Time) time.Time {
	return n.life.nextTransition(n, t)
}

// BestBlockAt returns the node's advertised head number at t.
func (n *SimNode) BestBlockAt(t time.Time) uint64 {
	if n.Network == nil {
		return 0
	}
	head := n.Network.HeadAt(t)
	switch n.Fresh {
	case FreshStuckByzantium:
		return chain.ByzantiumForkBlock + 1
	case FreshStuckOld:
		if n.LagBlocks >= head {
			return 1
		}
		return head - n.LagBlocks
	case FreshLagging:
		if n.LagBlocks >= head {
			return 1
		}
		return head - n.LagBlocks
	default:
		return head
	}
}

// startAbusiveGenerators schedules the §5.4 spam-identity mints.
func (w *World) startAbusiveGenerators() {
	for i := 0; i < w.Cfg.AbusiveIPs; i++ {
		ip := w.nextIP()
		w.AbusiveAddrs = append(w.AbusiveAddrs, ip)
		(&abusiveMinter{w: w, ip: ip}).schedule()
	}
}

// abusiveMinter is one abusive IP's clock event: each firing mints a
// fresh identity there and arms the next, allocating no callback.
type abusiveMinter struct {
	w  *World
	ip net.IP
}

func (m *abusiveMinter) schedule() {
	w := m.w
	jitter := time.Duration(w.Rng.Int63n(int64(w.Cfg.AbusiveRate)/2 + 1))
	w.Clock.Schedule(w.Cfg.AbusiveRate/2+jitter, m)
}

func (m *abusiveMinter) Fire() {
	w, ip := m.w, m.ip
	now := w.Clock.Now()
	id := enode.RandomID(w.Rng)
	var key *secp256k1.PrivateKey
	if w.Cfg.WireFidelity {
		key = w.mintKey()
		id = enode.PubkeyID(&key.Pub)
	}
	n := &SimNode{
		Node:        enode.New(id, ip, 30303, 30303),
		key:         key,
		Service:     SvcEth,
		Client:      ClientEthereumJS,
		OSBuild:     "",
		Network:     w.Mainnet,
		MaxPeers:    25,
		Occupancy:   0,
		Reachable:   true,
		Born:        now,
		Died:        now.Add(time.Duration(5+w.Rng.Intn(25)) * time.Minute),
		SessionMean: time.Hour,
		OfflineMean: time.Hour,
		life:        lifecycle{seed: uint64(w.Rng.Int63())},
		Fresh:       FreshStuckOld,
		LagBlocks:   math.MaxUint64 >> 1, // best hash pinned at genesis
		RTTMedian:   120 * time.Millisecond,
		Abusive:     true,
	}
	w.register(n)
	m.schedule()
}

// assignClientName fills OSBuild used when composing version strings.
func (w *World) assignClientName(n *SimNode) {
	switch n.Client {
	case ClientGeth:
		n.OSBuild = pickOne(w.Rng, []string{"linux-amd64/go1.10", "linux-amd64/go1.9", "darwin-amd64/go1.10", "windows-amd64/go1.10"})
	case ClientParity:
		n.OSBuild = pickOne(w.Rng, []string{"x86_64-linux-gnu/rustc1.26.0", "x86_64-linux-gnu/rustc1.25.0", "x86_64-macos/rustc1.26.0"})
	default:
		n.OSBuild = "linux"
	}
}
