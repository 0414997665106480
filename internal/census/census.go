// Package census turns the NodeFinder measurement log into a served
// longitudinal census: a daemon slices the log into fixed epochs on a
// simclock tick, builds an immutable Snapshot of the ecosystem
// censuses (§6) plus the epoch churn series, and an HTTP layer serves
// the snapshot without ever blocking the daemon.
//
// The serving design is read-mostly and allocation-bounded: every
// endpoint's response body is marshaled once at publish time and
// stored inside the Snapshot, snapshots swap atomically, and handlers
// write the pre-built bytes. Readers never take a lock and never
// marshal on the hot path.
package census

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/geo"
	"repro/internal/nodefinder/mlog"
)

// Cached endpoint payload indices inside a Snapshot.
const (
	epIndex = iota
	epSummary
	epClients
	epGeo
	epNetworks
	epSeriesChurn
	epSeriesArrivals
	numEndpoints
)

// Row caps keep cached payloads bounded no matter how adversarial the
// population is (the paper saw 18k distinct genesis hashes). Headline
// distinct counts are always served alongside, so truncation is
// visible, never silent.
const (
	maxShareRows   = 20
	maxVersionRows = 12
)

// share is analysis.Share with JSON tags for serving.
type share struct {
	Key      string  `json:"key"`
	Count    int     `json:"count"`
	Fraction float64 `json:"fraction"`
}

func toShares(rows []analysis.Share, max int) []share {
	if len(rows) > max {
		rows = rows[:max]
	}
	out := make([]share, len(rows))
	for i, r := range rows {
		out[i] = share{Key: r.Key, Count: r.Count, Fraction: r.Fraction}
	}
	return out
}

// rankCounts is analysis' rank ordering for locally-computed count
// maps: count descending, ties by key.
func rankCounts(counts map[string]int) []share {
	total := 0
	for _, c := range counts {
		total += c
	}
	rows := make([]share, 0, len(counts))
	for k, c := range counts {
		f := 0.0
		if total > 0 {
			f = float64(c) / float64(total)
		}
		rows = append(rows, share{Key: k, Count: c, Fraction: f})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		return rows[i].Key < rows[j].Key
	})
	return rows
}

// Totals are the headline population counts of one snapshot.
type Totals struct {
	// Identities is every node ID the log has seen.
	Identities int `json:"identities"`
	// Responsive answered with a HELLO or DISCONNECT at least once.
	Responsive int `json:"responsive"`
	// DEVp2p completed the DEVp2p handshake (decoded HELLO).
	DEVp2p int `json:"devp2p"`
	// WithStatus also completed the eth STATUS exchange.
	WithStatus int `json:"withStatus"`
	// Mainnet are verified Mainnet nodes (network 1, Mainnet genesis,
	// pro-fork DAO check).
	Mainnet int `json:"mainnet"`
}

// NodeSummary is the per-identity lookup record served by
// /v1/nodes/{id}.
type NodeSummary struct {
	ID          string    `json:"id"`
	IP          string    `json:"ip,omitempty"`
	Country     string    `json:"country,omitempty"`
	AS          string    `json:"as,omitempty"`
	Cloud       bool      `json:"cloud,omitempty"`
	Responsive  bool      `json:"responsive"`
	FirstSeen   time.Time `json:"firstSeen"`
	LastSeen    time.Time `json:"lastSeen"`
	Client      string    `json:"client,omitempty"`
	Caps        []string  `json:"caps,omitempty"`
	NetworkID   uint64    `json:"networkID,omitempty"`
	GenesisHash string    `json:"genesisHash,omitempty"`
	BestBlock   uint64    `json:"bestBlock,omitempty"`
	DAOFork     string    `json:"daoFork,omitempty"`
	LatencyMS   float64   `json:"latencyMS,omitempty"`
	Mainnet     bool      `json:"mainnet"`
	Entries     int       `json:"entries"`
}

// Snapshot is one immutable published census. All exported fields and
// the cached payloads are written once by BuildSnapshot and never
// mutated afterwards, so a *Snapshot may be shared across any number
// of concurrent readers without synchronization.
type Snapshot struct {
	// Epoch counts published snapshots, starting at 0 when the daemon
	// starts. It keys every response cache: a new epoch is the only
	// event that invalidates a cached body.
	Epoch uint64
	// Time is the snapshot's build time, Start the series origin.
	Time  time.Time
	Start time.Time
	// Interval is the epoch width.
	Interval time.Duration
	Totals   Totals
	// Points is the finalized churn series: one interval behind Time,
	// so every in-flight dial of a finalized window has landed.
	Points []analysis.EpochPoint

	nodes  map[string]*NodeSummary
	ids    []string
	cached [numEndpoints][]byte
	etag   string
}

// ETag returns the strong entity tag shared by every cached payload
// of this snapshot.
func (s *Snapshot) ETag() string { return s.etag }

// Node returns the summary for a node ID, or nil.
func (s *Snapshot) Node(id string) *NodeSummary { return s.nodes[id] }

// NodeIDs returns all known IDs in sorted order. The slice is shared
// and must not be mutated.
func (s *Snapshot) NodeIDs() []string { return s.ids }

// Payload returns the pre-marshaled body for a cached endpoint index.
func (s *Snapshot) Payload(ep int) []byte { return s.cached[ep] }

// Endpoints in the order served by the index payload.
var endpointPaths = []string{
	"/v1/summary",
	"/v1/clients",
	"/v1/geo",
	"/v1/networks",
	"/v1/series/churn",
	"/v1/series/arrivals",
	"/v1/nodes/{id}",
	"/metrics",
}

// BuildParams feed one BuildSnapshot call.
type BuildParams struct {
	Epoch uint64
	// Now is the build time; Start/Interval define the epoch grid.
	Now      time.Time
	Start    time.Time
	Interval time.Duration
	// Entries is the cumulative measurement log, in record order.
	Entries []*mlog.Entry
	// Geo resolves node IPs; nil disables geography.
	Geo *geo.DB
	// MaxPoints, when positive, bounds the served series to the most
	// recent windows.
	MaxPoints int
}

type summaryPayload struct {
	Epoch            uint64    `json:"epoch"`
	Time             time.Time `json:"time"`
	Start            time.Time `json:"start"`
	IntervalSeconds  float64   `json:"intervalSeconds"`
	Totals           Totals    `json:"totals"`
	EpochsFinalized  int       `json:"epochsFinalized"`
	DistinctNetworks int       `json:"distinctNetworks"`
	DistinctGenesis  int       `json:"distinctGenesis"`
}

type versionPayload struct {
	Client      string  `json:"client"`
	Total       int     `json:"total"`
	StableShare float64 `json:"stableShare"`
	Top         []share `json:"top"`
}

type clientsPayload struct {
	Epoch    uint64           `json:"epoch"`
	Clients  []share          `json:"clients"`
	Services []share          `json:"services"`
	Versions []versionPayload `json:"versions"`
}

type geoPayload struct {
	Epoch        uint64  `json:"epoch"`
	Countries    []share `json:"countries"`
	ASes         []share `json:"ases"`
	Top8ASShare  float64 `json:"top8ASShare"`
	Top8AllCloud bool    `json:"top8AllCloud"`
}

type networksPayload struct {
	Epoch                   uint64  `json:"epoch"`
	Networks                []share `json:"networks"`
	GenesisHashes           []share `json:"genesisHashes"`
	DistinctNetworks        int     `json:"distinctNetworks"`
	DistinctGenesis         int     `json:"distinctGenesis"`
	SinglePeerNetworks      int     `json:"singlePeerNetworks"`
	MainnetGenesisImpostors int     `json:"mainnetGenesisImpostors"`
	Forks                   []share `json:"forks"`
}

type churnPayload struct {
	Epoch           uint64                `json:"epoch"`
	Start           time.Time             `json:"start"`
	IntervalSeconds float64               `json:"intervalSeconds"`
	Points          []analysis.EpochPoint `json:"points"`
}

// arrivalPoint is the arrivals view of one epoch window.
type arrivalPoint struct {
	Epoch   int       `json:"epoch"`
	Start   time.Time `json:"start"`
	Arrived int       `json:"arrived"`
	Alive   int       `json:"alive"`
}

type arrivalsPayload struct {
	Epoch  uint64         `json:"epoch"`
	Points []arrivalPoint `json:"points"`
}

type indexPayload struct {
	Service   string   `json:"service"`
	Epoch     uint64   `json:"epoch"`
	Endpoints []string `json:"endpoints"`
}

// fold is the census's write-side state: the node table, the churn
// series and the geography index, each advanced one log entry at a
// time. The daemon keeps one fold for its lifetime and feeds it only
// the entries recorded since the last tick; BuildSnapshot feeds a
// fresh one the whole log. Either way a snapshot is fold.snapshot, so
// what is served is a function of the entry sequence alone.
type fold struct {
	start     time.Time
	interval  time.Duration
	maxPoints int
	nodes     *analysis.Aggregator
	epochs    *analysis.EpochFold
	geo       *analysis.GeoIndex // nil disables geography
	// points is the sealed series so far. Published snapshots share its
	// backing array, so it is only ever appended to or resliced.
	points []analysis.EpochPoint
	// ids is every known node ID, sorted; fresh are the IDs first seen
	// since ids was built. Published snapshots share ids, so it is
	// replaced, never edited.
	ids   []string
	fresh []string
}

func newFold(start time.Time, interval time.Duration, db *geo.DB, maxPoints int) *fold {
	f := &fold{
		start:     start,
		interval:  interval,
		maxPoints: maxPoints,
		nodes:     analysis.NewAggregator(),
	}
	if interval > 0 {
		f.epochs = analysis.NewEpochFold(start, interval)
	}
	if db != nil {
		f.geo = analysis.NewGeoIndex(db)
	}
	return f
}

// add folds one entry in. It reports false for a late entry: one whose
// window is already sealed. A late entry still updates the node table
// (totals, censuses, /v1/nodes/{id}), but the series point it belongs
// to has been published and is not rewritten.
func (f *fold) add(e *mlog.Entry) bool {
	if o := f.nodes.Add(e); o != nil && o.EntryCount == 1 {
		f.fresh = append(f.fresh, o.ID)
	}
	return f.epochs == nil || f.epochs.Add(e)
}

// mergeSorted merges two sorted string slices into a new one.
func mergeSorted(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0] <= b[0] {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// BuildSnapshot folds the whole log from scratch and snapshots the
// result.
func BuildSnapshot(p BuildParams) *Snapshot {
	f := newFold(p.Start, p.Interval, p.Geo, p.MaxPoints)
	for _, e := range p.Entries {
		f.add(e)
	}
	return f.snapshot(p.Epoch, p.Now)
}

// snapshot seals the windows that are final at now and marshals every
// endpoint payload eagerly, so serving is a byte copy. Nothing the
// returned Snapshot references is written again by later adds.
func (f *fold) snapshot(epoch uint64, now time.Time) *Snapshot {
	nodes := f.nodes.Nodes()
	s := &Snapshot{
		Epoch:    epoch,
		Time:     now,
		Start:    f.start,
		Interval: f.interval,
		etag:     fmt.Sprintf("%q", fmt.Sprintf("census-%d", epoch)),
	}

	// Finalized windows lag the build time by one interval: entries
	// carry the dial's start time but land in the log at dial end, so
	// the newest window may still be filling. One interval (30 min
	// nominal) dwarfs the bounded dial timeout, guaranteeing a
	// finalized window's entry set is complete — this is what lets a
	// served series reconcile exactly against the raw log.
	//
	// Finalizing seals: the window's live set is diffed, its point
	// appended, and the set dropped. Should an entry still turn up for
	// a sealed window (a crawler that buffers records for longer than
	// an interval would do it), add reports it late and the published
	// point stands; the daemon counts these in census.entries_late, so
	// a series that no longer reconciles with the raw log says so.
	if f.epochs != nil {
		f.points = f.epochs.Seal(int(now.Sub(f.start)/f.interval)-1, f.points)
		if f.maxPoints > 0 && len(f.points) > f.maxPoints {
			f.points = f.points[len(f.points)-f.maxPoints:]
		}
	}
	// Capped, so the next Seal's append cannot reach into it.
	s.Points = f.points[:len(f.points):len(f.points)]

	if len(f.fresh) > 0 {
		sort.Strings(f.fresh)
		f.ids = mergeSorted(f.ids, f.fresh)
		f.fresh = f.fresh[:0]
	}
	s.ids = f.ids

	s.nodes = make(map[string]*NodeSummary, len(nodes))
	for id, o := range nodes {
		isMainnet := analysis.IsMainnet(o)
		s.Totals.Identities++
		if o.Responsive {
			s.Totals.Responsive++
		}
		if len(o.Caps) > 0 {
			s.Totals.DEVp2p++
		}
		if o.HasStatus {
			s.Totals.WithStatus++
		}
		if isMainnet {
			s.Totals.Mainnet++
		}
		ns := &NodeSummary{
			ID:         id,
			IP:         o.IP,
			Responsive: o.Responsive,
			FirstSeen:  o.FirstSeen,
			LastSeen:   o.LastSeen,
			Client:     o.ClientName,
			Caps:       o.Caps,
			DAOFork:    o.DAOFork,
			Mainnet:    isMainnet,
			Entries:    o.EntryCount,
			LatencyMS:  float64(o.LatencyUS) / 1000,
		}
		if o.HasStatus {
			ns.NetworkID = o.NetworkID
			ns.GenesisHash = o.GenesisHash
			ns.BestBlock = o.BestBlock
		}
		if f.geo != nil {
			if rec := f.geo.Resolve(o); rec.Valid {
				ns.Country = rec.Country
				ns.AS = rec.AS
				ns.Cloud = rec.Cloud
			}
		}
		s.nodes[id] = ns
	}

	nets := analysis.Networks(nodes)

	s.cached[epSummary] = marshal(summaryPayload{
		Epoch:            epoch,
		Time:             now,
		Start:            f.start,
		IntervalSeconds:  f.interval.Seconds(),
		Totals:           s.Totals,
		EpochsFinalized:  len(s.Points),
		DistinctNetworks: nets.DistinctNetworks,
		DistinctGenesis:  nets.DistinctGenesis,
	})

	mainnet := analysis.MainnetSubset(nodes)
	s.cached[epClients] = marshal(clientsPayload{
		Epoch:    epoch,
		Clients:  toShares(analysis.ClientCensus(mainnet), maxShareRows),
		Services: toShares(analysis.ServiceCensus(nodes), maxShareRows),
		Versions: []versionPayload{
			versionRows(mainnet, "Geth"),
			versionRows(mainnet, "Parity"),
		},
	})

	gp := geoPayload{Epoch: epoch, Countries: []share{}, ASes: []share{}}
	if f.geo != nil {
		gc := f.geo.Census()
		gp.Countries = toShares(gc.Countries, maxShareRows)
		gp.ASes = toShares(gc.ASes, maxShareRows)
		gp.Top8ASShare = gc.Top8ASShare
		gp.Top8AllCloud = gc.Top8AllCloud
	}
	s.cached[epGeo] = marshal(gp)

	forks := map[string]int{}
	for _, o := range nodes {
		if !o.HasStatus {
			continue
		}
		stance := o.DAOFork
		if stance == "" {
			stance = "unchecked"
		}
		forks[stance]++
	}
	s.cached[epNetworks] = marshal(networksPayload{
		Epoch:                   epoch,
		Networks:                toShares(nets.Networks, maxShareRows),
		GenesisHashes:           toShares(nets.GenesisHashes, maxShareRows),
		DistinctNetworks:        nets.DistinctNetworks,
		DistinctGenesis:         nets.DistinctGenesis,
		SinglePeerNetworks:      nets.SinglePeerNetworks,
		MainnetGenesisImpostors: nets.MainnetGenesisImpostors,
		Forks:                   rankCounts(forks),
	})

	s.cached[epSeriesChurn] = marshal(churnPayload{
		Epoch:           epoch,
		Start:           f.start,
		IntervalSeconds: f.interval.Seconds(),
		Points:          s.Points,
	})

	arrivals := make([]arrivalPoint, len(s.Points))
	for i, pt := range s.Points {
		arrivals[i] = arrivalPoint{Epoch: pt.Epoch, Start: pt.Start, Arrived: pt.Arrived, Alive: pt.Alive}
	}
	s.cached[epSeriesArrivals] = marshal(arrivalsPayload{Epoch: epoch, Points: arrivals})

	s.cached[epIndex] = marshal(indexPayload{
		Service:   "censusd",
		Epoch:     epoch,
		Endpoints: endpointPaths,
	})

	return s
}

func versionRows(nodes map[string]*analysis.NodeObservation, client string) versionPayload {
	vc := analysis.Versions(nodes, client)
	return versionPayload{
		Client:      vc.Client,
		Total:       vc.Total,
		StableShare: vc.StableShare,
		Top:         toShares(vc.Versions, maxVersionRows),
	}
}

// marshal encodes a payload struct built entirely from local types;
// encoding cannot fail, so a failure is a programming error.
func marshal(v any) []byte {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic("census: marshal: " + err.Error())
	}
	return append(buf, '\n')
}
