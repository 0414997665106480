// Package census turns the NodeFinder measurement log into a served
// longitudinal census: a daemon slices the log into fixed epochs on a
// simclock tick, builds an immutable Snapshot of the ecosystem
// censuses (§6) plus the epoch churn series, and an HTTP layer serves
// the snapshot without ever blocking the daemon.
//
// The serving design is read-mostly and allocation-bounded: the census
// and series bodies are marshaled once at publish time and stored
// inside the Snapshot, snapshots swap atomically, and handlers write
// the pre-built bytes under header values also built at publish.
// Readers never take a lock. ?last=N splices encoded series elements
// into a marshaled head, /v1/nodes/{id} is appended without reflection,
// and only /metrics marshals per request.
//
// A publish costs what changed since the last one: the daemon keeps one
// immutable record per identity, rebuilds only those the new entries
// name, keeps every census as counts that a rebuilt record adjusts, and
// encodes a series point once, when its window is sealed.
package census

import (
	"encoding/json"
	"slices"
	"strconv"
	"strings"
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

type share = analysis.Share

// top is the first max rows of a ranking.
func top(rows []share, max int) []share { return rows[:min(len(rows), max)] }

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
// of concurrent readers without synchronization. That includes what
// snapshots share with each other and with the fold: a record is built
// once per change to its identity and never written again.
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

	// ids is every known node ID, sorted; seqs[i] is the ordinal
	// (analysis.NodeObservation.Seq) of ids[i], and recs is indexed by
	// ordinal. Consecutive snapshots share ids and seqs until an identity
	// arrives, and every record of an identity the log did not mention in
	// between.
	ids    []string
	seqs   []int
	recs   []*record
	cached [numEndpoints][]byte
	// churnHead and arrivalsHead are the two series bodies with no
	// points; churn and arrivals are the points' encoded elements, capped
	// views of the fold's. ?last=N splices the newest N into the head.
	churnHead, arrivalsHead []byte
	churn, arrivals         [][]byte
	etag                    string
	// etagHdr, epochHdr and lengthHdr[ep] are the header values of a
	// response from this snapshot, built once at publish and assigned
	// into each response's header map. Each has len == cap, so a later
	// Header().Add copies it instead of writing into what every response
	// shares.
	etagHdr, epochHdr []string
	lengthHdr         [numEndpoints][]string
}

// ETag returns the strong entity tag shared by every cached payload
// of this snapshot.
func (s *Snapshot) ETag() string { return s.etag }

// Node returns the summary for a node ID, or nil.
func (s *Snapshot) Node(id string) *NodeSummary {
	i, ok := slices.BinarySearch(s.ids, id)
	if !ok {
		return nil
	}
	return &s.recs[s.seqs[i]].NodeSummary
}

// appendLast appends to buf the body of a series endpoint
// (epSeriesChurn or epSeriesArrivals) cut to its newest last points: the
// encoded elements spliced into the series head, as the full body was
// at publish.
func (s *Snapshot) appendLast(buf []byte, ep, last int) []byte {
	head, elems := s.churnHead, s.churn
	if ep == epSeriesArrivals {
		head, elems = s.arrivalsHead, s.arrivals
	}
	if last < len(elems) {
		elems = elems[len(elems)-last:]
	}
	return appendSplice(buf, head, elems)
}

// setHeaders builds the header values of s's responses from its epoch
// and cached bodies, in one string and one backing array.
func (s *Snapshot) setHeaders() {
	var ends [2 + numEndpoints]int
	b := make([]byte, 0, 256)
	b = strconv.AppendUint(append(b, `"census-`...), s.Epoch, 10)
	b = append(b, '"')
	ends[0] = len(b)
	b = strconv.AppendUint(b, s.Epoch, 10)
	ends[1] = len(b)
	for ep, body := range s.cached {
		b = strconv.AppendInt(b, int64(len(body)), 10)
		ends[2+ep] = len(b)
	}
	str := string(b)
	vals := make([]string, len(ends))
	start := 0
	for i, end := range ends {
		vals[i], start = str[start:end], end
	}
	s.etag = vals[0]
	s.etagHdr, s.epochHdr = vals[0:1:1], vals[1:2:2]
	for ep := range s.lengthHdr {
		s.lengthHdr[ep] = vals[2+ep : 3+ep : 3+ep]
	}
}

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

// record is everything the census keeps of one identity as of its last
// log entry: the summary /v1/nodes/{id} serves (whose IP is also the
// address Country, AS and Cloud were resolved for) and what the identity
// counts for in the censuses. Records are immutable and shared between
// the fold and every snapshot since they were built.
type record struct {
	NodeSummary
	counts contribution
}

// contribution is one identity's part in every census: the
// populations it is counted in and its bucket in each distribution. Two
// records with equal contributions are interchangeable as far as the
// tallies go.
type contribution struct {
	// responsive, devp2p (a HELLO: service is its bucket), status
	// (network, genesis and fork are) and mainnet are the totals.
	// hasClient and versionOf > 0 hold for verified Mainnet nodes only:
	// client is the implementation's bucket, version the bucket in the
	// census of versionClients[versionOf-1].
	responsive, devp2p, status, mainnet, hasClient, impostor bool
	versionOf                                                int8
	service, client, version, network, genesis, fork         string
	// geo is where the address resolves, while geography is on.
	geo analysis.GeoRecord
}

// versionClients are the clients whose version census is served.
var versionClients = [...]string{"Geth", "Parity"}

// tally is a counted multiset of bucket keys. A bucket that returns to
// zero is deleted, so len is the number of distinct keys.
type tally map[string]int

func (t tally) add(key string, d int) {
	if n := t[key] + d; n != 0 {
		t[key] = n
	} else {
		delete(t, key)
	}
}

// tallies are the §6 censuses as running counts over the records.
type tallies struct {
	totals    Totals
	impostors int
	versions  [len(versionClients)]tally

	services, clients, networks, genesis, forks, countries, ases, cloudASes tally
}

func count(n *int, in bool, d int) {
	if in {
		*n += d
	}
}

// apply asserts (d = 1) or retracts (d = -1) one contribution.
func (t *tallies) apply(c *contribution, d int) {
	t.totals.Identities += d
	count(&t.totals.Responsive, c.responsive, d)
	count(&t.totals.DEVp2p, c.devp2p, d)
	count(&t.totals.WithStatus, c.status, d)
	count(&t.totals.Mainnet, c.mainnet, d)
	count(&t.impostors, c.impostor, d)
	if c.devp2p {
		t.services.add(c.service, d)
	}
	if c.hasClient {
		t.clients.add(c.client, d)
	}
	if c.versionOf > 0 {
		t.versions[c.versionOf-1].add(c.version, d)
	}
	if c.status {
		t.networks.add(c.network, d)
		t.genesis.add(c.genesis, d)
		t.forks.add(c.fork, d)
	}
	if c.geo.Valid {
		t.countries.add(c.geo.Country, d)
		t.ases.add(c.geo.AS, d)
		if c.geo.Cloud {
			t.cloudASes.add(c.geo.AS, d)
		}
	}
}

// fold is the census's write-side state: the node table, the churn
// series and the censuses, each advanced one log entry at a time. The
// daemon keeps one fold for its lifetime and feeds it only the entries
// recorded since the last tick; BuildSnapshot feeds a fresh one the
// whole log. Either way a snapshot is fold.snapshot, so what is served
// is a function of the entry sequence alone.
type fold struct {
	start     time.Time
	interval  time.Duration
	maxPoints int
	nodes     *analysis.Aggregator
	epochs    *analysis.EpochFold
	geo       *geo.DB // nil disables geography
	// points is the sealed series so far, and churn and arrivals each
	// point's element of the two series bodies, encoded when it was
	// sealed. Published snapshots share points' backing array, so it is
	// only ever appended to or resliced.
	points          []analysis.EpochPoint
	churn, arrivals [][]byte
	// ids, seqs and recs are the last snapshot's (see Snapshot), which
	// shares them: they are replaced, never edited. tally counts recs.
	ids   []string
	seqs  []int
	recs  []*record
	tally tallies
}

func newFold(start time.Time, interval time.Duration, db *geo.DB, maxPoints int) *fold {
	f := &fold{
		start:     start,
		interval:  interval,
		maxPoints: maxPoints,
		nodes:     analysis.NewAggregator(),
		geo:       db,
		tally: tallies{services: tally{}, clients: tally{}, networks: tally{}, genesis: tally{},
			forks: tally{}, countries: tally{}, ases: tally{}, cloudASes: tally{}},
	}
	for i := range f.tally.versions {
		f.tally.versions[i] = tally{}
	}
	if interval > 0 {
		f.epochs = analysis.NewEpochFold(start, interval)
	}
	return f
}

// add folds one entry in. It reports false for a late entry: one whose
// window is already sealed. A late entry still updates the node table
// (totals, censuses, /v1/nodes/{id}), but the series point it belongs
// to has been published and is not rewritten.
func (f *fold) add(e *mlog.Entry) bool {
	id := 0 // an entry without a node ID has no number; EpochFold ignores it
	if o := f.nodes.Add(e); o != nil {
		id = o.Seq
	}
	return f.epochs == nil || f.epochs.Add(e, id)
}

// BuildSnapshot folds the whole log from scratch and snapshots the
// result: every identity's contribution is asserted once and none is
// retracted.
func BuildSnapshot(p BuildParams) *Snapshot {
	f := newFold(p.Start, p.Interval, p.Geo, p.MaxPoints)
	for _, e := range p.Entries {
		f.add(e)
	}
	s, _, _ := f.snapshot(p.Epoch, p.Now)
	return s
}

// seal closes the windows that are final at now.
//
// Finalized windows lag the build time by one interval: entries carry
// the dial's start time but land in the log at dial end, so the newest
// window may still be filling. One interval (30 min nominal) dwarfs the
// bounded dial timeout, guaranteeing a finalized window's entry set is
// complete — this is what lets a served series reconcile exactly
// against the raw log.
//
// Finalizing seals: the window's live set is diffed, its point appended
// and encoded, and the set dropped. Should an entry still turn up for a
// sealed window (a crawler that buffers records for longer than an
// interval would do it), add reports it late and the published point
// stands; the daemon counts these in census.entries_late, so a series
// that no longer reconciles with the raw log says so.
func (f *fold) seal(now time.Time) {
	if f.epochs == nil {
		return
	}
	sealed := len(f.points)
	f.points = f.epochs.Seal(int(now.Sub(f.start)/f.interval)-1, f.points)
	for _, pt := range f.points[sealed:] {
		f.churn = append(f.churn, encode(pt, elementPrefix))
		f.arrivals = append(f.arrivals, encode(arrivalPoint{Epoch: pt.Epoch, Start: pt.Start, Arrived: pt.Arrived, Alive: pt.Alive}, elementPrefix))
	}
	if drop := len(f.points) - f.maxPoints; f.maxPoints > 0 && drop > 0 {
		f.points, f.churn, f.arrivals = f.points[drop:], f.churn[drop:], f.arrivals[drop:]
	}
}

// admit gives the identities first seen since the last snapshot their
// places in the sorted ID index.
func (f *fold) admit(fresh []*analysis.NodeObservation) {
	slices.SortFunc(fresh, func(a, b *analysis.NodeObservation) int { return strings.Compare(a.ID, b.ID) })
	ids := make([]string, 0, len(f.ids)+len(fresh))
	seqs := make([]int, 0, cap(ids))
	old := 0
	for _, o := range fresh {
		for ; old < len(f.ids) && f.ids[old] < o.ID; old++ {
			ids, seqs = append(ids, f.ids[old]), append(seqs, f.seqs[old])
		}
		ids, seqs = append(ids, o.ID), append(seqs, o.Seq)
	}
	f.ids, f.seqs = append(ids, f.ids[old:]...), append(seqs, f.seqs[old:]...)
}

// rebuild brings recs and the tallies up to date with the node table:
// one new record per identity the log mentioned since the last
// snapshot, and, where the new record counts differently from the one
// it replaces, the old contribution retracted and the new one asserted.
// It reports how many records it built and how many of them moved a
// tally.
func (f *fold) rebuild() (touched, moved int) {
	obs := f.nodes.Touched()
	if len(obs) == 0 {
		return 0, 0
	}
	// The last snapshot reads f.recs: patch a copy, with room for the
	// identities that are new.
	recs := make([]*record, len(f.nodes.Nodes()))
	known := copy(recs, f.recs)
	f.recs = recs
	var fresh []*analysis.NodeObservation
	for _, o := range obs {
		old := f.recs[o.Seq]
		if o.Seq >= known {
			fresh = append(fresh, o)
		}
		r := f.record(o, old)
		f.recs[o.Seq] = r
		switch {
		case old == nil:
			f.tally.apply(&r.counts, 1)
		case old.counts != r.counts:
			f.tally.apply(&old.counts, -1)
			f.tally.apply(&r.counts, 1)
		default:
			continue
		}
		moved++
	}
	if len(fresh) > 0 {
		f.admit(fresh)
	}
	return len(obs), moved
}

// record builds o's record; old is the one it replaces, or nil.
func (f *fold) record(o *analysis.NodeObservation, old *record) *record {
	r := &record{NodeSummary: NodeSummary{
		ID:         o.ID,
		IP:         o.IP,
		Responsive: o.Responsive,
		FirstSeen:  o.FirstSeen,
		LastSeen:   o.LastSeen,
		Client:     o.ClientName,
		Caps:       o.Caps,
		DAOFork:    o.DAOFork,
		Mainnet:    analysis.IsMainnet(o),
		Entries:    o.EntryCount,
		LatencyMS:  float64(o.LatencyUS) / 1000,
	}}
	c := &r.counts
	c.responsive, c.status, c.mainnet = o.Responsive, o.HasStatus, r.Mainnet
	c.service, c.devp2p = analysis.ServiceKey(o)
	if c.mainnet {
		c.client, c.hasClient = analysis.ClientKey(o)
		for i, client := range versionClients {
			if v, ok := analysis.VersionKey(o, client); ok {
				c.version, c.versionOf = v, int8(i+1)
			}
		}
	}
	if o.HasStatus {
		r.NetworkID, r.GenesisHash, r.BestBlock = o.NetworkID, o.GenesisHash, o.BestBlock
		c.network, c.genesis, c.impostor = analysis.NetworkKey(o.NetworkID), o.GenesisHash, analysis.IsImpostor(o)
		if c.fork = o.DAOFork; c.fork == "" {
			c.fork = "unchecked"
		}
	}
	if f.geo != nil {
		if old != nil && old.IP == o.IP {
			c.geo = old.counts.geo
		} else {
			c.geo = analysis.ResolveGeo(f.geo, o.IP)
		}
		if c.geo.Valid {
			r.Country, r.AS, r.Cloud = c.geo.Country, c.geo.AS, c.geo.Cloud
		}
	}
	return r
}

// snapshot seals the windows that are final at now, rebuilds the
// records of the identities the log mentioned since the last snapshot,
// and marshals every endpoint payload eagerly, so serving is a byte
// copy: the censuses ranked from the tallies, the series assembled from
// the points' encoded elements. Nothing the returned Snapshot references
// is written again by later adds. touched and moved are rebuild's.
func (f *fold) snapshot(epoch uint64, now time.Time) (s *Snapshot, touched, moved int) {
	f.seal(now)
	touched, moved = f.rebuild()
	t := &f.tally
	s = &Snapshot{
		Epoch:    epoch,
		Time:     now,
		Start:    f.start,
		Interval: f.interval,
		Totals:   t.totals,
		// Capped, so the next seal's append cannot reach into it.
		Points: f.points[:len(f.points):len(f.points)],
		ids:    f.ids,
		seqs:   f.seqs,
		recs:   f.recs,
		// Capped like Points.
		churn:    f.churn[:len(f.churn):len(f.churn)],
		arrivals: f.arrivals[:len(f.arrivals):len(f.arrivals)],
	}

	nets := analysis.NetworkCensusOf(t.networks, t.genesis, t.impostors)
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

	cp := clientsPayload{
		Epoch:    epoch,
		Clients:  top(analysis.Rank(t.clients), maxShareRows),
		Services: top(analysis.Rank(t.services), maxShareRows),
	}
	for i, client := range versionClients {
		vc := analysis.VersionCensusOf(client, t.versions[i])
		cp.Versions = append(cp.Versions, versionPayload{
			Client:      client,
			Total:       vc.Total,
			StableShare: vc.StableShare,
			Top:         top(vc.Versions, maxVersionRows),
		})
	}
	s.cached[epClients] = marshal(cp)

	gp := geoPayload{Epoch: epoch, Countries: []share{}, ASes: []share{}}
	if f.geo != nil {
		gc := analysis.GeoCensusOf(t.countries, t.ases, t.cloudASes)
		gp.Countries = top(gc.Countries, maxShareRows)
		gp.ASes = top(gc.ASes, maxShareRows)
		gp.Top8ASShare = gc.Top8ASShare
		gp.Top8AllCloud = gc.Top8AllCloud
	}
	s.cached[epGeo] = marshal(gp)

	s.cached[epNetworks] = marshal(networksPayload{
		Epoch:                   epoch,
		Networks:                top(nets.Networks, maxShareRows),
		GenesisHashes:           top(nets.GenesisHashes, maxShareRows),
		DistinctNetworks:        nets.DistinctNetworks,
		DistinctGenesis:         nets.DistinctGenesis,
		SinglePeerNetworks:      nets.SinglePeerNetworks,
		MainnetGenesisImpostors: nets.MainnetGenesisImpostors,
		Forks:                   analysis.Rank(t.forks),
	})

	// A series body is its head, marshaled with no points, and the
	// points' elements spliced in. nil[:0] is nil: with nothing sealed
	// the churn series still says null.
	s.churnHead = marshal(churnPayload{
		Epoch:           epoch,
		Start:           f.start,
		IntervalSeconds: f.interval.Seconds(),
		Points:          s.Points[:0],
	})
	s.arrivalsHead = marshal(arrivalsPayload{Epoch: epoch, Points: []arrivalPoint{}})
	s.cached[epSeriesChurn] = appendSplice(nil, s.churnHead, s.churn)
	s.cached[epSeriesArrivals] = appendSplice(nil, s.arrivalsHead, s.arrivals)

	s.cached[epIndex] = marshal(indexPayload{
		Service:   "censusd",
		Epoch:     epoch,
		Endpoints: endpointPaths,
	})
	s.setHeaders()

	return s, touched, moved
}

// marshal encodes a payload struct built entirely from local types.
func marshal(v any) []byte { return append(encode(v, ""), '\n') }

// elementPrefix is the indent of an element of a body's top-level array.
const elementPrefix = "    "

// encode is json.MarshalIndent at the given prefix: "" for a whole
// body, elementPrefix for an array element (less its first line's
// indent). Encoding local types cannot fail, so a
// failure is a programming error.
func encode(v any, prefix string) []byte {
	buf, err := json.MarshalIndent(v, prefix, "  ")
	if err != nil {
		panic("census: marshal: " + err.Error())
	}
	return buf
}

// appendSplice appends to buf body, a marshaled payload whose last field
// is an empty array, with elems as that array's elements.
func appendSplice(buf, body []byte, elems [][]byte) []byte {
	if len(elems) == 0 {
		return append(buf, body...)
	}
	const empty, first, next, end = "[]\n}\n", "[\n" + elementPrefix, ",\n" + elementPrefix, "\n  ]\n}\n"
	size := len(body) - len(empty) + len(elems)*len(next) + len(end)
	for _, e := range elems {
		size += len(e)
	}
	out := append(slices.Grow(buf, size), body[:len(body)-len(empty)]...)
	for i, e := range elems {
		if i == 0 {
			out = append(out, first...)
		} else {
			out = append(out, next...)
		}
		out = append(out, e...)
	}
	return append(out, end...)
}
