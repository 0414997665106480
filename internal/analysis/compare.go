package analysis

import (
	"net"
	"sort"
	"time"

	"repro/internal/chain"
	"repro/internal/geo"
)

// Historical P2P network sizes the paper compares against (Table 6).
// These are quoted constants, exactly as the paper quotes them.
var (
	PaperEthereumNodeFinder = 15454 // 04/23/2018, this work
	PaperEthereumEthernodes = 4717  // 04/23/2018, ethernodes.org
	PaperEthereumGencer     = 4302  // Gencer et al.
	PaperBitcoinBitnodes    = 10454 // 04/23/2018, bitnodes.earn.com
	PaperGnutellaSNAP       = 62586 // 08/31/2002, SNAP dataset
)

// SizeRow is one Table 6 row.
type SizeRow struct {
	Network string
	Date    string
	Size    int
}

// NetworkSizeTable assembles Table 6 around a measured NodeFinder
// count, keeping the literature constants for context.
func NetworkSizeTable(nodeFinderCount, ethernodesCount int) []SizeRow {
	return []SizeRow{
		{"Ethereum (NodeFinder)", "04/23/2018", nodeFinderCount},
		{"Ethereum (Ethernodes)", "04/23/2018", ethernodesCount},
		{"Ethereum (Gencer et al., paper constant)", "-", PaperEthereumGencer},
		{"Bitcoin (Bitnodes, paper constant)", "04/23/2018", PaperBitcoinBitnodes},
		{"Gnutella (SNAP, paper constant)", "08/31/2002", PaperGnutellaSNAP},
	}
}

// UniqueInWindow counts node identities observed in [from, to).
func UniqueInWindow(nodes map[string]*NodeObservation, from, to time.Time) int {
	n := 0
	for _, o := range nodes {
		if o.LastSeen.Before(from) || !o.FirstSeen.Before(to) {
			continue
		}
		n++
	}
	return n
}

// GeoCensus is Figure 12.
type GeoCensus struct {
	Countries []Share
	ASes      []Share
	// Top8ASShare is the cumulative share of the eight largest ASes
	// (paper: 44.8%, all cloud).
	Top8ASShare float64
	// Top8AllCloud reports whether those eight are all cloud
	// providers.
	Top8AllCloud bool
}

// GeoRecord is where one identity's address resolves.
type GeoRecord struct {
	// IP is the address that was resolved; Valid is false when it does
	// not parse, and the record then places the identity nowhere.
	IP      string
	Valid   bool
	Country string
	AS      string
	Cloud   bool
}

// GeoIndex is the geography census as a fold: each identity's address
// is resolved through the geo database once and again only when it
// changes, because a resolution hashes the address and a census
// re-reads every identity on every publish.
type GeoIndex struct {
	db   *geo.DB
	recs map[*NodeObservation]GeoRecord
}

// NewGeoIndex returns an empty index over db.
func NewGeoIndex(db *geo.DB) *GeoIndex {
	return &GeoIndex{db: db, recs: make(map[*NodeObservation]GeoRecord)}
}

// Resolve returns the record for o's current address, resolving it if
// the identity is new to the index or its address has changed.
func (g *GeoIndex) Resolve(o *NodeObservation) GeoRecord {
	rec, ok := g.recs[o]
	if ok && rec.IP == o.IP {
		return rec
	}
	rec = GeoRecord{IP: o.IP}
	if addr := net.ParseIP(o.IP); addr != nil {
		as := g.db.ASOf(addr)
		rec.Valid = true
		rec.Country = string(g.db.Country(addr))
		rec.AS = as.Name
		rec.Cloud = as.Cloud
	}
	g.recs[o] = rec
	return rec
}

// Census computes Figure 12 over every identity resolved so far.
func (g *GeoIndex) Census() *GeoCensus {
	countries := map[string]int{}
	ases := map[string]int{}
	cloudByAS := map[string]bool{}
	for _, rec := range g.recs {
		if !rec.Valid {
			continue
		}
		countries[rec.Country]++
		ases[rec.AS]++
		cloudByAS[rec.AS] = rec.Cloud
	}
	gc := &GeoCensus{Countries: rank(countries), ASes: rank(ases)}
	gc.Top8AllCloud = true
	top := gc.ASes
	// "OTHER" aggregates the long tail; skip it when ranking real
	// ASes.
	real := make([]Share, 0, len(top))
	for _, s := range top {
		if s.Key != "OTHER" {
			real = append(real, s)
		}
	}
	for i, s := range real {
		if i >= 8 {
			break
		}
		gc.Top8ASShare += s.Fraction
		if !cloudByAS[s.Key] {
			gc.Top8AllCloud = false
		}
	}
	return gc
}

// Geography resolves node IPs through the geo database: a GeoIndex
// built from scratch over nodes.
func Geography(nodes map[string]*NodeObservation, db *geo.DB) *GeoCensus {
	g := NewGeoIndex(db)
	for _, o := range nodes {
		g.Resolve(o)
	}
	return g.Census()
}

// CDF is an empirical distribution.
type CDF struct {
	// Values are sorted ascending.
	Values []float64
}

// NewCDF builds a CDF from samples.
func NewCDF(samples []float64) *CDF {
	vs := append([]float64(nil), samples...)
	sort.Float64s(vs)
	return &CDF{Values: vs}
}

// P returns the value at quantile q in [0,1].
func (c *CDF) P(q float64) float64 {
	if len(c.Values) == 0 {
		return 0
	}
	i := int(q * float64(len(c.Values)))
	if i >= len(c.Values) {
		i = len(c.Values) - 1
	}
	if i < 0 {
		i = 0
	}
	return c.Values[i]
}

// FracBelow returns the fraction of samples ≤ x.
func (c *CDF) FracBelow(x float64) float64 {
	if len(c.Values) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.Values, x)
	// Include equal values.
	for i < len(c.Values) && c.Values[i] <= x {
		i++
	}
	return float64(i) / float64(len(c.Values))
}

// Len returns the sample count.
func (c *CDF) Len() int { return len(c.Values) }

// LatencyCDF builds Figure 13's distribution (milliseconds) from
// observations that carried an RTT estimate.
func LatencyCDF(nodes map[string]*NodeObservation) *CDF {
	var samples []float64
	for _, o := range nodes {
		if o.LatencyUS > 0 {
			samples = append(samples, float64(o.LatencyUS)/1000)
		}
	}
	return NewCDF(samples)
}

// FreshnessResult is Figure 14.
type FreshnessResult struct {
	// LagCDF is the distribution of head-minus-best block lags.
	LagCDF *CDF
	// StaleFraction is the share of nodes more than staleThreshold
	// blocks behind (paper: 32.7%).
	StaleFraction float64
	// StuckAtByzantium counts nodes exactly at block 4,370,001
	// (paper: 141).
	StuckAtByzantium int
}

// StaleThresholdBlocks is the lag beyond which a node cannot have
// validated or propagated recent transactions (≈25 minutes of
// blocks).
const StaleThresholdBlocks = 100

// Freshness computes Figure 14. headAt must return the chain head at
// a given time; each node's lag is judged against the head when its
// STATUS was recorded.
func Freshness(nodes map[string]*NodeObservation, headAt func(time.Time) uint64) *FreshnessResult {
	var lags []float64
	stale := 0
	stuck := 0
	total := 0
	for _, o := range nodes {
		if !o.HasStatus || o.BestBlock == 0 {
			continue
		}
		total++
		head := headAt(o.LastStatusTime)
		var lag uint64
		if o.BestBlock < head {
			lag = head - o.BestBlock
		}
		lags = append(lags, float64(lag))
		if lag > StaleThresholdBlocks {
			stale++
		}
		if o.BestBlock == chain.ByzantiumForkBlock+1 {
			stuck++
		}
	}
	fr := &FreshnessResult{LagCDF: NewCDF(lags), StuckAtByzantium: stuck}
	if total > 0 {
		fr.StaleFraction = float64(stale) / float64(total)
	}
	return fr
}

// Intersection computes Table 2's 2x2 set comparison.
type Intersection struct {
	ENTotal    int // Ethernodes genesis-filtered count
	NFTotal    int // NodeFinder verified Mainnet count
	Overlap    int // in both
	ENOnly     int // Ethernodes-only (NodeFinder missed)
	NFOnly     int // NodeFinder-only (Ethernodes missed)
	ENCoverage float64
}

// Intersect compares ID sets.
func Intersect(en, nf []string) *Intersection {
	enSet := map[string]bool{}
	for _, id := range en {
		enSet[id] = true
	}
	nfSet := map[string]bool{}
	for _, id := range nf {
		nfSet[id] = true
	}
	res := &Intersection{ENTotal: len(enSet), NFTotal: len(nfSet)}
	for id := range enSet {
		if nfSet[id] {
			res.Overlap++
		} else {
			res.ENOnly++
		}
	}
	res.NFOnly = res.NFTotal - res.Overlap
	if res.ENTotal > 0 {
		res.ENCoverage = float64(res.Overlap) / float64(res.ENTotal)
	}
	return res
}

// DailySeries buckets per-day counts for the Figure 5-8 time series.
type DailySeries struct {
	Start time.Time
	// Days[i] is the value for day i.
	Days []float64
}

// Mean returns the series average.
func (s *DailySeries) Mean() float64 {
	if len(s.Days) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Days {
		sum += v
	}
	return sum / float64(len(s.Days))
}
