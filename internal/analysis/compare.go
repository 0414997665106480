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

// GeoRecord is where one address resolves.
type GeoRecord struct {
	// Valid is false when the address does not parse; the record then
	// places its identity nowhere.
	Valid   bool
	Country string
	AS      string
	Cloud   bool
}

// ResolveGeo resolves one address through db. A resolution hashes the
// address twice, so the census daemon keeps each identity's record
// until its address changes.
func ResolveGeo(db *geo.DB, ip string) GeoRecord {
	addr := net.ParseIP(ip)
	if addr == nil {
		return GeoRecord{}
	}
	as := db.ASOf(addr)
	return GeoRecord{Valid: true, Country: string(db.Country(addr)), AS: as.Name, Cloud: as.Cloud}
}

// Geography resolves node IPs through the geo database.
func Geography(nodes map[string]*NodeObservation, db *geo.DB) *GeoCensus {
	countries := map[string]int{}
	ases := map[string]int{}
	cloudASes := map[string]int{}
	for _, o := range nodes {
		if rec := ResolveGeo(db, o.IP); rec.Valid {
			countries[rec.Country]++
			ases[rec.AS]++
			if rec.Cloud {
				cloudASes[rec.AS]++
			}
		}
	}
	return GeoCensusOf(countries, ases, cloudASes)
}

// GeoCensusOf finishes Figure 12 from its counts; cloudASes counts, by
// AS, the identities in ASes that are cloud providers.
func GeoCensusOf(countries, ases, cloudASes map[string]int) *GeoCensus {
	gc := &GeoCensus{Countries: Rank(countries), ASes: Rank(ases), Top8AllCloud: true}
	// "OTHER" aggregates the long tail; skip it when ranking real ASes.
	top := 0
	for _, s := range gc.ASes {
		if s.Key == "OTHER" {
			continue
		}
		if top++; top > 8 {
			break
		}
		gc.Top8ASShare += s.Fraction
		if cloudASes[s.Key] == 0 {
			gc.Top8AllCloud = false
		}
	}
	return gc
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
