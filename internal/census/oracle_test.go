package census

import (
	"sort"

	"repro/internal/analysis"
)

// Oracle is a census computed the slow way, the way fold.snapshot used
// to compute every one: aggregate the whole log, then one pass over
// the node table per census (analysis.Networks, MainnetSubset,
// ClientCensus, ServiceCensus, Versions twice, the fork loop,
// Geography), a fresh NodeSummary per identity, the series by
// analysis.EpochSeries and every body marshaled whole. It shares no
// state with the fold — no records, no tallies, no encoded points — so
// it is what the incremental publish is held to, publish by publish.
type Oracle struct {
	Totals   Totals
	Points   []analysis.EpochPoint
	IDs      []string
	Nodes    map[string]*NodeSummary
	Payloads [numEndpoints][]byte
}

// NumEndpoints is the number of cached payloads a Snapshot carries, and
// EpNetworks the index of the /v1/networks body among them.
const (
	NumEndpoints = numEndpoints
	EpNetworks   = epNetworks
)

// OracleSnapshot computes the census of p.Entries from scratch.
func OracleSnapshot(p BuildParams) *Oracle {
	agg := analysis.NewAggregator()
	for _, e := range p.Entries {
		agg.Add(e)
	}
	nodes := agg.Nodes()
	s := &Oracle{Nodes: make(map[string]*NodeSummary, len(nodes))}

	if p.Interval > 0 {
		s.Points = analysis.EpochSeries(p.Entries, p.Start, p.Interval, int(p.Now.Sub(p.Start)/p.Interval)-1)
		if p.MaxPoints > 0 && len(s.Points) > p.MaxPoints {
			s.Points = s.Points[len(s.Points)-p.MaxPoints:]
		}
	}

	for id, o := range nodes {
		s.IDs = append(s.IDs, id)
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
		if p.Geo != nil {
			if rec := analysis.ResolveGeo(p.Geo, o.IP); rec.Valid {
				ns.Country = rec.Country
				ns.AS = rec.AS
				ns.Cloud = rec.Cloud
			}
		}
		s.Nodes[id] = ns
	}
	sort.Strings(s.IDs)

	nets := analysis.Networks(nodes)
	s.Payloads[epSummary] = marshal(summaryPayload{
		Epoch:            p.Epoch,
		Time:             p.Now,
		Start:            p.Start,
		IntervalSeconds:  p.Interval.Seconds(),
		Totals:           s.Totals,
		EpochsFinalized:  len(s.Points),
		DistinctNetworks: nets.DistinctNetworks,
		DistinctGenesis:  nets.DistinctGenesis,
	})

	mainnet := analysis.MainnetSubset(nodes)
	versionRows := func(client string) versionPayload {
		vc := analysis.Versions(mainnet, client)
		return versionPayload{Client: vc.Client, Total: vc.Total, StableShare: vc.StableShare, Top: top(vc.Versions, maxVersionRows)}
	}
	s.Payloads[epClients] = marshal(clientsPayload{
		Epoch:    p.Epoch,
		Clients:  top(analysis.ClientCensus(mainnet), maxShareRows),
		Services: top(analysis.ServiceCensus(nodes), maxShareRows),
		Versions: []versionPayload{versionRows("Geth"), versionRows("Parity")},
	})

	gp := geoPayload{Epoch: p.Epoch, Countries: []share{}, ASes: []share{}}
	if p.Geo != nil {
		gc := analysis.Geography(nodes, p.Geo)
		gp.Countries = top(gc.Countries, maxShareRows)
		gp.ASes = top(gc.ASes, maxShareRows)
		gp.Top8ASShare = gc.Top8ASShare
		gp.Top8AllCloud = gc.Top8AllCloud
	}
	s.Payloads[epGeo] = marshal(gp)

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
	s.Payloads[epNetworks] = marshal(networksPayload{
		Epoch:                   p.Epoch,
		Networks:                top(nets.Networks, maxShareRows),
		GenesisHashes:           top(nets.GenesisHashes, maxShareRows),
		DistinctNetworks:        nets.DistinctNetworks,
		DistinctGenesis:         nets.DistinctGenesis,
		SinglePeerNetworks:      nets.SinglePeerNetworks,
		MainnetGenesisImpostors: nets.MainnetGenesisImpostors,
		Forks:                   analysis.Rank(forks),
	})

	s.Payloads[epSeriesChurn] = marshal(churnPayload{
		Epoch:           p.Epoch,
		Start:           p.Start,
		IntervalSeconds: p.Interval.Seconds(),
		Points:          s.Points,
	})
	arrivals := make([]arrivalPoint, len(s.Points))
	for i, pt := range s.Points {
		arrivals[i] = arrivalPoint{Epoch: pt.Epoch, Start: pt.Start, Arrived: pt.Arrived, Alive: pt.Alive}
	}
	s.Payloads[epSeriesArrivals] = marshal(arrivalsPayload{Epoch: p.Epoch, Points: arrivals})

	s.Payloads[epIndex] = marshal(indexPayload{Service: "censusd", Epoch: p.Epoch, Endpoints: endpointPaths})
	return s
}
