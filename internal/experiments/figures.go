package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/enode"
	"repro/internal/geo"
	"repro/internal/nodefinder/mlog"
	"repro/internal/simnet"
)

// Fig2And3 reproduces the case-study message mix: TRANSACTIONS must
// dominate received traffic once synced, and Geth must send far more
// transactions than Parity.
func Fig2And3(cs *CaseStudy) *Result {
	g, p := cs.Geth, cs.Parity

	var b strings.Builder
	b.WriteString("Received message totals (Geth observer):\n")
	b.WriteString(renderMsgMap(g.MsgRecv))
	b.WriteString("Sent message totals (Geth observer):\n")
	b.WriteString(renderMsgMap(g.MsgSent))
	b.WriteString("Received message totals (Parity observer):\n")
	b.WriteString(renderMsgMap(p.MsgRecv))
	b.WriteString("Sent message totals (Parity observer):\n")
	b.WriteString(renderMsgMap(p.MsgSent))

	txDominateG := g.MsgRecv["TRANSACTIONS"] > g.MsgRecv["BLOCK_HEADERS"] &&
		g.MsgRecv["TRANSACTIONS"] > g.MsgRecv["NEW_BLOCK_HASHES"]
	gethSendsMore := g.MsgSent["TRANSACTIONS"] > 2*p.MsgSent["TRANSACTIONS"]
	pass := txDominateG && gethSendsMore
	return &Result{
		ID:         "fig2-3",
		Title:      "Figures 2-3: Case-study message mix",
		Text:       b.String(),
		PaperClaim: "TRANSACTIONS dominate network I/O after sync; Geth (broadcast-to-all) sends far more than Parity (√n relay)",
		Measured: fmt.Sprintf("Geth recv TX=%d vs HEADERS=%d; sent TX Geth=%d vs Parity=%d",
			g.MsgRecv["TRANSACTIONS"], g.MsgRecv["BLOCK_HEADERS"], g.MsgSent["TRANSACTIONS"], p.MsgSent["TRANSACTIONS"]),
		Pass: pass,
	}
}

func renderMsgMap(m map[string]uint64) string {
	var b strings.Builder
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(&b, "  %-20s %12d\n", k, m[k])
	}
	return b.String()
}

// Fig4 reproduces peer convergence: Geth→25, Parity→50 in minutes,
// high occupancy thereafter.
func Fig4(cs *CaseStudy) *Result {
	g, p := cs.Geth, cs.Parity

	var b strings.Builder
	fmt.Fprintf(&b, "Geth:   time-to-full=%v  occupancy=%.1f%%  cap=25\n", g.TimeToFull, g.OccupancyFraction*100)
	fmt.Fprintf(&b, "Parity: time-to-full=%v  occupancy=%.1f%%  cap=50\n", p.TimeToFull, p.OccupancyFraction*100)
	b.WriteString("Peer-count series (every 12h, Geth then Parity):\n  ")
	for i, s := range g.PeerSeries {
		if i%24 == 0 {
			fmt.Fprintf(&b, "%d ", s.Peers)
		}
	}
	b.WriteString("\n  ")
	for i, s := range p.PeerSeries {
		if i%24 == 0 {
			fmt.Fprintf(&b, "%d ", s.Peers)
		}
	}
	b.WriteString("\n")

	pass := g.TimeToFull < time.Hour && p.TimeToFull < time.Hour &&
		g.OccupancyFraction > 0.97 && g.OccupancyFraction < 1.0 &&
		p.OccupancyFraction > 0.85 && p.OccupancyFraction < 0.99 &&
		g.OccupancyFraction > p.OccupancyFraction // Parity dips more (91.5% vs 99.1%)
	return &Result{
		ID:         "fig4",
		Title:      "Figure 4: Peer convergence",
		Text:       b.String(),
		PaperClaim: "Default peer limits reached within minutes; at cap 99.1% (Geth) and 91.5% (Parity) of the time",
		Measured: fmt.Sprintf("full in %v/%v; occupancy %.1f%%/%.1f%%",
			g.TimeToFull, p.TimeToFull, g.OccupancyFraction*100, p.OccupancyFraction*100),
		Pass: pass,
	}
}

// Fig5 reproduces discovery and dial attempt rates.
func Fig5(run *LongRun) *Result {
	dyn, stat := analysis.DialAttemptSeries(run.Entries, run.Start, run.Days)
	// Discovery attempts per hour from the daily Finder samples.
	var perHour float64
	if len(run.DailyStats) > 0 {
		last := run.DailyStats[len(run.DailyStats)-1]
		perHour = float64(last.DiscoveryAttempts) / (float64(run.Days) * 24)
	}

	// Dial:discovery ratio stability: coefficient of variation of the
	// per-day dial counts over the stable period.
	var b strings.Builder
	fmt.Fprintf(&b, "Discovery attempts: %.0f/hour per instance (paper: ≈304, normal client ≈180)\n", perHour)
	b.WriteString(renderSeries("Dynamic dials", dyn))
	b.WriteString(renderSeries("Static dials", stat))

	pass := perHour > 180 && perHour < 900 // faster than a normal client, bounded by the 4s interval
	return &Result{
		ID:         "fig5",
		Title:      "Figure 5: Discovery and dynamic-dial attempts",
		Text:       b.String(),
		PaperClaim: "≈304 discovery attempts/hour/instance (vs 180 for a normal client, <900 4s-interval bound); dial rate proportional to discovery rate",
		Measured:   fmt.Sprintf("%.0f lookups/hour; %.0f dynamic dials/day mean", perHour, dyn.Mean()),
		Pass:       pass,
	}
}

// Fig6And7 reproduces unique nodes dialed and responding per day.
func Fig6And7(run *LongRun) *Result {
	dialed, resp := analysis.DialSeries(run.Entries, run.Start, run.Days)
	var b strings.Builder
	b.WriteString(renderSeries("Unique nodes dynamic-dialed/day", dialed))
	b.WriteString(renderSeries("Unique nodes responding/day", resp))

	// Responding fraction: the paper saw 10,919/34,730 ≈ 31%; the
	// dominant losses are offline and NAT'd addresses.
	frac := 0.0
	if dialed.Mean() > 0 {
		frac = resp.Mean() / dialed.Mean()
	}
	pass := dialed.Mean() > 0 && frac > 0.10 && frac < 0.75
	return &Result{
		ID:         "fig6-7",
		Title:      "Figures 6-7: Nodes dialed vs responding",
		Text:       b.String(),
		PaperClaim: "34,730 unique nodes dialed/day; 10,919 responding/day (≈31%); both stable across the measurement",
		Measured:   fmt.Sprintf("%.0f dialed/day, %.0f responding/day (%.0f%%)", dialed.Mean(), resp.Mean(), frac*100),
		Pass:       pass,
	}
}

// Fig8 reproduces the bootstrap-node dial accounting: ≤48 static
// dials/day (30-minute interval), a few dynamic.
func Fig8(run *LongRun) *Result {
	// Pick the node with the most static dials as the "bootstrap".
	// Many nodes tie at the 48/day ceiling; the smallest ID wins, so
	// the choice does not follow map order.
	staticCount := map[string]int{}
	for _, e := range run.Entries {
		if e.ConnType == mlog.ConnStaticDial {
			staticCount[e.NodeID]++
		}
	}
	bootID, best := "", 0
	for id, c := range staticCount {
		if c > best || c == best && id < bootID {
			bootID, best = id, c
		}
	}
	if bootID == "" {
		return &Result{ID: "fig8", Title: "Figure 8: Bootstrap dials", Text: "no static dials recorded", Pass: false}
	}
	dyn, stat := analysis.NodeDialSeries(run.Entries, bootID, run.Start, run.Days)

	var b strings.Builder
	fmt.Fprintf(&b, "Most-redialed node: %s…\n", bootID[:16])
	b.WriteString(renderSeries("Static dials to it per day", stat))
	b.WriteString(renderSeries("Dynamic dials to it per day", dyn))

	maxDay := 0.0
	for _, v := range stat.Days {
		if v > maxDay {
			maxDay = v
		}
	}
	pass := stat.Mean() > 20 && maxDay <= 48 && dyn.Mean() < stat.Mean()
	return &Result{
		ID:         "fig8",
		Title:      "Figure 8: Dials to a single known node",
		Text:       b.String(),
		PaperClaim: "≈44 static + ≈6 dynamic dials/day to the bootstrap node; static ≤48/day (30-minute re-dial interval)",
		Measured:   fmt.Sprintf("%.1f static/day (max %.0f), %.1f dynamic/day", stat.Mean(), maxDay, dyn.Mean()),
		Pass:       pass,
	}
}

// Fig9 reproduces the network/genesis diversity census.
func Fig9(run *LongRun) *Result {
	nc := analysis.Networks(run.Sanitized)
	var b strings.Builder
	fmt.Fprintf(&b, "Distinct networks: %d   Distinct genesis hashes: %d\n", nc.DistinctNetworks, nc.DistinctGenesis)
	fmt.Fprintf(&b, "Single-peer networks: %d   Mainnet-genesis impostors: %d\n", nc.SinglePeerNetworks, nc.MainnetGenesisImpostors)
	b.WriteString(renderShares("Top networks", nc.Networks, 8))

	pass := nc.DistinctNetworks > 5 &&
		nc.Networks[0].Key == "1 (Mainnet/Classic)" &&
		nc.SinglePeerNetworks > 0 &&
		nc.MainnetGenesisImpostors > 0
	return &Result{
		ID:         "fig9",
		Title:      "Figure 9: Ethereum networks and genesis hashes",
		Text:       b.String(),
		PaperClaim: "4,076 networks / 18,829 genesis hashes; network 1 dominant; 1,402 single-peer networks; 10,497 non-Mainnet peers advertising the Mainnet genesis",
		Measured: fmt.Sprintf("%d networks / %d genesis hashes; %d single-peer; %d impostors (scaled world)",
			nc.DistinctNetworks, nc.DistinctGenesis, nc.SinglePeerNetworks, nc.MainnetGenesisImpostors),
		Pass: pass,
	}
}

// Fig10 reproduces version-adoption dynamics.
func Fig10(run *LongRun) *Result {
	vs := analysis.VersionAdoption(run.Entries, "Geth", run.Start, run.Days)
	var b strings.Builder
	b.WriteString("Geth version node-counts per day (rows: versions):\n")
	for _, v := range vs.Versions {
		row := vs.Counts[v]
		// Compact: print every 7th day.
		fmt.Fprintf(&b, "  %-16s ", v)
		for d := 0; d < len(row); d += 7 {
			fmt.Fprintf(&b, "%4.0f", row[d])
		}
		b.WriteString("\n")
	}

	// Shape: a version released mid-window must rise after release
	// while its predecessor declines.
	pass := adoptionShapeHolds(vs, run.Days)

	// §6.2's stragglers metric on the last day.
	releaseNames := make([]string, len(simnet.GethReleases))
	for i, r := range simnet.GethReleases {
		releaseNames[i] = r.Version
	}
	oldShare := analysis.OlderThanShare(run.Entries, "Geth", releaseNames, "v1.8.11-stable",
		run.Start.Add(time.Duration(run.Days-1)*24*time.Hour))

	return &Result{
		ID:         "fig10",
		Title:      "Figure 10: Geth version adoption over time",
		Text:       b.String(),
		PaperClaim: "New releases ramp up as predecessors decline; 68.3% still ran versions older than 2 iterations on the last day",
		Measured:   fmt.Sprintf("adoption crossover present=%v; %.1f%% older than v1.8.11 on final day", pass, oldShare*100),
		Pass:       pass,
	}
}

// adoptionShapeHolds checks that some mid-window release grows while
// an older one shrinks.
func adoptionShapeHolds(vs *analysis.VersionSeries, days int) bool {
	if days < 14 {
		return len(vs.Versions) > 0 // too short to see dynamics
	}
	grew, shrank := false, false
	for _, v := range vs.Versions {
		row := vs.Counts[v]
		early := avg(row[:days/4])
		late := avg(row[3*days/4:])
		if late > early+1 {
			grew = true
		}
		if early > late+1 {
			shrank = true
		}
	}
	return grew && shrank
}

func avg(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Fig11 reproduces the Geth-vs-Parity distance metric disparity:
// 100K random node-ID pairs through both metrics.
func Fig11(trials int, seed int64) *Result {
	rng := rand.New(rand.NewSource(seed))
	gethHist := map[int]int{}
	parityHist := map[int]int{}
	agree := 0
	for i := 0; i < trials; i++ {
		a, b := enode.RandomID(rng).Hash(), enode.RandomID(rng).Hash()
		g, p := enode.LogDist(a, b), enode.ParityLogDist(a, b)
		gethHist[g]++
		parityHist[p]++
		if g == p {
			agree++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Trials: %d   Metric agreement: %.4f%%\n", trials, 100*float64(agree)/float64(trials))
	b.WriteString("Distance histogram (distance: geth-count parity-count):\n")
	var keys []int
	seen := map[int]bool{}
	for k := range gethHist {
		if !seen[k] {
			keys = append(keys, k)
			seen[k] = true
		}
	}
	for k := range parityHist {
		if !seen[k] {
			keys = append(keys, k)
			seen[k] = true
		}
	}
	sort.Ints(keys)
	for _, k := range keys {
		if gethHist[k] == 0 && parityHist[k] < trials/1000 {
			continue // compress the tail
		}
		fmt.Fprintf(&b, "  %3d: %7d %7d\n", k, gethHist[k], parityHist[k])
	}

	gMean, pMean := histMean(gethHist), histMean(parityHist)
	pass := gMean > 254 && pMean > 210 && pMean < 240 &&
		float64(agree)/float64(trials) < 0.05
	return &Result{
		ID:         "fig11",
		Title:      "Figure 11: Geth vs Parity XOR distance metrics",
		Text:       b.String(),
		PaperClaim: "Geth's log-distance concentrates at 256 (geometric); Parity's byte-sum metric centers near 227 — the metrics almost never agree (§6.3)",
		Measured:   fmt.Sprintf("geth mean %.1f, parity mean %.1f, agreement %.3f%%", gMean, pMean, 100*float64(agree)/float64(trials)),
		Pass:       pass,
	}
}

func histMean(h map[int]int) float64 {
	sum, n := 0, 0
	for k, c := range h {
		sum += k * c
		n += c
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// Fig12 reproduces the geographic and AS distribution of Mainnet
// nodes.
func Fig12(run *LongRun) *Result {
	mainnet := analysis.MainnetSubset(run.Sanitized)
	gc := analysis.Geography(mainnet, geo.NewDB())
	var b strings.Builder
	b.WriteString(renderShares("Countries", gc.Countries, 10))
	b.WriteString(renderShares("ASes", gc.ASes, 10))
	fmt.Fprintf(&b, "Top-8 AS share: %.1f%% (all cloud: %v)\n", gc.Top8ASShare*100, gc.Top8AllCloud)

	var us, cn float64
	for _, r := range gc.Countries {
		switch r.Key {
		case "US":
			us = r.Fraction
		case "CN":
			cn = r.Fraction
		}
	}
	pass := len(gc.Countries) > 0 && gc.Countries[0].Key == "US" &&
		us > 0.33 && us < 0.53 && cn > 0.07 && cn < 0.19 &&
		gc.Top8ASShare > 0.33
	// The all-cloud property needs a large enough sample for the
	// small cloud ASes to outrank the residential tail.
	if len(mainnet) >= 800 {
		pass = pass && gc.Top8AllCloud
	}
	return &Result{
		ID:         "fig12",
		Title:      "Figure 12: Geography and AS distribution",
		Text:       b.String(),
		PaperClaim: "US 43.2%, CN 12.9% of Mainnet nodes; top 8 ASes hold 44.8% and are all cloud providers",
		Measured:   fmt.Sprintf("US %s, CN %s; top-8 AS %.1f%% all-cloud=%v", pct(us), pct(cn), gc.Top8ASShare*100, gc.Top8AllCloud),
		Pass:       pass,
	}
}

// Fig13 reproduces the latency distribution of Mainnet peers.
func Fig13(run *LongRun) *Result {
	mainnet := analysis.MainnetSubset(run.Sanitized)
	cdf := analysis.LatencyCDF(mainnet)
	var b strings.Builder
	fmt.Fprintf(&b, "Samples: %d\n", cdf.Len())
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		fmt.Fprintf(&b, "  p%-4.0f %8.1f ms\n", q*100, cdf.P(q))
	}
	median := cdf.P(0.5)
	pass := cdf.Len() > 0 && median > 20 && median < 400 &&
		cdf.P(0.9) > median // heavy right tail
	return &Result{
		ID:         "fig13",
		Title:      "Figure 13: Peer latency CDF",
		Text:       b.String(),
		PaperClaim: "Latency distribution comparable to other P2P systems: most peers within a few hundred ms of the US vantage, long tail for remote/overloaded peers",
		Measured:   fmt.Sprintf("median %.0f ms, p90 %.0f ms over %d peers", median, cdf.P(0.9), cdf.Len()),
		Pass:       pass,
	}
}

// Fig14 reproduces node freshness.
func Fig14(run *LongRun) *Result {
	mainnet := analysis.MainnetSubset(run.Sanitized)
	fr := analysis.Freshness(mainnet, run.World.Mainnet.HeadAt)
	var b strings.Builder
	fmt.Fprintf(&b, "Stale fraction (> %d blocks behind): %.1f%%\n", analysis.StaleThresholdBlocks, fr.StaleFraction*100)
	fmt.Fprintf(&b, "Nodes stuck at block 4,370,001 (Byzantium+1): %d\n", fr.StuckAtByzantium)
	b.WriteString("Lag CDF (blocks behind head):\n")
	for _, q := range []float64{0.25, 0.5, 0.667, 0.75, 0.9} {
		fmt.Fprintf(&b, "  p%-5.1f %12.0f\n", q*100, fr.LagCDF.P(q))
	}

	pass := fr.StaleFraction > 0.20 && fr.StaleFraction < 0.50
	// The Byzantium-stuck cluster is ~2% of Mainnet; only require it
	// when the sample is big enough to expect one.
	if len(mainnet) >= 400 {
		pass = pass && fr.StuckAtByzantium > 0
	}
	return &Result{
		ID:         "fig14",
		Title:      "Figure 14: Node freshness",
		Text:       b.String(),
		PaperClaim: "32.7% of Mainnet nodes stale; 141 nodes stuck at block 4,370,001 (first post-Byzantium block)",
		Measured:   fmt.Sprintf("%.1f%% stale; %d stuck at Byzantium+1", fr.StaleFraction*100, fr.StuckAtByzantium),
		Pass:       pass,
	}
}
