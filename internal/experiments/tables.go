package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/devp2p"
	"repro/internal/nodefinder/mlog"
	"repro/internal/simnet"
)

// CaseStudy is the §3 observer pair, a default Geth and a default
// Parity client, that Table 1 and Figures 2-4 read.
type CaseStudy struct {
	Geth, Parity *simnet.CaseStudyResult
}

// RunCaseStudy observes both clients for their default 7 days: the
// message-mix shape needs the initial sync to finish.
func RunCaseStudy(seed int64) *CaseStudy {
	return &CaseStudy{
		Geth:   simnet.RunCaseStudy(simnet.DefaultGethObserver(seed)),
		Parity: simnet.RunCaseStudy(simnet.DefaultParityObserver(seed)),
	}
}

// Table1 reproduces the §3 disconnect-reason table from the case
// study observer models.
func Table1(cs *CaseStudy) *Result {
	g, p := cs.Geth, cs.Parity

	var b strings.Builder
	b.WriteString("Disconnect Msg                         recv Geth    recv Parity    sent Geth    sent Parity\n")
	reasons := []devp2p.DisconnectReason{
		devp2p.DiscTooManyPeers, devp2p.DiscSubprotocolError, devp2p.DiscRequested,
		devp2p.DiscUselessPeer, devp2p.DiscAlreadyConnected, devp2p.DiscReadTimeout, devp2p.DiscQuitting,
	}
	totGR, totPR := totalDisc(g.DiscRecv), totalDisc(p.DiscRecv)
	totGS, totPS := totalDisc(g.DiscSent), totalDisc(p.DiscSent)
	for _, r := range reasons {
		fmt.Fprintf(&b, "%-36s %9d (%5.2f%%) %9d (%5.2f%%) %10d (%5.2f%%) %10d (%5.2f%%)\n",
			r.String(),
			g.DiscRecv[r], fracOf(g.DiscRecv[r], totGR),
			p.DiscRecv[r], fracOf(p.DiscRecv[r], totPR),
			g.DiscSent[r], fracOf(g.DiscSent[r], totGS),
			p.DiscSent[r], fracOf(p.DiscSent[r], totPS))
	}
	fmt.Fprintf(&b, "%-36s %9d           %9d           %10d           %10d\n", "Total", totGR, totPR, totGS, totPS)

	gTooManySent := fracOf(g.DiscSent[devp2p.DiscTooManyPeers], totGS)
	pTooManyRecv := fracOf(p.DiscRecv[devp2p.DiscTooManyPeers], totPR)
	pass := gTooManySent > 90 && // paper: 99.59%
		pTooManyRecv > 70 && // paper: 95.19%
		p.DiscSent[devp2p.DiscSubprotocolError] == 0 && // paper: Parity never sends it
		g.DiscSent[devp2p.DiscSubprotocolError] > 0 &&
		p.DiscSent[devp2p.DiscUselessPeer] > g.DiscSent[devp2p.DiscUselessPeer] // paper: 9.98% vs 0.09%

	return &Result{
		ID:    "table1",
		Title: "Table 1: Disconnect Reasons (case study)",
		Text:  b.String(),
		PaperClaim: "Too many peers dominates: 72.55%/95.19% of received, 99.59%/88.58% of sent " +
			"(Geth/Parity); Parity sends zero Subprotocol errors but many Useless peer (9.98%)",
		Measured: fmt.Sprintf("Too many peers: %.1f%%/%.1f%% recv, %.1f%%/%.1f%% sent; Parity subproto sent=%d, useless=%d",
			fracOf(g.DiscRecv[devp2p.DiscTooManyPeers], totGR), pTooManyRecv,
			gTooManySent, fracOf(p.DiscSent[devp2p.DiscTooManyPeers], totPS),
			p.DiscSent[devp2p.DiscSubprotocolError], p.DiscSent[devp2p.DiscUselessPeer]),
		Pass: pass,
	}
}

func totalDisc(m map[devp2p.DisconnectReason]uint64) uint64 {
	var t uint64
	for _, v := range m {
		t += v
	}
	return t
}

func fracOf(n, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

// Table2 reproduces the NodeFinder/Ethernodes intersection. It runs a
// 24-hour crawl snapshot against a world and compares with the
// in-world Ethernodes model.
func Table2(run *LongRun) *Result {
	from := run.Start
	to := from.Add(24 * time.Hour)

	// NodeFinder's verified Mainnet set from the first 24 hours.
	var nf []string
	for id, o := range run.Sanitized {
		if analysis.IsMainnet(o) && o.FirstSeen.Before(to) {
			nf = append(nf, id)
		}
	}
	// Ethernodes' genesis-filtered list, restricted to genuine
	// Mainnet identities (the paper's "actually operated on the
	// Mainnet blockchain" subset of the page).
	snap := run.World.Ethernodes(simnet.DefaultEthernodesConfig(77), from)
	var en []string
	listedTotal := len(snap.GenesisFiltered)
	lightListed := 0
	for _, id := range snap.GenesisFiltered {
		n := run.World.NodeByID(id)
		if n == nil || n.Abusive || n.Network != run.World.Mainnet {
			continue
		}
		if n.Service == simnet.SvcLES || n.Service == simnet.SvcPIP {
			// Light-protocol nodes: genuinely on Mainnet and listed
			// by Ethernodes, but NodeFinder cannot STATUS-verify
			// them — the paper's §5.3 explanation for most of the
			// nodes EN had and NF lacked. They stay in EN's genuine
			// set, guaranteeing an EN-only remainder.
			lightListed++
		}
		en = append(en, id.String())
	}

	ix := analysis.Intersect(en, nf)
	reach, unreach := reachabilitySplit(run, nf)

	var b strings.Builder
	fmt.Fprintf(&b, "Ethernodes listed (network-1 page):    %6d\n", listedTotal)
	fmt.Fprintf(&b, "  of which light-protocol (les/pip):   %6d  (unverifiable by NodeFinder, §5.3)\n", lightListed)
	fmt.Fprintf(&b, "Ethernodes genuine Mainnet (EN):       %6d\n", ix.ENTotal)
	fmt.Fprintf(&b, "NodeFinder verified Mainnet (NF):      %6d\n", ix.NFTotal)
	fmt.Fprintf(&b, "Overlap (EN∩NF):                       %6d (%.1f%% of EN)\n", ix.Overlap, ix.ENCoverage*100)
	fmt.Fprintf(&b, "EN-only (missed by NF):                %6d\n", ix.ENOnly)
	fmt.Fprintf(&b, "NF-only (missed by EN):                %6d\n", ix.NFOnly)
	fmt.Fprintf(&b, "NF reachable (NFR):                    %6d\n", reach)
	fmt.Fprintf(&b, "NF unreachable (NFU):                  %6d\n", unreach)

	ratio := 0.0
	if ix.ENTotal > 0 {
		ratio = float64(ix.NFTotal) / float64(ix.ENTotal)
	}
	pass := ix.NFTotal > ix.ENTotal && // NodeFinder finds more
		ix.ENCoverage > 0.6 && // covers most of EN (paper 81.8%)
		unreach > 0 // NF sees NAT'd nodes via incoming

	return &Result{
		ID:    "table2",
		Title: "Table 2: NodeFinder vs Ethernodes intersection (24h snapshot)",
		Text:  b.String(),
		PaperClaim: "NF=16,831 vs EN=4,717 genuine Mainnet (3.6x); overlap covers 81.8% of EN; " +
			"NFU=10,880 unreachable nodes seen only via incoming connections",
		Measured: fmt.Sprintf("NF=%d vs EN=%d (%.1fx); overlap %.1f%% of EN; NFU=%d",
			ix.NFTotal, ix.ENTotal, ratio, ix.ENCoverage*100, unreach),
		Pass: pass,
	}
}

func reachabilitySplit(run *LongRun, ids []string) (reachable, unreachable int) {
	for _, id := range ids {
		o := run.Sanitized[id]
		if o == nil {
			continue
		}
		// A node is reachable from NF's perspective if any outbound
		// dial ever produced its HELLO.
		r := false
		for _, e := range o.Entries {
			if e.Hello != nil && e.ConnType != mlog.ConnIncoming {
				r = true
				break
			}
		}
		if r {
			reachable++
		} else {
			unreachable++
		}
	}
	return reachable, unreachable
}

// Table3 reproduces the DEVp2p services census.
func Table3(run *LongRun) *Result {
	rows := analysis.ServiceCensus(run.Sanitized)
	ethShare := 0.0
	for _, r := range rows {
		if r.Key == "eth" {
			ethShare = r.Fraction
		}
	}
	pass := len(rows) > 3 && rows[0].Key == "eth" && ethShare > 0.88 && ethShare < 0.98
	return &Result{
		ID:         "table3",
		Title:      "Table 3: DEVp2p services",
		Text:       renderShares("Service (protocol)", rows, 12),
		PaperClaim: "eth is 93.98% of DEVp2p; tail of bzz (1.85%), les (1.24%), exp, istanbul, shh, dbix, pip, mc, ele, 30 others",
		Measured:   fmt.Sprintf("eth %s across %d services", pct(ethShare), len(rows)),
		Pass:       pass,
	}
}

// Table4 reproduces the Mainnet client census.
func Table4(run *LongRun) *Result {
	mainnet := analysis.MainnetSubset(run.Sanitized)
	rows := analysis.ClientCensus(mainnet)
	var geth, parity float64
	for _, r := range rows {
		switch r.Key {
		case "Geth":
			geth = r.Fraction
		case "Parity":
			parity = r.Fraction
		}
	}
	pass := len(rows) >= 3 && rows[0].Key == "Geth" &&
		geth > 0.68 && geth < 0.85 && parity > 0.10 && parity < 0.25
	return &Result{
		ID:         "table4",
		Title:      "Table 4: Mainnet clients",
		Text:       renderShares("Client", rows, 10),
		PaperClaim: "Geth 76.6%, Parity 17.0%, 31 others 6.4% (ethereumjs third at 5.2%)",
		Measured:   fmt.Sprintf("Geth %s, Parity %s over %d Mainnet nodes", pct(geth), pct(parity), len(mainnet)),
		Pass:       pass,
	}
}

// Table5 reproduces the version-stability census.
func Table5(run *LongRun) *Result {
	mainnet := analysis.MainnetSubset(run.Sanitized)
	geth := analysis.Versions(mainnet, "Geth")
	parity := analysis.Versions(mainnet, "Parity")

	var b strings.Builder
	fmt.Fprintf(&b, "Geth:   %d nodes, %.1f%% stable\n", geth.Total, geth.StableShare*100)
	b.WriteString(renderShares("  top Geth versions", geth.Versions, 10))
	fmt.Fprintf(&b, "Parity: %d nodes, %.1f%% stable\n", parity.Total, parity.StableShare*100)
	b.WriteString(renderShares("  top Parity versions", parity.Versions, 10))

	pass := geth.StableShare > 0.7 && // paper: 81.9%
		parity.StableShare < geth.StableShare && // Parity's mixed channels
		parity.StableShare > 0.3 && parity.StableShare < 0.75 // paper: 56.2%
	return &Result{
		ID:         "table5",
		Title:      "Table 5: Client versions (stable vs unstable)",
		Text:       b.String(),
		PaperClaim: "Geth 81.9% stable; Parity 56.2% stable; Parity's distribution sparser (weekly mixed-channel releases)",
		Measured:   fmt.Sprintf("Geth %s stable (%d versions); Parity %s stable (%d versions)", pct(geth.StableShare), len(geth.Versions), pct(parity.StableShare), len(parity.Versions)),
		Pass:       pass,
	}
}

// Table6 reproduces the network size comparison.
func Table6(run *LongRun) *Result {
	from := run.Start
	to := from.Add(24 * time.Hour)
	mainnet := analysis.MainnetSubset(run.Sanitized)
	nfCount := analysis.UniqueInWindow(mainnet, from, to)

	snap := run.World.Ethernodes(simnet.DefaultEthernodesConfig(77), from)
	enCount := 0
	for _, id := range snap.GenesisFiltered {
		n := run.World.NodeByID(id)
		if n != nil && !n.Abusive && n.Network == run.World.Mainnet {
			enCount++
		}
	}

	rows := analysis.NetworkSizeTable(nfCount, enCount)
	var b strings.Builder
	b.WriteString("Network                                      Date         Size\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-44s %-10s %7d\n", r.Network, r.Date, r.Size)
	}
	fmt.Fprintf(&b, "\n(Scaled world: paper-constant rows retain the paper's absolute values;\n")
	fmt.Fprintf(&b, " the NodeFinder/Ethernodes ratio is the comparable quantity: %.2fx)\n", ratioOf(nfCount, enCount))

	pass := nfCount > enCount && ratioOf(nfCount, enCount) > 1.5
	return &Result{
		ID:         "table6",
		Title:      "Table 6: P2P network size",
		Text:       b.String(),
		PaperClaim: "NodeFinder sees 15,454 vs Ethernodes 4,717 (≈2.3-3.3x more); Bitcoin 10,454; Gnutella (2002) 62,586",
		Measured:   fmt.Sprintf("NodeFinder %d vs Ethernodes %d (%.2fx) in the scaled world", nfCount, enCount, ratioOf(nfCount, enCount)),
		Pass:       pass,
	}
}

func ratioOf(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
