// Command analyze re-runs the paper's analyses over a saved
// NodeFinder measurement log (the JSONL emitted by cmd/nodefinder's
// -log flag).
//
//	analyze crawl.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"sort"

	"repro/internal/analysis"
	"repro/internal/cli"
	"repro/internal/geo"
	"repro/internal/nodefinder/mlog"
)

func main() { cli.Main(run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: analyze [flags] <log.jsonl>")
		fs.PrintDefaults()
	}
	skipSanitize := fs.Bool("raw", false, "skip the §5.4 abusive-IP sanitization")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return &cli.ExitError{Status: 2}
	}

	entries, err := mlog.ReadFile(fs.Arg(0))
	if err != nil && len(entries) == 0 {
		return err
	}
	if err != nil {
		// A crashed crawl leaves a truncated final line; the records
		// before it are still a valid (partial) measurement.
		fmt.Fprintln(stderr, "warning: log damaged, analyzing partial records:", err)
	}
	fmt.Fprintf(stdout, "%d log entries\n", len(entries))

	nodes := analysis.Aggregate(entries)
	fmt.Fprintf(stdout, "%d distinct node identities\n", len(nodes))

	if !*skipSanitize {
		san := analysis.Sanitize(nodes)
		fmt.Fprintf(stdout, "§5.4 sanitization: removed %d identities at %d abusive IPs\n",
			len(san.AbusiveNodes), len(san.AbusiveIPs))
		ips := make([]string, 0, len(san.AbusiveIPs))
		for ip := range san.AbusiveIPs {
			ips = append(ips, ip)
		}
		sort.Strings(ips)
		for _, ip := range ips {
			fmt.Fprintf(stdout, "  %-18s %6d identities\n", ip, len(san.AbusiveIPs[ip]))
		}
		nodes = san.Kept
	}

	fmt.Fprintln(stdout, "\n=== DEVp2p services (Table 3) ===")
	for _, r := range analysis.ServiceCensus(nodes) {
		fmt.Fprintf(stdout, "  %-18s %6d  %6.2f%%\n", r.Key, r.Count, r.Fraction*100)
	}

	nc := analysis.Networks(nodes)
	fmt.Fprintln(stdout, "\n=== Networks (Figure 9) ===")
	fmt.Fprintf(stdout, "  %d networks, %d genesis hashes, %d single-peer networks, %d Mainnet-genesis impostors\n",
		nc.DistinctNetworks, nc.DistinctGenesis, nc.SinglePeerNetworks, nc.MainnetGenesisImpostors)
	for i, r := range nc.Networks {
		if i >= 8 {
			break
		}
		fmt.Fprintf(stdout, "  %-24s %6d  %6.2f%%\n", r.Key, r.Count, r.Fraction*100)
	}

	mainnet := analysis.MainnetSubset(nodes)
	fmt.Fprintf(stdout, "\n=== Verified Mainnet: %d nodes ===\n", len(mainnet))
	fmt.Fprintln(stdout, "clients (Table 4):")
	for _, r := range analysis.ClientCensus(mainnet) {
		fmt.Fprintf(stdout, "  %-18s %6d  %6.2f%%\n", r.Key, r.Count, r.Fraction*100)
	}
	for _, client := range []string{"Geth", "Parity"} {
		vc := analysis.Versions(mainnet, client)
		if vc.Total == 0 {
			continue
		}
		fmt.Fprintf(stdout, "%s versions (Table 5): %d nodes, %.1f%% stable\n", client, vc.Total, vc.StableShare*100)
	}

	gc := analysis.Geography(mainnet, geo.NewDB())
	fmt.Fprintln(stdout, "\n=== Geography (Figure 12, synthetic geo DB) ===")
	for i, r := range gc.Countries {
		if i >= 6 {
			break
		}
		fmt.Fprintf(stdout, "  %-8s %6d  %6.2f%%\n", r.Key, r.Count, r.Fraction*100)
	}
	fmt.Fprintf(stdout, "  top-8 AS share %.1f%% (all cloud: %v)\n", gc.Top8ASShare*100, gc.Top8AllCloud)

	lat := analysis.LatencyCDF(mainnet)
	if lat.Len() > 0 {
		fmt.Fprintln(stdout, "\n=== Latency (Figure 13) ===")
		fmt.Fprintf(stdout, "  median %.1f ms, p90 %.1f ms, p99 %.1f ms (%d samples)\n",
			lat.P(0.5), lat.P(0.9), lat.P(0.99), lat.Len())
	}
	return nil
}
