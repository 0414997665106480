// Command simworld builds a simulated DEVp2p world and prints its
// composition: the ground truth NodeFinder is later measured against.
//
// Usage:
//
//	simworld [-nodes N] [-seed S] [-advance DURATION] [-hostile-fraction F]
//
// To crawl the world, run `nodefinder -sim` at the same -nodes and
// -seed.
package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/analysis"
	"repro/internal/cli"
	"repro/internal/simnet"
)

func main() { cli.Main(run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("simworld", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		nodes     = fs.Int("nodes", 1500, "base population size")
		seed      = fs.Int64("seed", 1, "world seed")
		advance   = fs.Duration("advance", 24*time.Hour, "virtual time to advance (abusive minting happens over time)")
		hostileFr = fs.Float64("hostile-fraction", 0, "share of the population running faultnet hostile peer behaviors")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	cfg := simnet.DefaultConfig(*seed)
	cfg.BaseNodes = *nodes
	cfg.HostileFraction = *hostileFr
	w := simnet.NewWorld(cfg)
	w.Clock.Advance(*advance)
	now := w.Clock.Now()

	services := map[string]int{}
	clients := map[string]int{}
	networks := map[string]int{}
	reachable, online, abusive, mainnet, hostile := 0, 0, 0, 0, 0
	for _, n := range w.Nodes {
		if n.Hostile {
			hostile++
		}
		services[string(n.Service)]++
		if n.Service == simnet.SvcEth {
			clients[string(n.Client)]++
			if n.Network != nil {
				networks[n.Network.Name]++
			}
			if n.Network == w.Mainnet && !n.Abusive {
				mainnet++
			}
		}
		if n.Reachable {
			reachable++
		}
		if n.OnlineAt(now) {
			online++
		}
		if n.Abusive {
			abusive++
		}
	}

	fmt.Fprintf(stdout, "World seed=%d at %s (+%s virtual)\n", *seed, now.Format(time.RFC3339), *advance)
	fmt.Fprintf(stdout, "Identities: %d total, %d online now, %d reachable, %d abusive, %d hostile, %d genuine Mainnet\n",
		len(w.Nodes), online, reachable, abusive, hostile, mainnet)
	fmt.Fprintf(stdout, "Mainnet head: block %d\n\n", w.Mainnet.HeadAt(now))

	fmt.Fprintln(stdout, "Services:")
	printCounts(stdout, services)
	fmt.Fprintln(stdout, "\neth clients:")
	printCounts(stdout, clients)
	fmt.Fprintln(stdout, "\neth networks:")
	printCounts(stdout, networks)

	fmt.Fprintf(stdout, "\nAbusive generator IPs: %d\n", len(w.AbusiveAddrs))
	for _, ip := range w.AbusiveAddrs {
		fmt.Fprintf(stdout, "  %s\n", ip)
	}
	return nil
}

func printCounts(w io.Writer, m map[string]int) {
	for _, r := range analysis.Rank(m) {
		fmt.Fprintf(w, "  %-24s %6d  %5.2f%%\n", r.Key, r.Count, 100*r.Fraction)
	}
}
