// Quickstart: crawl a small world end-to-end over real sockets.
//
// This example builds a small simulated DEVp2p world whose nodes own
// real secp256k1 identities, serves each online node on its own
// loopback TCP port (real RLPx/DEVp2p/eth per connection, and the
// world's own peer limits, client names, networks and DAO stances),
// seeds those addresses into a NodeFinder as static nodes, crawls them
// for a few seconds with the socket-default RealDialer and prints the
// census — the paper's dial, from TCP connect to the DAO header check,
// at desk scale.
//
//	go run ./examples/quickstart
package main

import (
	"crypto/rand"
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/analysis"
	"repro/internal/chain"
	"repro/internal/cli"
	"repro/internal/crypto/secp256k1"
	"repro/internal/devp2p"
	"repro/internal/enode"
	"repro/internal/eth"
	"repro/internal/nodefinder"
	"repro/internal/nodefinder/mlog"
	"repro/internal/simnet"
)

const (
	worldNodes = 60
	// Static nodes are dialed at start and re-dialed every
	// staticInterval, so a crawl of crawlFor dials each served node
	// four or five times.
	staticInterval = 500 * time.Millisecond
	crawlFor       = 2 * time.Second
)

func main() { cli.Main(run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("quickstart", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	cfg := simnet.DefaultConfig(1)
	cfg.BaseNodes = worldNodes
	cfg.AbusiveIPs = 0
	cfg.UnreachableFraction = 0
	cfg.WireFidelity = true
	w := simnet.NewWorld(cfg)
	defer w.CloseWire()
	now := w.Clock.Now()
	fmt.Fprintf(stdout, "simulated Mainnet genesis %s, head block %d\n",
		w.Mainnet.GenesisHash.Short(), w.Mainnet.HeadAt(now))

	key, err := secp256k1.GenerateKey(rand.Reader)
	if err != nil {
		return err
	}
	col := mlog.NewCollector()
	finder, err := nodefinder.New(nodefinder.Config{
		Discovery: staticsOnly{enode.PubkeyID(&key.Pub)},
		Dialer: &nodefinder.RealDialer{
			Key: key,
			Hello: devp2p.Hello{
				Version: devp2p.Version, Name: "NodeFinder/quickstart",
				Caps:       []devp2p.Cap{{Name: "eth", Version: 62}, {Name: "eth", Version: 63}},
				ListenPort: 30303,
			},
			Status:   eth.MainnetStatus(),
			CheckDAO: true,
		},
		Log:            col,
		StaticInterval: staticInterval,
	})
	if err != nil {
		return err
	}

	// Every served node has a free peer slot: at the 91-99 % occupancy
	// §3 measured (and the world draws), a crawl of a few seconds
	// would see little but Too-many-peers. nodefinder -sim keeps them.
	served := 0
	for _, n := range w.Nodes {
		if !n.OnlineAt(now) {
			continue
		}
		n.Occupancy = 0
		self, err := w.ServeLoopback(n)
		if err != nil {
			return err
		}
		finder.AddStatic(self)
		served++
	}
	fmt.Fprintf(stdout, "serving %d online nodes of %d on loopback TCP\n", served, len(w.Nodes))

	finder.Start()
	fmt.Fprintf(stdout, "crawling for %v over real sockets...\n", crawlFor)
	time.Sleep(crawlFor)
	finder.Stop()

	st := finder.Stats()
	fmt.Fprintf(stdout, "\n%d lookups, %d dynamic dials, %d static dials, %d successful handshakes\n",
		st.DiscoveryAttempts, st.DynamicDials, st.StaticDials, st.SuccessfulConns)

	nodes := analysis.Aggregate(col.Entries())
	fmt.Fprintf(stdout, "census: %d distinct identities\n\n", len(nodes))
	fmt.Fprintln(stdout, "clients seen:")
	for _, r := range analysis.ClientCensus(nodes) {
		fmt.Fprintf(stdout, "  %-12s %3d\n", r.Key, r.Count)
	}
	fmt.Fprintln(stdout, "services seen:")
	for _, r := range analysis.ServiceCensus(nodes) {
		fmt.Fprintf(stdout, "  %-12s %3d\n", r.Key, r.Count)
	}
	daoSupporters := 0
	for _, o := range nodes {
		if analysis.IsMainnetLike(o, chain.MainnetGenesisHash.Hex()) {
			daoSupporters++
		}
	}
	fmt.Fprintf(stdout, "verified Mainnet (pro-DAO) nodes: %d\n", daoSupporters)
	return nil
}

// staticsOnly is the crawl's discovery: every node it dials is seeded
// as a static, so a lookup finds nothing.
type staticsOnly struct{ self enode.ID }

func (d staticsOnly) Self() enode.ID { return d.self }

func (d staticsOnly) Lookup(_ enode.ID, done func([]*enode.Node)) { done(nil) }
