// Command nodefinder runs the measurement crawler.
//
// Two modes:
//
//	nodefinder -sim [-nodes N] [-days D] [-seed S] [-log out.jsonl]
//	    Crawl a simulated DEVp2p world on a virtual clock (the
//	    default; an 82-day measurement completes in seconds).
//
//	nodefinder -real -bootnodes enode://...,enode://... [-duration 30s]
//	    Crawl a real network over UDP/TCP sockets using the full
//	    discv4 + RLPx + DEVp2p + eth stack, announcing Mainnet's
//	    genesis. Bootnodes are static nodes, dialed at start and
//	    every 10 s after; point it at any devp2p-compatible listener
//	    (examples/quickstart crawls loopback-served simnet nodes).
//
// Both modes write the measurement log as JSON lines and print the
// final metrics and a summary census on exit. With -metrics-interval,
// both also dump a live crawl-health snapshot (dial outcomes, error
// taxonomy, table gauges, latency histograms) to stderr on that
// cadence — virtual time in sim mode.
//
// Sim mode cross-checks the telemetry against the measurement log:
// it exits non-zero unless the finder.conns counters sum to the
// number of log records exactly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/cli"
	"repro/internal/crypto/secp256k1"
	"repro/internal/devp2p"
	"repro/internal/discv4"
	"repro/internal/enode"
	"repro/internal/eth"
	"repro/internal/metrics"
	"repro/internal/nodefinder"
	"repro/internal/nodefinder/mlog"
	"repro/internal/rlpx"
	"repro/internal/simnet"

	cryptorand "crypto/rand"
)

func main() { cli.Main(run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("nodefinder", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		simMode   = fs.Bool("sim", true, "crawl a simulated world (default)")
		realMode  = fs.Bool("real", false, "crawl a real network over sockets")
		nodes     = fs.Int("nodes", 1200, "sim: world population")
		days      = fs.Int("days", 7, "sim: virtual days to crawl")
		seed      = fs.Int64("seed", 1, "sim: seed")
		bootnodes = fs.String("bootnodes", "", "real: comma-separated enode URLs")
		duration  = fs.Duration("duration", 30*time.Second, "real: wall-clock crawl duration")
		logPath   = fs.String("log", "", "write measurement log (JSONL) to this path")
		metricsIv = fs.Duration("metrics-interval", 0, "dump a metrics snapshot to stderr this often (virtual time in sim mode; 0 disables)")
		metricsFm = fs.String("metrics-format", "text", "periodic snapshot format: text or json")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *realMode {
		*simMode = false
	}

	col := mlog.NewCollector()
	sinks := mlog.Tee{col}
	if *logPath != "" {
		f, err := os.Create(*logPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w := mlog.NewWriter(f)
		defer w.Flush()
		sinks = append(sinks, w)
	}

	reg := metrics.New()
	dump := snapshotDumper(reg, *metricsFm, stderr)

	var st nodefinder.Stats
	var err error
	if *simMode {
		st, err = runSim(*nodes, *days, *seed, sinks, reg, *metricsIv, dump, stderr)
	} else {
		st, err = runReal(*bootnodes, *duration, sinks, reg, *metricsIv, dump, stderr)
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "crawl complete: %d discovery rounds, %d dynamic dials, %d static dials, %d incoming, %d successful\n",
		st.DiscoveryAttempts, st.DynamicDials, st.StaticDials, st.IncomingConns, st.SuccessfulConns)
	fmt.Fprintln(stdout, "\nfinal metrics:")
	reg.WriteTo(stdout) //nolint:errcheck

	entries := col.Entries()
	if *simMode {
		// Each recorded connection must have incremented finder.conns
		// exactly once: the live telemetry and the log describe the
		// same events.
		conns := reg.Snapshot().CounterSum("finder.conns")
		if conns != uint64(len(entries)) {
			return fmt.Errorf("finder.conns total %d != %d mlog records", conns, len(entries))
		}
		fmt.Fprintf(stdout, "\nreconciled: finder.conns total %d == %d mlog connection records\n", conns, len(entries))
	}

	obs := analysis.Aggregate(entries)
	san := analysis.Sanitize(obs)
	fmt.Fprintf(stdout, "identities: %d observed, %d removed as abusive (%d IPs), %d kept\n",
		len(obs), len(san.AbusiveNodes), len(san.AbusiveIPs), len(san.Kept))
	fmt.Fprintln(stdout, "\nDEVp2p services:")
	for _, r := range analysis.ServiceCensus(san.Kept) {
		fmt.Fprintf(stdout, "  %-20s %6d  %5.2f%%\n", r.Key, r.Count, r.Fraction*100)
	}
	fmt.Fprintln(stdout, "\nClients (verified Mainnet subset):")
	for _, r := range analysis.ClientCensus(analysis.MainnetSubset(san.Kept)) {
		fmt.Fprintf(stdout, "  %-20s %6d  %5.2f%%\n", r.Key, r.Count, r.Fraction*100)
	}
	return nil
}

// snapshotDumper returns a function that writes one metrics snapshot
// (stamped with the crawl clock's current time) to stderr. JSON
// format emits exactly one JSON object per line, so the stream can
// be consumed as JSONL.
func snapshotDumper(reg *metrics.Registry, format string, stderr io.Writer) func(now time.Time) {
	return func(now time.Time) {
		if format == "json" {
			line, err := json.Marshal(struct {
				Time     time.Time         `json:"time"`
				Snapshot *metrics.Snapshot `json:"snapshot"`
			}{now, reg.Snapshot()})
			if err == nil {
				fmt.Fprintf(stderr, "%s\n", line)
			}
			return
		}
		fmt.Fprintf(stderr, "--- metrics @ %s ---\n", now.Format(time.RFC3339))
		reg.WriteTo(stderr) //nolint:errcheck
	}
}

func runSim(nodes, days int, seed int64, sink mlog.Sink, reg *metrics.Registry, metricsIv time.Duration, dump func(time.Time), stderr io.Writer) (nodefinder.Stats, error) {
	cfg := simnet.DefaultConfig(seed)
	cfg.BaseNodes = nodes
	w := simnet.NewWorld(cfg)
	dialer := w.NewDialer(seed + 2)
	dialer.Metrics = nodefinder.NewDialerMetrics(reg)
	f, err := nodefinder.New(nodefinder.Config{
		Clock:     w.Clock,
		Discovery: w.NewDiscovery(seed + 1),
		Dialer:    dialer,
		Log:       sink,
		Metrics:   reg,
		Seed:      seed + 3,
	})
	if err != nil {
		return nodefinder.Stats{}, err
	}
	gen := w.StartIncoming(f, 20*time.Second, seed+4)
	// The dumps run on the virtual clock, so an 82-day run prints its
	// periodic snapshots in seconds of wall time.
	if metricsIv > 0 {
		var tick func()
		tick = func() {
			dump(w.Clock.Now())
			w.Clock.AfterFunc(metricsIv, tick)
		}
		w.Clock.AfterFunc(metricsIv, tick)
	}
	f.Start()
	for d := 0; d < days; d++ {
		w.Clock.Advance(24 * time.Hour)
		fmt.Fprintf(stderr, "day %d/%d: %d identities known\n", d+1, days, f.Stats().KnownNodes)
	}
	f.Stop()
	gen.Stop()
	return f.Stats(), nil
}

func runReal(bootURLs string, duration time.Duration, sink mlog.Sink, reg *metrics.Registry, metricsIv time.Duration, dump func(time.Time), stderr io.Writer) (nodefinder.Stats, error) {
	if bootURLs == "" {
		return nodefinder.Stats{}, fmt.Errorf("real mode requires -bootnodes")
	}
	var boots []*enode.Node
	for _, u := range strings.Split(bootURLs, ",") {
		n, err := enode.ParseURL(strings.TrimSpace(u))
		if err != nil {
			return nodefinder.Stats{}, fmt.Errorf("bootnode %q: %w", u, err)
		}
		boots = append(boots, n)
	}

	key, err := secp256k1.GenerateKey(cryptorand.Reader)
	if err != nil {
		return nodefinder.Stats{}, err
	}
	udp, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4zero})
	if err != nil {
		return nodefinder.Stats{}, err
	}
	hello := devp2p.Hello{
		Version:    devp2p.Version,
		Name:       "NodeFinder/v1.0 (research scanner; see DESIGN.md)",
		Caps:       []devp2p.Cap{{Name: "eth", Version: 62}, {Name: "eth", Version: 63}},
		ListenPort: 30303,
	}
	status := eth.MainnetStatus()

	// The incoming listener and discovery share a port number so
	// peers can dial back; the Finder is attached below, before any
	// peer can have learned the address.
	listener, err := nodefinder.ListenIncoming("", key, hello, status, nil)
	if err != nil {
		return nodefinder.Stats{}, err
	}
	defer listener.Close()
	port := uint16(listener.Addr().Port)
	hello.ListenPort = uint64(port)

	rlpx.EnableMetrics(reg)
	disc, err := discv4.Listen(discv4.UDPConn{UDPConn: udp}, discv4.Config{
		Key:         key,
		AnnounceTCP: port,
		Bootnodes:   boots,
		Metrics:     reg,
	})
	if err != nil {
		return nodefinder.Stats{}, err
	}
	defer disc.Close()

	f, err := nodefinder.New(nodefinder.Config{
		Discovery: nodefinder.RealDiscovery{T: disc},
		Dialer: &nodefinder.RealDialer{
			Key:      key,
			Hello:    hello,
			Status:   status,
			CheckDAO: true,
			Metrics:  nodefinder.NewDialerMetrics(reg),
		},
		Log:            sink,
		Metrics:        reg,
		LookupInterval: time.Second,
		StaticInterval: 10 * time.Second,
	})
	if err != nil {
		return nodefinder.Stats{}, err
	}
	listener.Finder = f
	for _, b := range boots {
		if err := disc.Ping(b); err != nil {
			fmt.Fprintf(stderr, "warning: bootstrap ping %s: %v\n", b.ID.TerminalString(), err)
		}
		f.AddStatic(b)
	}
	f.Start()
	// The dumps run on this goroutine, on wall time, and end with the
	// crawl.
	var ticks <-chan time.Time
	if metricsIv > 0 {
		ticker := time.NewTicker(metricsIv)
		defer ticker.Stop()
		ticks = ticker.C
	}
	for end := time.After(duration); ; {
		select {
		case now := <-ticks:
			dump(now)
		case <-end:
			f.Stop()
			return f.Stats(), nil
		}
	}
}
