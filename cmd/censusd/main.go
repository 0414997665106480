// Command censusd is census-as-a-service: it crawls a deterministic
// simulated Ethereum world with the NodeFinder pipeline, feeds the
// measurement log into a census.Daemon that publishes a snapshot
// every virtual interval, and serves the longitudinal census over
// HTTP. The virtual clock is paced against wall time, so a laptop
// session watches days of virtual churn in minutes.
//
//	censusd [-addr :8424] [-nodes 10000] [-seed 42]
//	        [-interval 30m] [-chunk 5m] [-pace 1s]
//	        [-points 336] [-mlog crawl.jsonl]
//
// Endpoints (all GET, JSON): /v1/summary, /v1/clients, /v1/geo,
// /v1/networks, /v1/series/churn, /v1/series/arrivals,
// /v1/nodes/{id}, /metrics, and an index at /.
//
// The serving path is production-shaped: immutable snapshots behind
// an atomic pointer, bodies pre-marshaled at publish time, strong
// epoch ETags (poll with If-None-Match and pay a 304), bounded
// request bodies, and hard server timeouts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/census"
	"repro/internal/cli"
	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/nodefinder"
	"repro/internal/nodefinder/mlog"
	"repro/internal/simnet"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	cli.Main(func(args []string, stdout, stderr io.Writer) error {
		defer stop()
		return run(ctx, args, stdout, stderr)
	})
}

// run serves until ctx is done, then shuts the server down.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("censusd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":8424", "HTTP listen address")
		nodes    = fs.Int("nodes", 10_000, "simulated world population")
		seed     = fs.Int64("seed", 42, "world seed (deterministic crawl)")
		interval = fs.Duration("interval", census.DefaultInterval, "virtual census interval")
		chunk    = fs.Duration("chunk", 5*time.Minute, "virtual time advanced per pace tick")
		pace     = fs.Duration("pace", time.Second, "wall time between virtual chunks")
		points   = fs.Int("points", 336, "served churn series cap (0 = unbounded)")
		mlogPath = fs.String("mlog", "", "also append the raw measurement log here (JSONL)")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	cfg := simnet.DefaultConfig(*seed)
	cfg.BaseNodes = *nodes
	w := simnet.NewWorld(cfg)

	reg := metrics.New()
	d := census.NewDaemon(census.DaemonConfig{
		Clock:     w.Clock,
		Interval:  *interval,
		Geo:       geo.NewDB(),
		Metrics:   reg,
		MaxPoints: *points,
	})

	sink := mlog.Sink(d)
	if *mlogPath != "" {
		f, err := os.OpenFile(*mlogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		lw := mlog.NewWriter(f)
		defer lw.Flush()
		sink = mlog.Tee{lw, d}
	}

	dialer := w.NewDialer(*seed + 2)
	dialer.Metrics = nodefinder.NewDialerMetrics(reg)
	f, err := nodefinder.New(nodefinder.Config{
		Clock:         w.Clock,
		Discovery:     w.NewDiscovery(*seed + 1),
		Dialer:        dialer,
		Log:           sink,
		Metrics:       reg,
		Seed:          *seed + 3,
		LookupWorkers: 4,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	d.Start() // epoch grid anchored at the crawl start
	gen := w.StartIncoming(f, 30*time.Second, *seed+4)
	f.Start()
	defer func() {
		f.Stop()
		gen.Stop()
		d.Stop()
	}()

	handler := census.NewHandler(census.ServerConfig{Source: d, Metrics: reg})
	srv := &http.Server{
		Handler:           handler,
		ReadTimeout:       5 * time.Second,
		ReadHeaderTimeout: 2 * time.Second,
		WriteTimeout:      10 * time.Second,
		IdleTimeout:       60 * time.Second,
		MaxHeaderBytes:    16 << 10,
	}
	serveErr := make(chan error, 1)
	// serveErr is cap-1 and Serve returns exactly once, so the send
	// always finds the slot empty.
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(stderr, "censusd: serving %d-node world on %s (epoch every %s virtual, %s virtual per %s wall)\n",
		*nodes, ln.Addr(), *interval, *chunk, *pace)

	// Pace the virtual crawl against wall time; every virtual interval
	// boundary the daemon publishes a fresh epoch on its own tick.
	ticker := time.NewTicker(*pace)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			fmt.Fprintln(stderr, "censusd: shutting down")
			shutdownCtx, stop := context.WithTimeout(context.Background(), 5*time.Second)
			defer stop()
			return srv.Shutdown(shutdownCtx)
		case err := <-serveErr:
			if errors.Is(err, http.ErrServerClosed) {
				return nil
			}
			return err
		case <-ticker.C:
			w.Clock.Advance(*chunk)
			if s := d.Current(); s != nil {
				reg.Gauge("censusd.virtual_hours").Set(int64(s.Time.Sub(s.Start).Hours()))
			}
		}
	}
}
