package lint

// RepoAnalyzers returns the two invariant analyzers configured for
// this repository's contracts. module is the module path from go.mod
// ("repro"); taking it as a parameter keeps the analyzers themselves
// reusable against the golden testdata trees, which load under a
// different module path.
func RepoAnalyzers(module string) []Analyzer {
	return []Analyzer{
		&Wallclock{
			// Packages driven by simclock.Clock in simulated 82-day
			// runs. A stray time.Now here silently decouples a
			// component from the virtual clock and corrupts the crawl
			// timeline.
			Packages: []string{
				module + "/internal/simnet",
				module + "/internal/discv4",
				module + "/internal/nodefinder",
				module + "/internal/faultnet",
				module + "/internal/ethnode",
				module + "/internal/rlpx",
				// The census daemon and HTTP layer tick and timestamp on
				// an injected clock so whole-crawl soak tests (and the
				// served epoch grid) are deterministic in virtual time.
				module + "/internal/census",
			},
			// Whole files excused from clock injection, each with the
			// reason printed when -v is set. Individual lines elsewhere
			// use //lint:ignore wallclock <reason>.
			AllowFiles: map[string]string{
				"internal/discv4/udp.go": "discv4 speaks wall-clock Unix expirations on the real UDP wire; " +
					"the transport is never driven by the simulated clock (simnet simulates discovery instead)",
				"internal/discv4/maintenance.go": "bucket revalidation/refresh tickers pace the real UDP transport, " +
					"which only runs against live sockets",
				"internal/ethnode/ethnode.go": "ethnode is the in-process honest peer for real-socket integration " +
					"tests; it deliberately runs on wall time like the remote peers it stands in for",
			},
		},
		&ErrTaxonomy{
			Transports: []string{
				module + "/internal/rlpx",
				module + "/internal/devp2p",
				module + "/internal/eth",
				module + "/internal/snappy",
				module + "/internal/faultnet",
			},
			ClassifierPkg:  module + "/internal/nodefinder",
			ClassifierFunc: "OutcomeClass",
			EnumTypes: []string{
				module + "/internal/nodefinder/mlog.ConnType",
			},
		},
	}
}
