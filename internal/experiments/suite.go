package experiments

import "fmt"

// SuiteConfig selects the scale of a full regeneration.
type SuiteConfig struct {
	Crawl CrawlConfig
	// Fig11Trials is the distance-metric sample count (paper: 100K).
	Fig11Trials int
	Seed        int64
}

// DefaultSuite matches the paper's parameters at laptop scale.
func DefaultSuite() SuiteConfig {
	return SuiteConfig{
		Crawl:       DefaultCrawl(),
		Fig11Trials: 100_000,
		Seed:        2018,
	}
}

// QuickSuite is a fast configuration for tests and benchmarks.
func QuickSuite() SuiteConfig {
	return SuiteConfig{
		Crawl:       QuickCrawl(),
		Fig11Trials: 5_000,
		Seed:        2018,
	}
}

// RunAll regenerates every table and figure.
func RunAll(cfg SuiteConfig, progress func(string)) ([]*Result, error) {
	if progress == nil {
		progress = func(string) {}
	}
	progress("running case study (Table 1, Figures 2-4)")
	cs := RunCaseStudy(cfg.Seed)
	results := []*Result{Table1(cs), Fig2And3(cs), Fig4(cs)}

	progress(fmt.Sprintf("crawling simulated world (%d nodes, %d days)", cfg.Crawl.BaseNodes, cfg.Crawl.Days))
	run, err := RunCrawl(cfg.Crawl)
	if err != nil {
		return nil, err
	}
	progress(fmt.Sprintf("crawl complete: %d log entries, %d identities (%d abusive removed)",
		len(run.Entries), len(run.Nodes), len(run.Abusive.AbusiveNodes)))

	progress("analyzing crawl (Tables 2-6, Figures 5-10, 12-14)")
	results = append(results,
		Fig5(run),
		Fig6And7(run),
		Fig8(run),
		Table2(run),
		Table3(run),
		Fig9(run),
		Table4(run),
		Table5(run),
		Fig10(run),
		Table6(run),
		Fig12(run),
		Fig13(run),
		Fig14(run),
	)

	progress("computing distance-metric distributions (Figure 11)")
	results = append(results, Fig11(cfg.Fig11Trials, cfg.Seed))

	progress("running extension analyses")
	results = append(results, ExtChurn(run))
	// Multi-instance consistency at reduced scale (the crawl above
	// already cost the bulk of the budget).
	results = append(results, ExtMultiInstance(cfg.Seed+900, 5, cfg.Crawl.BaseNodes/3, 24))
	return results, nil
}
