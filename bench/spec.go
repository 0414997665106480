package bench

// The benchmark's vocabulary: workloads and metrics by name, unit and
// direction. BENCHMARK.json at the repo root is this table in the
// driver's schema; TestManifestMatchesBenchmarkJSON keeps the two
// identical.

// Workload names one benchmark workload and why it exists.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Workloads are the four workloads, in running order.
var Workloads = []Workload{
	{"crawl-sim", "100k-node analytic world, synthetic dialer, 24 virtual hours: scheduler, clock, node table and log do all the work; the wire stack does none"},
	{"crawl-wire", "10k-node wire world, every node dialed once through real RLPx/HELLO/STATUS/DAO over in-memory pipes: crypto and framing do all the work; the scheduler does none"},
	{"census-publish", "a 2-virtual-day crawl log replayed into the census daemon for 96 publishes, then analysed offline: the write side, where an O(delta) publish must show"},
	{"census-serve", "2 closed-loop clients on the census handler's request mix while a publisher republishes every 500 ms: the read side, racing the write side"},
}

// WorkloadNames lists the workload names in running order.
func WorkloadNames() []string {
	out := make([]string, len(Workloads))
	for i, w := range Workloads {
		out[i] = w.Name
	}
	return out
}

// Metric describes one reported number.
type Metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	// Per-layer metrics have none.
	Bound float64 `json:"bound,omitempty"`
	// Exact marks a per-layer count that is a pure function of the seed:
	// two runs of one commit must agree on it to the last digit.
	Exact bool `json:"-"`
}

// EndToEnd are the metrics a user of the system would see. Every
// workload reports every one of them, measured with tracing off; what
// each means on each workload is in README.md ("End-to-end metrics").
// Bounds are max(0.05, 2 × the widest run-to-run spread of any workload)
// over the ten-seed sets in baseline/README.md, rounded up and capped at
// the driver's 0.25; setup_s takes the largest.
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "result_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.15},
	{Name: "allocs_per_op", Unit: "1/op", Better: "lower", Bound: 0.05},
}

// PerLayer are the single-layer metrics of the traced run; the prefix
// is the layer (package). Three kinds, told apart by unit:
//
//   - ratio: a share from the trace — the layer's self time as a share
//     of the traced wall (crawl-sim, census-publish), a stage's p50 as a
//     share of the dial's p50 (crawl-wire), or a ratio of two
//     percentiles. Shares carry from one machine to another, which the
//     absolute times behind them (kept in bench/out/trace-*.json) do
//     not. A layer a workload bypasses reports 0.
//   - count, B/op: exact counts taken at the same boundaries.
//   - ns, us, ms, 1/op: probes — tight loops over the layer's public
//     functions on the workloads' message shapes, run in every traced
//     run, for the layers no seam isolates.
var PerLayer = []Metric{
	// harness
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "trace.self_sum_share", Unit: "ratio", Better: "higher"},
	{Name: "trace.stage_sum_share", Unit: "ratio", Better: "higher"},
	{Name: "trace.harness_share", Unit: "ratio", Better: "lower"},

	// simclock
	{Name: "simclock.advance_self_share", Unit: "ratio", Better: "lower"},
	{Name: "simclock.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "simclock.schedule_fire_ns", Unit: "ns", Better: "lower"},

	// nodefinder
	{Name: "nodefinder.lookup_done_self_share", Unit: "ratio", Better: "lower"},
	{Name: "nodefinder.dial_done_self_share", Unit: "ratio", Better: "lower"},
	{Name: "nodefinder.timer_self_share", Unit: "ratio", Better: "lower"},
	{Name: "nodefinder.lookups", Unit: "count", Better: "lower"},
	{Name: "nodefinder.dials_dynamic", Unit: "count", Better: "lower", Exact: true},
	{Name: "nodefinder.dials_static", Unit: "count", Better: "lower", Exact: true},
	{Name: "nodefinder.queue_dropped", Unit: "count", Better: "lower"},
	{Name: "nodefinder.dial_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "nodefinder.dial_p99_over_p50", Unit: "ratio", Better: "lower"},
	{Name: "nodefinder.dial_p999_over_p50", Unit: "ratio", Better: "lower"},

	// nodedb
	{Name: "nodedb.ensure_ns", Unit: "ns", Better: "lower"},
	{Name: "nodedb.ensure_allocs", Unit: "1/op", Better: "lower"},
	{Name: "nodedb.record_dial_ns", Unit: "ns", Better: "lower"},
	{Name: "nodedb.get_ns", Unit: "ns", Better: "lower"},
	{Name: "nodedb.expire_stale_ms", Unit: "ms", Better: "lower"},

	// simnet
	{Name: "simnet.lookup_share", Unit: "ratio", Better: "lower"},
	{Name: "simnet.lookup_calls", Unit: "count", Better: "lower", Exact: true},
	{Name: "simnet.dial_share", Unit: "ratio", Better: "lower"},
	{Name: "simnet.dial_calls", Unit: "count", Better: "lower", Exact: true},
	{Name: "simnet.dialwire_share", Unit: "ratio", Better: "lower"},
	{Name: "simnet.promotions", Unit: "count", Better: "lower", Exact: true},
	{Name: "simnet.new_world_ms", Unit: "ms", Better: "lower"},
	{Name: "simnet.new_world_wire_ms", Unit: "ms", Better: "lower"},

	// mlog
	{Name: "mlog.record_share", Unit: "ratio", Better: "lower"},
	{Name: "mlog.records", Unit: "count", Better: "lower", Exact: true},
	{Name: "mlog.flush_share", Unit: "ratio", Better: "lower"},
	{Name: "mlog.bytes", Unit: "count", Better: "lower", Exact: true},

	// netpipe
	{Name: "netpipe.bytes_per_dial", Unit: "B/op", Better: "lower"},
	{Name: "netpipe.read_wait_share", Unit: "ratio", Better: "lower"},

	// rlpx
	{Name: "rlpx.handshake_share", Unit: "ratio", Better: "lower"},
	{Name: "rlpx.handshake_pair_us", Unit: "us", Better: "lower"},
	{Name: "rlpx.frame_roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "rlpx.frame_allocs", Unit: "1/op", Better: "lower"},

	// secp256k1
	{Name: "secp256k1.sign_us", Unit: "us", Better: "lower"},
	{Name: "secp256k1.sign_allocs", Unit: "1/op", Better: "lower"},
	{Name: "secp256k1.recover_us", Unit: "us", Better: "lower"},
	{Name: "secp256k1.recover_allocs", Unit: "1/op", Better: "lower"},
	{Name: "secp256k1.ecdh_us", Unit: "us", Better: "lower"},
	{Name: "secp256k1.ecdh_allocs", Unit: "1/op", Better: "lower"},
	{Name: "secp256k1.genkey_us", Unit: "us", Better: "lower"},
	{Name: "secp256k1.genkey_allocs", Unit: "1/op", Better: "lower"},

	// ecies, keccak
	{Name: "ecies.encrypt_us", Unit: "us", Better: "lower"},
	{Name: "ecies.decrypt_us", Unit: "us", Better: "lower"},
	{Name: "keccak.sum256_136B_ns", Unit: "ns", Better: "lower"},

	// devp2p, eth
	{Name: "devp2p.hello_share", Unit: "ratio", Better: "lower"},
	{Name: "devp2p.disconnect_share", Unit: "ratio", Better: "lower"},
	{Name: "eth.status_share", Unit: "ratio", Better: "lower"},
	{Name: "eth.dao_check_share", Unit: "ratio", Better: "lower"},
	{Name: "eth.dao_checks", Unit: "count", Better: "lower", Exact: true},

	// rlp (plan codec only)
	{Name: "rlp.hello_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "rlp.hello_encode_allocs", Unit: "1/op", Better: "lower"},
	{Name: "rlp.hello_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "rlp.hello_decode_allocs", Unit: "1/op", Better: "lower"},
	{Name: "rlp.status_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "rlp.status_encode_allocs", Unit: "1/op", Better: "lower"},
	{Name: "rlp.status_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "rlp.status_decode_allocs", Unit: "1/op", Better: "lower"},
	{Name: "rlp.headers_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "rlp.headers_decode_allocs", Unit: "1/op", Better: "lower"},

	// snappy
	{Name: "snappy.encode_status_ns", Unit: "ns", Better: "lower"},
	{Name: "snappy.decode_status_ns", Unit: "ns", Better: "lower"},
	{Name: "snappy.encode_header_ns", Unit: "ns", Better: "lower"},
	{Name: "snappy.decode_header_ns", Unit: "ns", Better: "lower"},

	// discv4 (no workload drives the UDP transport; probes only)
	{Name: "discv4.packet_encode_us", Unit: "us", Better: "lower"},
	{Name: "discv4.packet_decode_us", Unit: "us", Better: "lower"},

	// geo, enode
	{Name: "geo.country_ns", Unit: "ns", Better: "lower"},
	{Name: "geo.country_allocs", Unit: "1/op", Better: "lower"},
	{Name: "enode.id_string_ns", Unit: "ns", Better: "lower"},
	{Name: "enode.id_string_allocs", Unit: "1/op", Better: "lower"},
	{Name: "enode.pubkey_id_ns", Unit: "ns", Better: "lower"},
	{Name: "enode.pubkey_id_allocs", Unit: "1/op", Better: "lower"},

	// analysis
	{Name: "analysis.aggregate_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.epoch_series_ms", Unit: "ms", Better: "lower"},

	// census
	{Name: "census.record_share", Unit: "ratio", Better: "lower"},
	{Name: "census.publish_share", Unit: "ratio", Better: "lower"},
	{Name: "census.publish_growth", Unit: "ratio", Better: "lower"},
	{Name: "census.entries", Unit: "count", Better: "lower", Exact: true},
	{Name: "census.publishes", Unit: "count", Better: "higher"},
	{Name: "census.build_snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "census.build_self_ms", Unit: "ms", Better: "lower"},
	{Name: "census.serve_cached_ns", Unit: "ns", Better: "lower"},
	{Name: "census.serve_304_ns", Unit: "ns", Better: "lower"},
	{Name: "census.serve_node_ns", Unit: "ns", Better: "lower"},
	{Name: "census.serve_series_ns", Unit: "ns", Better: "lower"},
	{Name: "census.serve_cached_rel", Unit: "ratio", Better: "lower"},
	{Name: "census.serve_304_rel", Unit: "ratio", Better: "lower"},
	{Name: "census.serve_node_rel", Unit: "ratio", Better: "lower"},
	{Name: "census.serve_series_rel", Unit: "ratio", Better: "lower"},
	{Name: "census.requests_cached", Unit: "count", Better: "higher"},
	{Name: "census.requests_304", Unit: "count", Better: "higher"},
	{Name: "census.requests_node", Unit: "count", Better: "higher"},
	{Name: "census.requests_series", Unit: "count", Better: "higher"},
	{Name: "census.serve_p99_over_p50", Unit: "ratio", Better: "lower"},
	{Name: "census.publish_lag_p90_over_p50", Unit: "ratio", Better: "lower"},
	{Name: "census.republishes", Unit: "count", Better: "higher"},
	{Name: "census.generator_late_share", Unit: "ratio", Better: "lower"},

	// metrics
	{Name: "metrics.counter_inc_ns", Unit: "ns", Better: "lower"},
	{Name: "metrics.histogram_observe_ns", Unit: "ns", Better: "lower"},
}

// RunSeconds is how long one run measures.
const RunSeconds = 10

// Manifest is BENCHMARK.json's schema.
type Manifest struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []Workload `json:"workloads"`
	EndToEnd   []Metric   `json:"end_to_end"`
	PerLayer   []perLayer `json:"per_layer"`
}

// perLayer is a Metric without a bound, as the driver's schema wants.
type perLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// TheManifest renders the tables above in BENCHMARK.json's schema.
func TheManifest() Manifest {
	m := Manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench", "cmd/bench"},
		RunSeconds: RunSeconds,
		Workloads:  Workloads,
		EndToEnd:   EndToEnd,
	}
	for _, p := range PerLayer {
		m.PerLayer = append(m.PerLayer, perLayer{p.Name, p.Unit, p.Better})
	}
	return m
}

// metricByName finds an end-to-end or per-layer metric.
func metricByName(name string) (Metric, bool) {
	for _, list := range [][]Metric{EndToEnd, PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return Metric{}, false
}
