package main

import "slices"

// workloadSpec is one traffic mix. Later issues refer to workloads by name.
type workloadSpec struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json, README).
	why string
	// regions > 0 boots brokerd with -regions.
	regions int
	// primary is the op whose latency is p50_ms/p95_ms.
	primary opKind
	// unit is the op that opens one unit of work — a query, a whole
	// setup/read/teardown cycle, a churn post — which is what ops_s counts
	// and cpu_ms_per_op divides by.
	unit opKind
	// hot is the size of the hot set that set-up warms (0: none); resident
	// is how many sessions set-up establishes and leaves in place.
	hot, resident int
	// rate is units per client per second at the seed commit on one CPU of
	// the reference box at table2: a run of -seconds S issues round(rate*S)
	// units per client, so counts — not durations — are fixed.
	rate float64
	// yardstick is the harness's own CPU time per request it sends, in µs,
	// in the measured phase of the same run on the same box; the timings of
	// a run are scaled by yardstick ÷ (what the run measured). See README.md,
	// "Reference speed".
	yardstick float64
}

const (
	hotSetSize       = 256
	residentSessions = 300
)

var workloads = []*workloadSpec{
	{
		name: "path_cold", primary: opPath, unit: opPath, rate: 90, yardstick: 100,
		why: "fresh cache, Zipf pairs: ~86% misses, each a Dijkstra; routing does >=90% of the work, no-path answers set the tail",
	},
	{
		name: "path_hot", primary: opPath, unit: opPath, hot: hotSetSize, rate: 7400, yardstick: 28.6,
		why: "100% fresh cache hits on a warmed hot set: only the query-plane cache and the HTTP/JSON front door work; routing must do nothing",
	},
	{
		name: "session_mix", primary: opSetup, unit: opSetup, hot: hotSetSize, rate: 800, yardstick: 29.4,
		why: "setup, 4 hot reads, teardown: group commit + WAL + epoch publish beside reads that must revalidate because every commit stales the cache",
	},
	{
		name: "churn_heal", primary: opPath, unit: opChurn, hot: hotSetSize, resident: residentSessions, rate: 4.5, yardstick: 32,
		why: "churn bursts healed incrementally under read load with resident sessions: the only workload with selection kernels on the request path",
	},
	{
		name: "fed_session", primary: opFedSetup, unit: opFedPath, regions: 3, rate: 34, yardstick: 95,
		why: "3 regions: cold stitch, federated setup (warm stitch + two-level 2PC), teardown; stitch DP and peer messages dominate",
	},
}

func workloadByName(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Sources of a per-layer metric, all outside the program under test.
const (
	srcClient = "C" // measured by the harness's clients or from /proc
	srcScrape = "S" // /metrics delta over the untraced measured phase
	srcTrace  = "T" // self time of harness spans in the traced replay
	srcKernel = "K" // timed call into a public function in the traced run's set-up
)

// metricSpec is one catalogue entry. The catalogue is the single list
// BENCHMARK.json, the result line and -compare derive from; README.md says
// what each entry means and which end-to-end metric it should move.
type metricSpec struct {
	name, unit string
	better     string
	// bound is how far the metric may worsen, as a share of the baseline
	// median, before -compare calls it regressed; absBound is the same as
	// an absolute difference. Both zero: tracked, not guarded.
	bound, absBound float64
	// on lists the workloads the metric is defined on; nil means all.
	on     []string
	source string
}

func (m *metricSpec) appliesTo(w string) bool {
	return m.on == nil || slices.Contains(m.on, w)
}

var (
	onSessions = []string{"session_mix", "fed_session"}
	onChurn    = []string{"churn_heal"}
)

// endToEnd are the metrics a user of brokerd sees, measured with tracing
// off; -compare guards all of them with the bounds given here. The first
// contractE2E are BENCHMARK.json's end_to_end list. The driver wants each of
// its end-to-end metrics on every workload and never 0, so fail_share (0 at
// the seed) and the four metrics of ops only some workloads have are listed
// in its per_layer section instead.
//
// The timing bounds are the contract's ceiling, not the issue's 10-15%: ten
// seeds on the shared reference box spread by 3-22% in a calm quarter of an
// hour and past 25% in a rough one (README.md has the table).
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, source: srcClient},
	{name: "ops_s", unit: "1/s", better: "higher", bound: 0.25, source: srcClient},
	{name: "p50_ms", unit: "ms", better: "lower", bound: 0.25, source: srcClient},
	{name: "p95_ms", unit: "ms", better: "lower", bound: 0.25, source: srcClient},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.25, source: srcClient},
	{name: "rss_mb", unit: "MB", better: "lower", bound: 0.15, source: srcClient},

	{name: "fail_share", unit: "ratio", better: "lower", absBound: 0.005, source: srcClient},
	{name: "read_p50_ms", unit: "ms", better: "lower", bound: 0.25, on: onSessions, source: srcClient},
	{name: "read_p95_ms", unit: "ms", better: "lower", bound: 0.25, on: onSessions, source: srcClient},
	{name: "teardown_p50_ms", unit: "ms", better: "lower", bound: 0.25, on: onSessions, source: srcClient},
	{name: "heal_p50_ms", unit: "ms", better: "lower", bound: 0.25, on: onChurn, source: srcClient},
}

// contractE2E is how many leading endToEnd entries BENCHMARK.json lists as
// end_to_end.
const contractE2E = 6

// perLayer are the metrics of single layers (layer = module name).
var perLayer = []metricSpec{
	{name: "brokerd.boot_s", unit: "s", better: "lower", source: srcClient},
	{name: "bench.warmup_s", unit: "s", better: "lower", source: srcClient},
	{name: "topology.generate_ms", unit: "ms", better: "lower", source: srcKernel},
	{name: "routing.default_metrics_ms", unit: "ms", better: "lower", source: srcKernel},
	{name: "ctrlplane.new_ms", unit: "ms", better: "lower", source: srcKernel},
	{name: "federation.new_ms", unit: "ms", better: "lower", source: srcKernel},
	{name: "broker.maxsg_ms", unit: "ms", better: "lower", source: srcKernel},
	{name: "broker.greedy_mcb_ms", unit: "ms", better: "lower", source: srcKernel},
	{name: "broker.maintain_incremental_ms", unit: "ms", better: "lower", source: srcKernel},
	{name: "graph.bitbfs_flood_ms", unit: "ms", better: "lower", source: srcKernel},
	{name: "coverage.gain_batch_ms", unit: "ms", better: "lower", source: srcKernel},
	{name: "coverage.saturated_connectivity_ms", unit: "ms", better: "lower", source: srcKernel},

	{name: "routing.best_path_ms", unit: "ms", better: "lower", source: srcTrace},
	{name: "routing.best_path_p95_ms", unit: "ms", better: "lower", source: srcTrace},
	{name: "routing.nopath_ms", unit: "ms", better: "lower", source: srcTrace},
	{name: "routing.searches", unit: "count", better: "lower", source: srcScrape},

	{name: "queryplane.hit_self_us", unit: "us", better: "lower", source: srcTrace},
	{name: "queryplane.miss_self_us", unit: "us", better: "lower", source: srcTrace},
	{name: "queryplane.resolve_us", unit: "us", better: "lower", source: srcTrace},
	{name: "queryplane.hit_ratio", unit: "ratio", better: "higher", source: srcScrape},
	{name: "queryplane.revalidated_ratio", unit: "ratio", better: "lower", source: srcScrape},
	{name: "queryplane.misses_invalidated", unit: "count", better: "lower", source: srcScrape},
	{name: "queryplane.nopath_share", unit: "ratio", better: "lower", source: srcScrape},
	{name: "queryplane.dedup", unit: "count", better: "higher", source: srcScrape},
	{name: "queryplane.shed", unit: "count", better: "lower", source: srcScrape},

	{name: "epoch.snapshot_build_ms", unit: "ms", better: "lower", source: srcTrace},
	{name: "epoch.publish_ms", unit: "ms", better: "lower", source: srcTrace},
	{name: "epoch.path_valid_us", unit: "us", better: "lower", source: srcTrace},
	{name: "epoch.published", unit: "count", better: "lower", source: srcScrape},

	{name: "ctrlplane.commit_batch_ms", unit: "ms", better: "lower", source: srcTrace},
	{name: "ctrlplane.teardown_batch_ms", unit: "ms", better: "lower", source: srcTrace},
	{name: "ctrlplane.msgs_per_commit", unit: "count", better: "lower", source: srcScrape},
	{name: "ctrlplane.batch_occupancy", unit: "ratio", better: "higher", source: srcScrape},
	{name: "ctrlplane.retries", unit: "count", better: "lower", source: srcScrape},
	{name: "ctrlplane.aborts", unit: "count", better: "lower", source: srcScrape},

	{name: "churn.apply_ms", unit: "ms", better: "lower", source: srcTrace},
	{name: "churn.heal_ms", unit: "ms", better: "lower", source: srcTrace},
	{name: "churn.live_graph_ms", unit: "ms", better: "lower", source: srcTrace},
	{name: "churn.incremental_repairs", unit: "count", better: "higher", source: srcScrape},
	{name: "churn.full_reselects", unit: "count", better: "lower", source: srcScrape},
	{name: "churn.broker_adds", unit: "count", better: "lower", source: srcScrape},
	{name: "churn.sessions_repaired", unit: "count", better: "lower", source: srcScrape},
	{name: "churn.sessions_aborted", unit: "count", better: "lower", source: srcScrape},

	{name: "federation.stitch_cold_ms", unit: "ms", better: "lower", source: srcTrace},
	{name: "federation.stitch_warm_ms", unit: "ms", better: "lower", source: srcTrace},
	{name: "federation.setup_ms", unit: "ms", better: "lower", source: srcTrace},
	{name: "federation.teardown_ms", unit: "ms", better: "lower", source: srcTrace},
	{name: "federation.peer_msgs_per_setup", unit: "count", better: "lower", source: srcScrape},
	{name: "federation.crossings_mean", unit: "count", better: "lower", source: srcClient},
	{name: "federation.aborts", unit: "count", better: "lower", source: srcScrape},

	{name: "brokerd.http_residual_us", unit: "us", better: "lower", source: srcTrace},
	{name: "obs.trace_overhead_pct", unit: "%", better: "lower", source: srcTrace},
	{name: "bench.glue_pct", unit: "%", better: "lower", source: srcTrace},

	{name: "bench.yardstick_us", unit: "us", better: "lower", source: srcClient},
	{name: "bench.speed", unit: "ratio", better: "higher", source: srcClient},
	{name: "raw.setup_s", unit: "s", better: "lower", source: srcClient},
	{name: "raw.ops_s", unit: "1/s", better: "higher", source: srcClient},
	{name: "raw.p50_ms", unit: "ms", better: "lower", source: srcClient},
	{name: "raw.p95_ms", unit: "ms", better: "lower", source: srcClient},
	{name: "raw.cpu_ms_per_op", unit: "ms", better: "lower", source: srcClient},
	{name: "client.p99_ms", unit: "ms", better: "lower", source: srcClient},
	{name: "client.max_ms", unit: "ms", better: "lower", source: srcClient},
	{name: "client.samples", unit: "count", better: "higher", source: srcClient},
	{name: "bench.phase_s", unit: "s", better: "lower", source: srcClient},
	{name: "bench.client_cpu_share", unit: "ratio", better: "lower", source: srcClient},
}

// contractPerLayer is BENCHMARK.json's per_layer list: every per-layer
// metric plus the end-to-end metrics the contract cannot list as such.
func contractPerLayer() []metricSpec {
	return append(append([]metricSpec(nil), endToEnd[contractE2E:]...), perLayer...)
}
