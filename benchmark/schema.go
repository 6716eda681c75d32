package main

// metricDef declares one metric the benchmark prints. BENCHMARK.json
// carries the same list; the schema test holds the two together.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the share a later change may worsen it by
}

// workloadNames are the workloads the program runs. gatedWorkloads are
// the ones BENCHMARK.json lists, whose end-to-end metrics carry bounds:
// search_sparse is not among them, because its median search — a 6–10 µs
// memory-bound call — follows this host's contention, not the program
// (README.md, "Why search_sparse is not gated").
var (
	workloadNames  = []string{"replay_city", "search_dense", "search_sparse", "http_mix"}
	gatedWorkloads = []string{"replay_city", "search_dense", "http_mix"}
)

// endToEnd is measured with tracing off and defined on every workload.
// README.md says where each comes from on each workload and how its
// bound was derived.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"search_p50_us", "us", "lower", 0.25},
	{"search_p95_us", "us", "lower", 0.25},
	{"book_p50_us", "us", "lower", 0.25},
	{"create_p50_us", "us", "lower", 0.25},
	{"match_rate", "ratio", "higher", 0.05},
	{"index_bytes_per_ride", "B", "lower", 0.10},
	{"rss_peak_mb", "MB", "lower", 0.10},
}

// perLayer is measured by the traced pass. A metric that does not exist
// on a workload (server.* in-process) is printed as 0 there.
var perLayer = []metricDef{
	{"core.search_busy_s", "s", "lower", 0},
	{"core.book_busy_s", "s", "lower", 0},
	{"core.create_busy_s", "s", "lower", 0},
	{"core.track_busy_s", "s", "lower", 0},
	{"core.search_calls", "count", "lower", 0},
	{"core.book_calls", "count", "lower", 0},
	{"core.create_calls", "count", "lower", 0},
	{"core.track_calls", "count", "lower", 0},
	{"core.search_share", "ratio", "lower", 0},
	{"core.book_share", "ratio", "lower", 0},
	{"core.create_share", "ratio", "lower", 0},
	{"core.track_share", "ratio", "lower", 0},
	{"core.search_p99_us", "us", "lower", 0},
	{"core.book_p99_us", "us", "lower", 0},
	{"core.create_p99_us", "us", "lower", 0},
	{"core.book_stale", "count", "lower", 0},
	{"core.book_conflict_retries", "count", "lower", 0},
	{"core.matches_per_search", "count", "higher", 0},
	{"core.candidates_per_search", "count", "lower", 0},
	{"core.match_yield", "ratio", "higher", 0},
	{"core.search_fixed_us", "us", "lower", 0},
	{"core.search_per_match_us", "us", "lower", 0},
	{"core.allocs_per_search", "count", "lower", 0},
	{"core.alloc_bytes_per_search", "B", "lower", 0},

	{"index.potential_rides_ns", "ns", "lower", 0},
	{"index.entries_per_window", "count", "lower", 0},
	{"index.shards_visited_per_search", "count", "lower", 0},
	{"index.insert_us", "us", "lower", 0},
	{"index.reregister_us", "us", "lower", 0},
	{"index.remove_us", "us", "lower", 0},
	{"index.rides", "count", "higher", 0},
	{"index.posting_entries", "count", "lower", 0},
	{"index.bytes_per_ride", "B", "lower", 0},

	{"discretize.build_s", "s", "lower", 0},
	{"discretize.side_lookup_ns", "ns", "lower", 0},
	{"discretize.walkable_clusters_per_side", "count", "lower", 0},
	{"discretize.landmarks", "count", "lower", 0},
	{"discretize.clusters", "count", "lower", 0},
	{"discretize.epsilon_m", "m", "lower", 0},
	{"discretize.bytes", "B", "lower", 0},

	{"roadnet.generate_city_s", "s", "lower", 0},
	{"roadnet.query_us.astar", "us", "lower", 0},
	{"roadnet.query_us.alt", "us", "lower", 0},
	{"roadnet.query_us.ch", "us", "lower", 0},
	{"roadnet.preprocess_ms.alt", "ms", "lower", 0},
	{"roadnet.preprocess_ms.ch", "ms", "lower", 0},
	{"roadnet.sp_calls_per_create", "count", "lower", 0},
	{"roadnet.sp_calls_per_book", "count", "lower", 0},
	{"roadnet.est_share_of_create", "ratio", "lower", 0},
	{"roadnet.est_share_of_book", "ratio", "lower", 0},
	{"roadnet.nodes", "count", "lower", 0},
	{"roadnet.edges", "count", "lower", 0},

	{"server.handler_p50_us.search", "us", "lower", 0},
	{"server.handler_p50_us.book", "us", "lower", 0},
	{"server.handler_p50_us.create", "us", "lower", 0},
	{"server.self_p50_us.search", "us", "lower", 0},
	{"server.self_p50_us.book", "us", "lower", 0},
	{"server.self_p50_us.create", "us", "lower", 0},
	{"server.transport_p50_us", "us", "lower", 0},
	{"server.engine_share_of_client.search", "ratio", "higher", 0},
	{"server.req_bytes_p50", "B", "lower", 0},
	{"server.resp_bytes_p50.search", "B", "lower", 0},
	{"server.status_4xx_share", "ratio", "lower", 0},
	{"server.status_5xx", "count", "lower", 0},
	{"server.allocs_per_req", "count", "lower", 0},
	{"server.alloc_bytes_per_req", "B", "lower", 0},

	{"observers.overhead_ratio", "ratio", "lower", 0},
	{"observers.rss_delta_mb", "MB", "lower", 0},

	{"load.clock_pair_ns", "ns", "lower", 0},
	{"load.http_floor_us", "us", "lower", 0},
	{"load.gen_cpu_share", "ratio", "lower", 0},
	{"load.failed_share", "ratio", "lower", 0},

	{"workload.generate_s", "s", "lower", 0},
	{"workload.trips", "count", "higher", 0},
	{"workload.inputs_sha256_48", "count", "lower", 0},

	{"go.gc_cycles", "count", "lower", 0},
	{"go.gc_pause_total_ms", "ms", "lower", 0},
	{"go.heap_inuse_peak_mb", "MB", "lower", 0},
	{"go.allocs_per_op", "count", "lower", 0},
	{"go.alloc_bytes_per_op", "B", "lower", 0},

	{"host.nproc", "count", "higher", 0},
	{"host.spin_ms_before", "ms", "lower", 0},
	{"host.spin_ms_after", "ms", "lower", 0},
	{"host.steal_share", "ratio", "lower", 0},

	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"trace.spans", "count", "lower", 0},
}
