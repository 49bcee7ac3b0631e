package main

// The metric tables. BENCHMARK.json at the repo root repeats them for the
// driver; TestBenchmarkJSONMatches keeps the two in step.

// metricDef names one metric. Bound (end-to-end only) is the share of the
// parent's median by which the metric may worsen before a change counts as
// a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what the driver holds a change to, measured with tracing
// off: the costs that repeat from run to run on a shared host, and set-up
// time. Every workload reports every metric; a request is one simulated
// request (sim-*) or one invoke (live-*).
var endToEnd = []metricDef{
	{"allocs_per_request", "count", lower, 0.10},
	{"bytes_per_request", "B", lower, 0.05},
	{"success_share", "ratio", higher, 0.001},
	{"setup_s", "s", lower, 0.25},
}

// wallClock is what a user of either product waits for, measured in the
// same untraced window. On the shared hosts this runs on, memory latency
// beyond the L2 cache moves 2.5x from one minute to the next and takes
// every one of these numbers with it by 15-30%, so no bound on them can
// both hold between two runs of the same code and catch a regression
// worth the name: they are reported with their noise band (-repeat,
// -compare) and gate nothing. The driver reads them from the traced run's
// untraced half, among the per-layer rows. "Operation" is one replay run
// (sim-*: params in, Report out, host clock) or one invoke as its caller
// sees it (live-*: wall clock).
var wallClock = []metricDef{
	{"wall.requests_per_s", "1/s", higher, 0.25},
	{"wall.latency_p50_us", "us", lower, 0.25},
	{"wall.latency_p99_us", "us", lower, 0.25},
}

// untraced is everything a run with tracing off measures.
var untraced = append(append([]metricDef(nil), endToEnd...), wallClock...)

// perLayer comes from the traced run: benchmark-side spans, counts read
// through public accessors, and CPU-profile attribution (*.cpu_share). A
// metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{"wall.requests_per_s", "1/s", higher, 0},
	{"wall.latency_p50_us", "us", lower, 0},
	{"wall.latency_p99_us", "us", lower, 0},

	{"trace.build_s", "s", lower, 0},
	{"trace.stream_next_s", "s", lower, 0},
	{"trace.requests", "count", higher, 0},
	{"trace.cpu_share", "ratio", lower, 0},

	{"sim.events_fired", "count", lower, 0},
	{"sim.events_per_request", "count", lower, 0},
	{"sim.events_per_s", "1/s", higher, 0},
	{"sim.max_queue_len", "count", lower, 0},
	{"sim.cpu_share", "ratio", lower, 0},

	{"core.o3_dispatches", "count", higher, 0},
	{"core.starved", "count", lower, 0},
	{"core.local_queue_moves", "count", lower, 0},
	{"core.peak_local_queue", "count", lower, 0},
	{"core.batched_dispatches", "count", higher, 0},
	{"core.batched_members", "count", higher, 0},
	{"core.cpu_share", "ratio", lower, 0},

	{"cache.lookups", "count", lower, 0},
	{"cache.misses", "count", lower, 0},
	{"cache.false_misses", "count", lower, 0},
	{"cache.hit_ratio", "ratio", higher, 0},
	{"cache.cpu_share", "ratio", lower, 0},

	{"gpu.cpu_share", "ratio", lower, 0},
	{"gpumgr.cpu_share", "ratio", lower, 0},
	{"gpumgr.sm_utilization", "ratio", higher, 0},
	{"gpumgr.load_fraction", "ratio", lower, 0},

	{"chaos.gpu_failures", "count", lower, 0},
	{"chaos.interrupted", "count", lower, 0},
	{"chaos.retries", "count", lower, 0},

	{"cluster.new_s", "s", lower, 0},
	{"cluster.replay_s", "s", lower, 0},
	{"cluster.arena_peak_live", "count", lower, 0},
	{"cluster.arena_allocated", "count", lower, 0},
	{"cluster.ord_bound", "count", lower, 0},
	{"cluster.final_gpus", "count", higher, 0},
	{"cluster.sim_avg_latency_s", "s", lower, 0},
	{"cluster.sim_p95_latency_s", "s", lower, 0},
	{"cluster.cpu_share", "ratio", lower, 0},
	{"cluster.submit_overhead_us", "us", lower, 0},
	{"cluster.submit_allocs", "count", lower, 0},

	{"multicell.run_s", "s", lower, 0},
	{"multicell.cpu_per_wall", "ratio", higher, 0},
	{"multicell.min_cell_requests", "count", higher, 0},
	{"multicell.max_cell_requests", "count", lower, 0},
	{"multicell.cpu_share", "ratio", lower, 0},

	{"faas.http_self_us", "us", lower, 0},
	{"faas.gateway_self_us", "us", lower, 0},
	{"faas.inferclient_self_us", "us", lower, 0},
	{"faas.encode_us", "us", lower, 0},
	{"faas.invoke_allocs", "count", lower, 0},
	{"faas.predict_allocs", "count", lower, 0},
	{"faas.arena_allocated", "count", lower, 0},
	{"faas.arena_peak_live", "count", lower, 0},
	{"faas.admission_shed", "count", lower, 0},
	{"faas.enqueue_order_errors", "count", lower, 0},
	{"faas.ladder_residual_share", "ratio", lower, 0},
	{"faas.cpu_share", "ratio", lower, 0},
	{"net.http_cpu_share", "ratio", lower, 0},

	{"nn.predict_us", "us", lower, 0},
	{"nn.predict_allocs", "count", lower, 0},
	{"nn.predict_bytes", "B", lower, 0},
	{"nn.cpu_share", "ratio", lower, 0},

	{"datastore.records", "count", lower, 0},
	{"datastore.cpu_share", "ratio", lower, 0},

	{"go.gc_cpu_share", "ratio", lower, 0},
	{"go.num_gc", "count", lower, 0},
	{"go.peak_heap_mb", "MB", lower, 0},
	{"bench.run_s", "s", lower, 0},
	{"bench.samples", "count", higher, 0},
	{"bench.trace_overhead_share", "ratio", lower, 0},
}

// cpuShareLayers maps a package under gpufaas/internal/ to the *.cpu_share
// row that carries its CPU time. Helper packages with no row of their own
// (ordset, stats, models, obs, ...) are skipped during attribution, so
// their time lands on the layer that called them.
var cpuShareLayers = map[string]string{
	"trace":     "trace.cpu_share",
	"sim":       "sim.cpu_share",
	"core":      "core.cpu_share",
	"cache":     "cache.cpu_share",
	"gpu":       "gpu.cpu_share",
	"gpumgr":    "gpumgr.cpu_share",
	"cluster":   "cluster.cpu_share",
	"multicell": "multicell.cpu_share",
	"faas":      "faas.cpu_share",
	"nn":        "nn.cpu_share",
	"tensor":    "nn.cpu_share",
	"dataset":   "nn.cpu_share",
	"datastore": "datastore.cpu_share",
}

// metrics is one run's named values.
type metrics map[string]float64

// fill returns m restricted to defs, with absent metrics reading 0.
func (m metrics) fill(defs []metricDef) metrics {
	out := make(metrics, len(defs))
	for _, d := range defs {
		out[d.Name] = m[d.Name]
	}
	return out
}
