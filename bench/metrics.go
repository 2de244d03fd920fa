package main

// The benchmark's fixed vocabulary: workloads, end-to-end metrics and
// per-layer metrics. Later issues cite these names verbatim, so they are
// append-only. BENCHMARK.json at the repository root is generated from
// these tables (go test ./bench -run TestBenchmarkJSON -update) and a test
// keeps the two in step.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"figs_vivaldi", "Regenerates six Vivaldi figures at quick: dozens of <=220-node units in the unit lane, so unit build, seed derivation, taps, campaign dispatch and hardening dominate."},
	{"vivaldi_5k", "One 5000-node unit in the shard lane over a dense 200 MB substrate: tick kernel, RTTPairs and taps dominate, build is ~15%; a unit-lane gain that costs the shard lane shows here."},
	{"figs_nps", "fig21 at quick: the only workload where optimize/gnp/nps do the work (Solver.Minimize); every Vivaldi layer idles."},
	{"live_1740", "live1740 at bench pacing: the only workload through the simnet scheduler, the wire codec and daemon.SimNode; memory-backend kernels idle."},
	{"serve_read", "NearestK and EstimateRTT on a converged 50k-node population while a 20 Hz publisher swaps snapshots: an index that answers faster but builds slower moves publish_ms the wrong way in the same run."},
	{"serve_exiled", "serve_read with 16 nodes at the paper's 50000 ms exile radius: the bounding-box grid collapses to one cell, so knn_p50_us must move here and not on serve_read."},
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only: allowed relative worsening of the median
	Layer  string  `json:"-"`     // per-layer only: the module measured
	Moves  string  `json:"-"`     // per-layer only: the end-to-end metric and workload it should move
	Doc    string  `json:"-"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// Every workload reports every end-to-end metric, because the driver's
// contract keys its bounds on (metric, workload). Where a metric is not
// native to a workload it is measured on that workload's own population:
// the sim workloads serve a representative unit of theirs for a few short
// windows (so the serve metrics form a population-size sweep 220 / 1740 /
// 5000 / 50000), and the serve workloads report one window as their
// iteration.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25,
		Doc: "set-up: the process's first, cold iteration (sim) or population build, convergence and ring, median of three (serve)"},
	{Name: "setup_mb", Unit: "MB", Better: lower, Bound: 0.05,
		Doc: "live heap after set-up and a forced GC"},
	{Name: "wall_s", Unit: "s", Better: lower, Bound: 0.10,
		Doc: "seconds per iteration, median (serve workloads: per window)"},
	{Name: "allocs_per_run", Unit: "count", Better: lower, Bound: 0.01,
		Doc: "MemStats.Mallocs delta per iteration, minimum (the runtime's own bookkeeping only adds)"},
	{Name: "alloc_mb_per_run", Unit: "MB", Better: lower, Bound: 0.02,
		Doc: "MemStats.TotalAlloc delta per iteration, minimum"},
	{Name: "node_ticks_per_s", Unit: "1/s", Better: higher, Bound: 0.10,
		Doc: "simulated node-ticks (exact count) / wall_s (serve workloads: node coordinates published per second)"},
	{Name: "qps", Unit: "1/s", Better: higher, Bound: 0.10,
		Doc: "individual queries / window wall, median of windows"},
	{Name: "knn_p50_us", Unit: "us", Better: lower, Bound: 0.10,
		Doc: "per-query timed NearestK, median of per-window p50"},
	{Name: "knn_p99_us", Unit: "us", Better: lower, Bound: 0.25,
		Doc: "per-query timed NearestK, median of per-window p99"},
	{Name: "rtt_ns", Unit: "ns", Better: lower, Bound: 0.20,
		Doc: "ns per EstimateRTT (batch of 16 timed, / 16), median"},
	{Name: "publish_ms", Unit: "ms", Better: lower, Bound: 0.20,
		Doc: "ms per Publish under read load, median"},
}

// figsVivaldiIDs is the figure set of the figs_vivaldi workload.
var figsVivaldiIDs = []string{"fig01", "fig03", "fig09", "extC", "campaignFull", "hardenedGridFrog"}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	l := func(layer, name, unit, moves string) metricDef {
		return metricDef{Name: layer + "." + name, Unit: unit, Better: lower, Layer: layer, Moves: moves}
	}
	out := []metricDef{
		l("latency", "model_build_ms", "ms", "setup_s on vivaldi_5k, serve_*"),
		l("latency", "materialize_5k_s", "s", "setup_s on vivaldi_5k"),
		l("latency", "rtt_pairs_dense_ns", "ns", "wall_s on vivaldi_5k"),
		l("latency", "rtt_from_model_ns", "ns", "setup_s on serve_* (50k convergence on the model substrate)"),
		l("coordspace", "dist_many_ns", "ns", "wall_s on vivaldi_5k (measure pass)"),
		l("coordspace", "copy_50k_us", "us", "publish_ms on serve_*"),
		l("randx", "new_derived_ns", "ns", "wall_s, allocs_per_run on figs_vivaldi; none on figs_nps, live_1740"),
		l("metrics", "peer_sets_ms", "ms", "wall_s on figs_vivaldi, vivaldi_5k"),
		l("metrics", "measure_5k_ms", "ms", "wall_s on vivaldi_5k"),
		l("vivaldi", "build_220_ms", "ms", "wall_s on figs_vivaldi"),
		l("vivaldi", "step_220_us", "us", "wall_s on figs_vivaldi"),
		l("vivaldi", "step_hardened_220_us", "us", "wall_s on figs_vivaldi"),
		l("vivaldi", "build_5k_ms", "ms", "wall_s on vivaldi_5k"),
		l("vivaldi", "step_5k_ms", "ms", "wall_s on vivaldi_5k"),
		l("vivaldi", "step_5k_attacked_ms", "ms", "wall_s on vivaldi_5k"),
		l("vivaldi", "step_allocs", "count", "allocs_per_run on figs_vivaldi, vivaldi_5k"),
		l("vivaldi", "step_attacked_allocs", "count", "allocs_per_run on figs_vivaldi, vivaldi_5k"),
		l("core", "tap_allocs_per_probe", "count", "allocs_per_run on figs_vivaldi, vivaldi_5k"),
		l("core", "select_inject_ms", "ms", "wall_s on figs_vivaldi"),
		l("engine", "unit_5k_s", "s", "wall_s on vivaldi_5k"),
		l("engine", "unit_5k_self_s", "s", "wall_s on vivaldi_5k"),
		l("engine", "scenario_self_s", "s", "wall_s on vivaldi_5k"),
		l("engine", "foreach_5k_us", "us", "wall_s on vivaldi_5k"),
		{Name: "engine.speedup_units", Unit: "x", Better: higher, Layer: "engine", Moves: "wall_s on figs_vivaldi only"},
		{Name: "engine.speedup_shards", Unit: "x", Better: higher, Layer: "engine", Moves: "wall_s on vivaldi_5k only"},
	}
	for _, id := range figsVivaldiIDs {
		out = append(out,
			l("experiment", id+"_s", "s", "wall_s on figs_vivaldi (the six sum to it)"),
			l("experiment", id+"_allocs", "count", "allocs_per_run on figs_vivaldi (the six sum to it)"))
	}
	return append(out,
		l("report", "csv_us", "us", "wall_s on figs_vivaldi (expected negligible)"),
		l("nps", "build_220_s", "s", "wall_s on figs_nps only"),
		l("gnp", "solve_landmarks_s", "s", "wall_s on figs_nps only"),
		l("nps", "round_220_ms", "ms", "wall_s on figs_nps only"),
		l("nps", "round_allocs", "count", "allocs_per_run on figs_nps only"),
		l("gnp", "position_us", "us", "wall_s on figs_nps only"),
		l("optimize", "minimize_us", "us", "wall_s on figs_nps only"),
		l("optimize", "iters_per_solve", "count", "wall_s on figs_nps only"),
		l("wire", "append_response_ns", "ns", "wall_s on live_1740 only"),
		l("wire", "decode_into_ns", "ns", "wall_s on live_1740 only"),
		l("simnet", "timer_event_ns", "ns", "wall_s on live_1740 only"),
		l("simnet", "packet_ns", "ns", "wall_s on live_1740 only"),
		l("daemon", "build_1740_ms", "ms", "wall_s on live_1740 only"),
		l("daemon", "tick_1740_ms", "ms", "wall_s on live_1740 only"),
		l("daemon", "tick_attacked_1740_ms", "ms", "wall_s on live_1740 only"),
		l("daemon", "tick_allocs", "count", "allocs_per_run on live_1740 only"),
		l("serve", "publish_50k_ms", "ms", "publish_ms on serve_*"),
		l("serve", "publish_allocs", "count", "publish_ms, allocs_per_run on serve_*"),
		l("serve", "knn_k1_us", "us", "knn_p50_us, qps on serve_read"),
		l("serve", "knn_k16_us", "us", "knn_p50_us, knn_p99_us, qps on serve_read"),
		l("serve", "knn_p999_us", "us", "knn_p99_us on serve_read"),
		l("serve", "knn_allocs", "count", "qps on serve_*"),
		l("serve", "knn_exiled_us", "us", "knn_p50_us, knn_p99_us, qps on serve_exiled"),
		l("serve", "knn_linear_us", "us", "none: the oracle, the floor a collapsed index falls to"),
		l("serve", "knn_height_us", "us", "none yet: converged 2-D+height population, already at linear cost"),
		l("serve", "rtt_ns", "ns", "rtt_ns on serve_*"),
		l("bench", "trace_overhead_frac", "frac", "none: (traced - untraced) / untraced wall of the vivaldi_5k unit driver"),
	)
}

// runSeconds is how long the driver lets one run measure.
const runSeconds = 10

// declaration is BENCHMARK.json: exactly the keys the driver's contract
// names. What the contract has no key for — a metric's layer, what it
// should move, which workloads it is native to — is in -list and README.md.
func declaration() any {
	type layerMetric struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	layers := make([]layerMetric, len(perLayer))
	for i, m := range perLayer {
		layers[i] = layerMetric{m.Name, m.Unit, m.Better}
	}
	return struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []layerMetric `json:"per_layer"`
	}{[]string{"go", "run", "./bench"}, []string{"bench"}, runSeconds, workloads, endToEnd, layers}
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
