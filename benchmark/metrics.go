package main

import "fmt"

// metricDef declares one metric the way BENCHMARK.json lists it.
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse; per-layer metrics have none. floor is the least
	// the issue that defined the benchmark would let the bound be.
	bound, floor float64
}

// boundCeiling is the widest bound the benchmark contract accepts.
const boundCeiling = 0.25

// endToEnd is every metric the untraced run reports, on every workload. A
// bound holds for all four workloads, so the noisiest sizes it. The rule,
// which -aa applies to its own readings (the "needs" column of the table in
// README.md): at least the floor, twice the largest difference between the
// medians of sets of runs of unchanged code, and three times the quartile
// spread of those runs; at most the ceiling.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, 0.15},
	{"qps", "1/s", "higher", 0.25, 0.10},
	{"knn_p50_ms", "ms", "lower", 0.25, 0.10},
	{"knn_p90_ms", "ms", "lower", 0.25, 0.15},
	{"range_p50_ms", "ms", "lower", 0.25, 0.10},
	{"distance_p50_ms", "ms", "lower", 0.25, 0.10},
	{"server_cpu_ms_per_op", "ms", "lower", 0.25, 0.10},
}

// perLayer is every metric the traced run reports, in ladder order from the
// client down. A workload whose deployment lacks a layer reports that
// layer's metrics as 0; see README.md for which is which.
var perLayer = []metricDef{
	{name: "silcserve.roundtrip_us", unit: "us", better: "lower"},
	{name: "silcserve.self_us", unit: "us", better: "lower"},
	{name: "silcserve.resp_bytes_per_op", unit: "bytes", better: "lower"},
	{name: "silcserve.rss_mb", unit: "MiB", better: "lower"},
	{name: "batch_p50_ms", unit: "ms", better: "lower"},
	{name: "mutate_p50_ms", unit: "ms", better: "lower"},
	{name: "image_bytes_per_vertex", unit: "bytes", better: "lower"},

	{name: "engine.knn_us", unit: "us", better: "lower"},
	{name: "engine.range_us", unit: "us", better: "lower"},
	{name: "engine.distance_us", unit: "us", better: "lower"},
	{name: "engine.self_us", unit: "us", better: "lower"},
	{name: "engine.allocs_per_op", unit: "count", better: "lower"},
	{name: "engine.batch2_speedup", unit: "ratio", better: "higher"},

	{name: "knn.search_us", unit: "us", better: "lower"},
	{name: "knn.range_us", unit: "us", better: "lower"},
	{name: "knn.refinements_per_op", unit: "count", better: "lower"},
	{name: "knn.lookups_per_op", unit: "count", better: "lower"},
	{name: "knn.heap_pushes_per_op", unit: "count", better: "lower"},
	{name: "knn.rank_defects", unit: "count", better: "lower"},

	{name: "core.interval_ns", unit: "ns", better: "lower"},
	{name: "core.refine_step_ns", unit: "ns", better: "lower"},
	{name: "core.distance_us", unit: "us", better: "lower"},
	{name: "core.build_vertices_per_s", unit: "1/s", better: "higher"},
	{name: "core.blocks_per_vertex", unit: "count", better: "lower"},

	{name: "pqueue.push_pop_ns", unit: "ns", better: "lower"},
	{name: "pmr.build_us_per_1k", unit: "us", better: "lower"},
	{name: "sssp.dijkstra_us", unit: "us", better: "lower"},

	{name: "store.decode_run_us", unit: "us", better: "lower"},
	{name: "store.tree_cold_us", unit: "us", better: "lower"},
	{name: "store.tree_warm_ns", unit: "ns", better: "lower"},
	{name: "store.tree_cold_mmap_us", unit: "us", better: "lower"},
	{name: "store.page_reads_per_op", unit: "count", better: "lower"},
	{name: "store.blocks_decoded_per_op", unit: "count", better: "lower"},
	{name: "store.image_ratio", unit: "ratio", better: "higher"},

	{name: "diskio.touch_hit_ns", unit: "ns", better: "lower"},
	{name: "diskio.touch_miss_evict_ns", unit: "ns", better: "lower"},
	{name: "diskio.hit_rate", unit: "ratio", better: "higher"},
	{name: "diskio.evictions_per_op", unit: "count", better: "lower"},

	{name: "partition.distance_same_cell_us", unit: "us", better: "lower"},
	{name: "partition.distance_cross_cell_us", unit: "us", better: "lower"},
	{name: "partition.knn_vs_mono", unit: "ratio", better: "lower"},
	{name: "partition.gateway_routes_per_op", unit: "count", better: "lower"},
	{name: "partition.build_s", unit: "s", better: "lower"},

	{name: "cluster.rpc_roundtrip_us", unit: "us", better: "lower"},
	{name: "cluster.json_codec_us", unit: "us", better: "lower"},
	{name: "cluster.rpcs_per_knn", unit: "count", better: "lower"},
	{name: "cluster.rpcs_per_range", unit: "count", better: "lower"},
	{name: "cluster.rpcs_per_distance", unit: "count", better: "lower"},
	{name: "cluster.router_cpu_share", unit: "ratio", better: "lower"},

	{name: "objstore.mutation_us", unit: "us", better: "lower"},
	{name: "objstore.mutation_scaling", unit: "ratio", better: "lower"},
	{name: "objstore.view_rebuild_us", unit: "us", better: "lower"},
	{name: "objstore.watch_lag_us", unit: "us", better: "lower"},

	{name: "obs.trace_overhead", unit: "ratio", better: "lower"},
	{name: "ladder.knn_model_ratio", unit: "ratio", better: "higher"},
	{name: "ladder.coverage", unit: "ratio", better: "higher"},
}

// layerMetrics collects the traced run's numbers against the declared list,
// so that a misspelt name fails at once and every declared metric is
// printed, 0 where the workload has nothing to say.
type layerMetrics struct {
	out    *outcome
	values map[string]float64
	// What the knn model needs beyond the declared metrics: the page reads
	// the replay's kNN ops caused at the knn layer, and what one cold page
	// read costs the store.
	knnQueries, knnReads int64
	coldReadMicros       float64
}

func newLayerMetrics(out *outcome) *layerMetrics {
	lm := &layerMetrics{out: out, values: make(map[string]float64, len(perLayer))}
	for _, d := range perLayer {
		lm.values[d.name] = 0
	}
	return lm
}

func (lm *layerMetrics) set(name string, v float64) {
	if _, ok := lm.values[name]; !ok {
		panic(fmt.Sprintf("undeclared per-layer metric %q", name))
	}
	lm.values[name] = v
}

func (lm *layerMetrics) get(name string) float64 {
	v, ok := lm.values[name]
	if !ok {
		panic(fmt.Sprintf("undeclared per-layer metric %q", name))
	}
	return v
}

func (lm *layerMetrics) emit() {
	for _, d := range perLayer {
		lm.out.add(d.name, lm.values[d.name], d.unit, 0)
	}
}

// finishLadder adds the two numbers that tie the rungs together, over the
// kNN ops of the replay. The knn rung is modelled from its counts times the
// micro-costs of the layers below it; the server rung is the measured
// silcserve self time, except on a cluster, where it is modelled as RPCs per
// kNN times one loopback RPC. coverage is then the share of the client's kNN
// round trip the rungs add up to.
func (lm *layerMetrics) finishLadder(tr *tracer, w *workload) {
	model := (lm.get("knn.lookups_per_op")*lm.get("core.interval_ns") +
		lm.get("knn.refinements_per_op")*lm.get("core.refine_step_ns") +
		lm.get("knn.heap_pushes_per_op")*lm.get("pqueue.push_pop_ns")) / 1e3
	if reads, n := lm.knnReads, lm.knnQueries; n > 0 {
		model += float64(reads) / float64(n) * lm.coldReadMicros
	}
	if search := lm.get("knn.search_us"); search > 0 {
		lm.set("ladder.knn_model_ratio", model/search)
	}
	roundtrip, _ := tr.mean(named("silcserve.knn"))
	server, _ := tr.meanSelf(named("silcserve.knn"), named("engine.knn"))
	if w.layers["cluster"] {
		server = lm.get("cluster.rpcs_per_knn") * lm.get("cluster.rpc_roundtrip_us")
	}
	if roundtrip > 0 {
		lm.set("ladder.coverage", (server+lm.get("engine.self_us")+model)/roundtrip)
	}
}
