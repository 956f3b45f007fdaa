package main

import "slices"

// metricDef describes one metric popbench reports.
type metricDef struct {
	name, unit, better string
	// bound is the share of the baseline's median by which the metric
	// may get worse before -compare calls it worse. A bound is at most
	// 0.10, except setup_s's (see README.md); 0 leaves a metric
	// unbounded, because it did not repeat within 0.10 or, for
	// failed_frac, because it is 0 on a correct run.
	bound float64
	// on lists the workloads that report the metric; nil means all.
	on []string
	// moves names, for a per-layer metric, the end-to-end metric it
	// should move and the workloads where it should.
	moves string
}

var (
	readers = []string{"mem-read", "lazy-scan"}
	writers = []string{"mem-churn", "durable-ingest"}
	durable = []string{"lazy-scan", "durable-ingest"}
)

// endToEnd lists the metrics a table user sees, all from untraced runs.
// Those every workload reports and that carry a bound are the ones
// BENCHMARK.json bounds and an untraced run's result line carries.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "throughput_ops", unit: "ops/s", better: "higher"},
	{name: "heap_mb", unit: "MB", better: "lower", bound: 0.05},
	{name: "get_p50_us", unit: "us", better: "lower"},
	{name: "get_p99_us", unit: "us", better: "lower"},
	{name: "count_p50_us", unit: "us", better: "lower"},
	{name: "count_p99_us", unit: "us", better: "lower"},
	{name: "failed_frac", unit: "ratio", better: "lower"},
	{name: "getbatch_p50_us", unit: "us", better: "lower", on: readers},
	{name: "window_p50_us", unit: "us", better: "lower", on: readers},
	{name: "window_p99_us", unit: "us", better: "lower", on: readers},
	{name: "knn_p50_us", unit: "us", better: "lower", on: readers},
	{name: "write_p50_us", unit: "us", better: "lower", on: writers},
	{name: "write_p99_us", unit: "us", better: "lower", on: writers},
	{name: "insertbatch_p50_us", unit: "us", better: "lower", on: []string{"durable-ingest"}},
	{name: "insertbatch_p99_us", unit: "us", better: "lower", on: []string{"durable-ingest"}},
	{name: "space_amp", unit: "ratio", better: "lower", bound: 0.10, on: durable},
	{name: "recover_s", unit: "s", better: "lower", on: durable},
}

// perLayer lists the metrics a traced run derives from its spans, the
// table's Cost, Stats and Explain, and the layer replays. Every
// workload reports every one of them.
var perLayer = []metricDef{
	{name: "spatialdb.get_residue_ns", unit: "ns", better: "lower", moves: "get_p50_us @ mem-read, lazy-scan"},
	{name: "spatialdb.count_residue_ns", unit: "ns", better: "lower", moves: "count_p50_us @ mem-read"},
	{name: "spatialdb.window_residue_ns", unit: "ns", better: "lower", moves: "window_p50_us @ mem-read"},
	{name: "spatialdb.nodes_per_count", unit: "count", better: "lower", moves: "count_p50_us @ mem-read, mem-churn"},
	{name: "spatialdb.scanned_per_result", unit: "ratio", better: "lower", moves: "window_p50_us @ mem-read, lazy-scan"},
	{name: "spatialdb.blocks_per_window", unit: "count", better: "lower", moves: "window_p50_us @ lazy-scan"},
	{name: "spatialdb.ns_per_predicted_block", unit: "ns", better: "lower", moves: "window_p50_us @ all readers"},
	{name: "spatialdb.getbatch_ns_per_probe", unit: "ns", better: "lower", moves: "getbatch_p50_us @ mem-read, lazy-scan"},
	{name: "spatialdb.disk_runs_max", unit: "count", better: "lower", moves: "recover_s @ durable-ingest"},
	{name: "spatialdb.self_us", unit: "us", better: "lower", moves: "the p50s @ all"},
	{name: "core.solve_ms", unit: "ms", better: "lower", moves: "setup_s @ all"},
	{name: "core.explain_block_error", unit: "ratio", better: "lower", moves: "none: a canary for the model"},
	{name: "linearquad.get_ns", unit: "ns", better: "lower", moves: "get_p50_us @ mem-read"},
	{name: "linearquad.count_ns", unit: "ns", better: "lower", moves: "count_p50_us @ mem-read"},
	{name: "linearquad.range_ns", unit: "ns", better: "lower", moves: "window_p50_us @ mem-read"},
	{name: "linearquad.getbatch_ns_per_probe", unit: "ns", better: "lower", moves: "getbatch_p50_us @ mem-read"},
	{name: "linearquad.freeze_ms", unit: "ms", better: "lower", moves: "setup_s @ mem-read"},
	{name: "linearquad.freeze_delta_ms", unit: "ms", better: "lower", moves: "count_p99_us, write_p99_us @ mem-churn"},
	{name: "linearquad.self_us", unit: "us", better: "lower", moves: "the p50s @ mem-read"},
	{name: "quadtree.insert_ns", unit: "ns", better: "lower", moves: "write_p50_us @ mem-churn, durable-ingest"},
	{name: "quadtree.delete_ns", unit: "ns", better: "lower", moves: "write_p50_us @ mem-churn, durable-ingest"},
	{name: "quadtree.get_ns", unit: "ns", better: "lower", moves: "get_p50_us @ mem-churn"},
	{name: "quadtree.count_ns", unit: "ns", better: "lower", moves: "count_p50_us @ mem-churn"},
	{name: "quadtree.self_us", unit: "us", better: "lower", moves: "the p50s @ mem-churn, durable-ingest"},
	{name: "segment.find_ns", unit: "ns", better: "lower", moves: "get_p50_us @ lazy-scan"},
	{name: "segment.block_hit_ns", unit: "ns", better: "lower", moves: "get_p50_us @ lazy-scan"},
	{name: "segment.block_miss_us", unit: "us", better: "lower", moves: "get_p99_us, window_p99_us @ lazy-scan"},
	{name: "segment.seek_us", unit: "us", better: "lower", moves: "window_p50_us, count_p50_us @ lazy-scan"},
	{name: "segment.cache_hit_ratio", unit: "ratio", better: "higher", moves: "get_p50_us @ lazy-scan"},
	{name: "segment.filter_prune_ratio", unit: "ratio", better: "higher", moves: "window_p50_us @ lazy-scan"},
	{name: "segment.write_ms_per_mib", unit: "ms/MiB", better: "lower", moves: "write_p99_us @ durable-ingest"},
	{name: "segment.runs_per_shard_max", unit: "count", better: "lower", moves: "recover_s @ durable-ingest"},
	{name: "segment.self_us", unit: "us", better: "lower", moves: "the p50s @ lazy-scan"},
	{name: "wal.append_ns", unit: "ns", better: "lower", moves: "write_p50_us @ durable-ingest"},
	{name: "wal.sync_ms", unit: "ms", better: "lower", moves: "write_p99_us @ durable-ingest"},
	{name: "wal.fold_ms_per_mib", unit: "ms/MiB", better: "lower", moves: "recover_s @ durable-ingest"},
	{name: "wal.bytes_max", unit: "bytes", better: "lower", moves: "recover_s @ durable-ingest"},
	{name: "process.allocs_per_op", unit: "count", better: "lower", moves: "the p99s, throughput_ops @ all"},
	{name: "process.gc_cpu_frac", unit: "ratio", better: "lower", moves: "the p99s, throughput_ops @ all"},
	{name: "process.write_amp", unit: "ratio", better: "lower", moves: "write_p50_us, space_amp @ durable-ingest"},
	{name: "process.read_bytes_per_op", unit: "bytes", better: "lower", moves: "get_p50_us, window_p50_us @ lazy-scan"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower", moves: "none: the cost of tracing itself"},
}

// appliesTo reports whether workload w reports the metric.
func (d metricDef) appliesTo(w string) bool { return d.on == nil || slices.Contains(d.on, w) }

// resultMetrics returns the metrics a result line carries: for an
// untraced run the bounded end-to-end metrics every workload reports,
// as BENCHMARK.json lists them under end_to_end; for a traced run the
// end-to-end metrics every workload reports that are too noisy to
// bound, then the per-layer metrics, as it lists them under per_layer.
func resultMetrics(trace bool) []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if d.on == nil && d.name != "failed_frac" && (d.bound > 0) != trace {
			out = append(out, d)
		}
	}
	if trace {
		out = append(out, perLayer...)
	}
	return out
}

// defOf returns a metric's definition.
func defOf(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// unitOf returns a metric's unit.
func unitOf(name string) string {
	d, _ := defOf(name)
	return d.unit
}
