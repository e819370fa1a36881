package main

// metricSpec names one reported metric. BENCHMARK.json at the
// repository root lists the same names, units and directions; the
// smoke test keeps the two in step.
type metricSpec struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// moves names the end-to-end metric and workload a change in this
	// per-layer metric is predicted to move.
	moves string
}

// endToEnd are the metrics a user of the server sees, reported by every
// workload from an untraced run. Every workload reads, so every one has
// read latencies and a read capacity; ingest latency is reported per
// layer because the stream workload does not ingest.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "read_p50_ms", unit: "ms", better: "lower"},
	{name: "read_p90_ms", unit: "ms", better: "lower"},
	{name: "read_rps", unit: "1/s", better: "higher"},
	{name: "slo_frac", unit: "frac", better: "higher"},
	{name: "server_heap_mb", unit: "MB", better: "lower"},
}

// perLayer are the traced run's metrics. Each workload reports all of
// them; a layer the workload does not use reports 0.
var perLayer = []metricSpec{
	{name: "serve.handler_p50_ms", unit: "ms", better: "lower", moves: "online.read_p50_ms, online.read_rps; flat on stream"},
	{name: "serve.handler_p99_ms", unit: "ms", better: "lower", moves: "online.read_p90_ms"},
	{name: "serve.transport_p50_ms", unit: "ms", better: "lower", moves: "online.read_p50_ms, online.read_rps; flat on stream"},
	{name: "serve.ingest_p50_ms", unit: "ms", better: "lower", moves: "mixed ingest latency (client side)"},
	{name: "serve.ingest_p99_ms", unit: "ms", better: "lower", moves: "mixed ingest latency (client side)"},

	{name: "batcher.queue_wait_p50_us", unit: "us", better: "lower", moves: "online.read_p50_ms, online.read_rps; zero effect on stream"},
	{name: "batcher.queue_wait_p99_us", unit: "us", better: "lower", moves: "online.read_p90_ms"},
	{name: "batcher.coalesce_ratio", unit: "frac", better: "higher", moves: "online.read_rps"},
	{name: "batcher.occupancy_mean", unit: "targets", better: "higher", moves: "online.read_rps"},
	{name: "batcher.passes_per_read", unit: "count", better: "lower", moves: "online.read_p50_ms, online.read_rps"},

	{name: "shard.leg_p50_ms", unit: "ms", better: "lower", moves: "online.read_p90_ms; stream and mixed have no router"},
	{name: "shard.leg_p99_ms", unit: "ms", better: "lower", moves: "online.read_p90_ms"},
	{name: "shard.fanout_mean", unit: "shards", better: "lower", moves: "online.read_p90_ms"},
	{name: "shard.leg_time_frac", unit: "frac", better: "lower", moves: "online.read_p90_ms"},
	{name: "shard.routed_around", unit: "count", better: "lower", moves: "online.read_p90_ms (expected 0)"},
	{name: "shard.hedges", unit: "count", better: "lower", moves: "online.read_p90_ms (expected 0)"},

	{name: "core.sample_us_per_target", unit: "us", better: "lower", moves: "stream.read_rps"},
	{name: "core.dedup_us_per_target", unit: "us", better: "lower", moves: "stream.read_rps"},
	{name: "core.cache_lookup_us_per_target", unit: "us", better: "lower", moves: "online.read_p50_ms"},
	{name: "core.time_encode_us_per_target", unit: "us", better: "lower", moves: "stream.read_rps"},
	{name: "core.attention_us_per_target", unit: "us", better: "lower", moves: "stream.read_rps, mixed.read_p90_ms"},
	{name: "core.cache_store_us_per_target", unit: "us", better: "lower", moves: "stream.read_rps"},
	{name: "core.feat_lookup_us_per_target", unit: "us", better: "lower", moves: "stream.read_rps"},
	{name: "core.hit_rate.l1", unit: "frac", better: "higher", moves: "stream.read_rps"},
	{name: "core.hit_rate.l2", unit: "frac", better: "higher", moves: "mixed.read_p90_ms, mixed.read_rps"},
	{name: "core.spill_hit_rate", unit: "frac", better: "higher", moves: "online.read_p50_ms"},
	{name: "core.admit_rejected_frac", unit: "frac", better: "lower", moves: "online.read_p50_ms"},
	{name: "core.dedup_ratio", unit: "ratio", better: "higher", moves: "stream.read_rps"},
	{name: "core.stale_store_skips_per_pass", unit: "count", better: "lower", moves: "mixed.read_p90_ms, mixed.read_rps"},
	{name: "core.invalidated_per_edge", unit: "count", better: "lower", moves: "mixed.read_p90_ms, mixed.read_rps"},
	{name: "core.cache_bytes", unit: "B", better: "lower", moves: "server_heap_mb"},

	{name: "graph.late_frac", unit: "frac", better: "lower", moves: "mixed ingest latency"},
	{name: "graph.dropped_frac", unit: "frac", better: "lower", moves: "mixed ingest latency"},
	{name: "graph.ingest_us_per_edge", unit: "us", better: "lower", moves: "mixed ingest latency"},

	{name: "tgat.attention_us_per_row", unit: "us", better: "lower", moves: "stream.read_rps, mixed.read_p90_ms"},
	{name: "tensor.gflops.f32", unit: "GFLOP/s", better: "higher", moves: "stream.read_rps"},
	{name: "tensor.gflops.int8", unit: "GFLOP/s", better: "higher", moves: "mixed.read_p90_ms"},
	{name: "tensor.flops_per_edge", unit: "flop", better: "lower", moves: "stream.read_rps"},

	{name: "loadgen.lateness_p99_ms", unit: "ms", better: "lower", moves: "validity of the online open-loop phase"},
	{name: "trace.unattributed_frac", unit: "frac", better: "lower", moves: "attribution quality"},
	{name: "trace.overhead_frac", unit: "frac", better: "lower", moves: "attribution quality"},
}
