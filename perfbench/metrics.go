package main

// endToEnd lists the metrics every workload reports on an untraced run
// (--trace 0). They are the same three on every workload; what a
// request and its work are depends on the workload (workload.unit).
// The tail latency is printed with them but reported as a per-layer
// metric: on a shared host its run-to-run spread is wider than any
// bound a regression gate could hold it to.
var endToEnd = []metricDef{
	{name: "throughput_per_s", unit: "1/s", better: "higher"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

// metricDef names one reported metric. workload and moves document, for
// a per-layer metric, the workload that exercises the layer and the
// end-to-end metric a change to the layer should move there.
type metricDef struct {
	name, unit, better string
	workload           string
	moves              string
}

// Workload groups for the per-layer table: every workload reports
// every metric; allRows marks the ones every workload measures, and
// serveRows the ones both serving-tier workloads measure.
const (
	allRows   = "all"
	serveRows = "serve,fresh"
)

// perLayer lists the metrics a traced run (--trace 1) reports. Every
// traced run reports all of them; a layer the workload does not enter
// reads 0.
var perLayer = []metricDef{
	// The tail latency of the untraced half (the highest percentile
	// with ten samples beyond it), its percentile and sample base, and
	// the tracing overhead.
	{"latency_tail_ms", "ms", "lower", allRows, "latency_p50_ms"},
	{"latency_tail_pct", "%", "higher", allRows, "latency_p50_ms"},
	{"latency_samples", "count", "higher", allRows, "latency_p50_ms"},
	{"trace.overhead.throughput", "ratio", "lower", allRows, "throughput_per_s"},
	{"trace.overhead.latency_p50", "ratio", "lower", allRows, "latency_p50_ms"},
	{"trace.overhead.latency_tail", "ratio", "lower", allRows, "latency_p50_ms"},

	// serve: wire layers, coordinator, WAL, workers.
	{"coord.http.post_ms", "ms", "lower", serveRows, "latency_p50_ms"},
	{"coord.http.polls_per_batch", "count", "lower", "serve", "latency_p50_ms"},
	{"coord.http.useful_poll_share", "ratio", "higher", "serve", "latency_p50_ms"},
	{"worker.http.post_ms", "ms", "lower", serveRows, "latency_p50_ms"},
	{"worker.http.polls_per_dispatch", "count", "lower", serveRows, "latency_p50_ms"},
	{"worker.http.useful_poll_share", "ratio", "higher", serveRows, "latency_p50_ms"},
	{"coordinator.self_ms", "ms", "lower", serveRows, "latency_p50_ms"},
	{"coordinator.dispatches_per_request", "count", "lower", serveRows, "latency_p50_ms"},
	{"coordinator.requeues", "count", "lower", serveRows, "latency_p50_ms"},
	{"coordinator.cache_hit_share", "ratio", "higher", serveRows, "latency_p50_ms"},
	{"wal.append_us", "us", "lower", serveRows, "latency_p50_ms"},
	{"wal.appends_per_request", "count", "lower", serveRows, "latency_p50_ms"},
	{"service.cache_hit_share", "ratio", "higher", serveRows, "throughput_per_s"},
	{"service.plan_cache_hit_share", "ratio", "higher", serveRows, "throughput_per_s"},
	{"service.run_ms_per_request", "ms", "lower", serveRows, "throughput_per_s"},
	{"client.compile_us", "us", "lower", serveRows, "latency_p50_ms"},
	{"alloc_bytes_per_request", "B", "lower", serveRows, "throughput_per_s"},

	// serve, replayed one layer below the workers: Simulator driver,
	// plan, pool checkout, machine timeline, chip kernels.
	{"driver.base_us_per_run", "us", "lower", serveRows, "throughput_per_s"},
	{"driver.self_us_per_run", "us", "lower", serveRows, "throughput_per_s"},
	{"plan.build_us", "us", "lower", serveRows, "latency_p50_ms"},
	{"plan.fused_site_share", "ratio", "higher", serveRows, "throughput_per_s"},
	{"core.checkout_us_per_run", "us", "lower", serveRows, "throughput_per_s"},
	{"machine.ns_per_shot", "ns", "lower", serveRows, "throughput_per_s"},
	{"microarch.self_ns_per_shot", "ns", "lower", serveRows, "throughput_per_s"},
	{"microarch.ns_per_device_op", "ns", "lower", serveRows, "throughput_per_s"},
	{"quantum.kernel_ns_per_shot", "ns", "lower", serveRows, "throughput_per_s"},
	{"quantum.kernel_calls_per_shot", "count", "lower", serveRows, "throughput_per_s"},
	{"stabilizer.kernel_ns_per_shot", "ns", "lower", serveRows, "throughput_per_s"},
	{"stabilizer.kernel_calls_per_shot", "count", "lower", serveRows, "throughput_per_s"},

	// Client compiles, replayed one layer below the public front ends.
	{"cqasm.parse_ns_per_gate", "ns", "lower", serveRows, "latency_p50_ms"},
	{"openqasm.parse_ns_per_gate", "ns", "lower", serveRows, "latency_p50_ms"},
	{"compiler.validate.ns_per_gate", "ns", "lower", serveRows, "latency_p50_ms"},
	{"compiler.schedule-asap.ns_per_gate", "ns", "lower", serveRows, "latency_p50_ms"},
	{"compiler.pack.ns_per_gate", "ns", "lower", serveRows, "latency_p50_ms"},
	{"compiler.regalloc.ns_per_gate", "ns", "lower", serveRows, "latency_p50_ms"},
	{"compiler.timing.ns_per_gate", "ns", "lower", serveRows, "latency_p50_ms"},
	{"compiler.emit.ns_per_gate", "ns", "lower", serveRows, "latency_p50_ms"},
	{"isa.encode_ns_per_word", "ns", "lower", serveRows, "latency_p50_ms"},
	{"isa.decode_ns_per_word", "ns", "lower", serveRows, "latency_p50_ms"},
}

// compilerPasses are the pass names of the pipeline the public
// compilers run for the two-qubit chip by default (no mapping, ASAP
// schedule); each gets a compiler.<pass>.ns_per_gate metric above.
var compilerPasses = []string{"validate", "schedule-asap", "pack", "regalloc", "timing", "emit"}
