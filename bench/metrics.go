package main

// The metric catalogue: every number the benchmark reports as a result,
// with its unit and direction. BENCHMARK.json at the repository root
// mirrors this table (TestCatalogueMatchesBenchmarkJSON keeps the two in
// step). Each run prints every end-to-end metric, and each traced run
// every per-layer metric, for every workload — so only quantities that
// exist on all four workloads are listed. Readings that apply to one
// workload alone (the routed cache-hit latencies, breaker counters) are
// printed in the human-readable report only.

type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// Bounds are set from the measured run-to-run spread (README.md,
// "Noise"); setup_s has the largest.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"alloc_kb_per_assessment", "KiB", "lower", 0.05},
	{"peak_rss_mb", "MiB", "lower", 0.20},
}

// spanNames are the engine's stage spans whose self time the traced run
// reads from GET /v1/jobs/{id}/trace.
var spanNames = []string{
	"assess-change", "control-select", "panel-assembly", "assess-group",
	"group-iteration-prep", "assess-element", "sampling-iterations",
	"aggregate-forecasts", "rank-test", "assess-batch", "batch-entry",
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		// End-to-end readings whose run-to-run spread on a 2-CPU virtual
		// machine (up to 36% of the median over ten runs) is wider than
		// any bound allowed; every run prints them.
		{name: "assess_per_s", unit: "1/s", better: "higher"},
		{name: "miss_latency_p50_ms", unit: "ms", better: "lower"},
		{name: "latency_p50_ms", unit: "ms", better: "lower"},
		{name: "latency_p90_ms", unit: "ms", better: "lower"},
		{name: "cpu_ms_per_assessment", unit: "ms", better: "lower"},
		{name: "netsim.build_ms", unit: "ms", better: "lower"},
		{name: "gen.new_us", unit: "us", better: "lower"},
		{name: "gen.series_us", unit: "us", better: "lower"},
		{name: "gen.series_calls_per_assessment", unit: "count", better: "lower"},
		{name: "control.select_us", unit: "us", better: "lower"},
		{name: "control.controls_selected", unit: "count", better: "higher"},
		{name: "linalg.qr_factor_us", unit: "us", better: "lower"},
		{name: "linalg.qr_solve_us", unit: "us", better: "lower"},
		{name: "stats.median_us", unit: "us", better: "lower"},
		{name: "stats.fligner_policello_us", unit: "us", better: "lower"},
		{name: "core.assess_element_ms", unit: "ms", better: "lower"},
		{name: "core.assess_group_ms.w1", unit: "ms", better: "lower"},
		{name: "core.assess_group_ms.w2", unit: "ms", better: "lower"},
		{name: "core.iterations_per_assessment", unit: "count", better: "lower"},
		{name: "core.before_factorizations_per_assessment", unit: "count", better: "lower"},
		{name: "litmus.assess_change_ms", unit: "ms", better: "lower"},
		{name: "litmus.assess_batch_ms_per_entry", unit: "ms", better: "lower"},
		{name: "litmus.batch_factorizations_reused_ratio", unit: "ratio", better: "higher"},
		{name: "litmus.marshal_us", unit: "us", better: "lower"},
	}
	for _, s := range spanNames {
		defs = append(defs, metricDef{name: "span." + s + ".self_ms", unit: "ms", better: "lower"})
	}
	return append(defs,
		metricDef{name: "serve.unspanned_ms", unit: "ms", better: "lower"},
		metricDef{name: "serve.queue_wait_ms", unit: "ms", better: "lower"},
		metricDef{name: "serve.run_ms", unit: "ms", better: "lower"},
		metricDef{name: "serve.cache_hit_ratio", unit: "ratio", better: "higher"},
		metricDef{name: "serve.http_requests_per_assessment", unit: "count", better: "lower"},
		metricDef{name: "serve.attributed_frac", unit: "ratio", better: "higher"},
		metricDef{name: "journal.append_us", unit: "us", better: "lower"},
		metricDef{name: "journal.appends_per_assessment", unit: "count", better: "lower"},
		metricDef{name: "client.rtt_us", unit: "us", better: "lower"},
		metricDef{name: "client.polls_per_assessment", unit: "count", better: "lower"},
		metricDef{name: "shard.canonical_id_us", unit: "us", better: "lower"},
	)
}()

// workloadDefs names the workloads in run order, each with the reason it
// exists.
var workloadDefs = []struct{ name, why string }{
	{"fresh-world", "every request has its own world and misses every cache, so engine, world build and panel synthesis dominate; the bypass twin for any memo"},
	{"shared-world", "one world, distinct changes: costs the same as fresh-world today; a cross-job world or series memo shows here and only here"},
	{"changelog-batch", "100-entry batches over 24 signatures: the batch amortization path, with almost no HTTP cost per assessment"},
	{"routed-mixed", "open-loop Poisson arrivals on 3 routed nodes with journals, 75% cache reads beside 25% writes: the serving layers"},
}
