package main

// metricDef names one reported number. BENCHMARK.json repeats both tables
// and adds each end-to-end metric's regression bound, which only the
// acceptance driver and -compare use; TestManifest keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the system sees, the same on every
// workload. failed_frac is the eighth: it cannot carry a relative bound
// (its baseline is 0 and any rise is a regression), so it travels as
// failed/attempted beside the metrics and -compare gates it absolutely.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"pixels_per_s", "px/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"cpu_s_per_mpx", "s/Mpx", "lower"},
	{"alloc_kb_per_px", "KB/px", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, <module>.<metric>. Every
// workload reports all of them, measured on the pixels of one of its own
// ops; README.md says which rows explain which workload.
var perLayer = []metricDef{
	// Kernel decomposition: the fused tile loop replayed with public
	// calls on one worker, so the parts sum.
	{"series.mask_ns_per_px", "ns/px", "lower"},
	{"tile.plan_ns_per_px", "ns/px", "lower"},
	{"tile.gather_ns_per_px", "ns/px", "lower"},
	{"tile.cross_product_ns_per_px", "ns/px", "lower"},
	{"tile.matvec_ns_per_px", "ns/px", "lower"},
	{"linalg.invert_ns_per_px", "ns/px", "lower"},
	{"linalg.beta_ns_per_px", "ns/px", "lower"},
	{"tile.residuals_ns_per_px", "ns/px", "lower"},
	{"core.monitor_ns_per_px", "ns/px", "lower"},
	{"core.detect_batch_w1_ns_per_px", "ns/px", "lower"},
	{"core.unattributed_pct", "%", "lower"},
	{"core.detect_scalar_ns_per_px", "ns/px", "lower"},
	// Counts.
	{"tile.tiles", "count", "lower"},
	{"tile.pad_waste_pct", "%", "lower"},
	{"series.valid_frac", "ratio", "higher"},
	{"tile.mask_classes_per_kpx", "1/kpx", "lower"},
	{"core.break_frac", "ratio", "lower"},
	{"core.singular_frac", "ratio", "lower"},
	// Rates against the host's measured ceilings.
	{"flops.app_gflops", "GFlops", "higher"},
	{"flops.cross_product_gflops", "GFlops", "higher"},
	{"flops.invert_gflops", "GFlops", "higher"},
	{"host.peak_gflops", "GFlops", "higher"},
	{"host.stream_gbs", "GB/s", "higher"},
	{"tile.cross_product_pct_of_peak", "%", "higher"},
	{"linalg.invert_pct_of_peak", "%", "higher"},
	// Scheduling and fixed costs.
	{"sched.parallel_eff", "ratio", "higher"},
	{"sched.foreach_overhead_us", "us", "lower"},
	{"core.small_batch_us", "us", "lower"},
	{"core.design_for_us", "us", "lower"},
	// Cube path.
	{"cube.drop_empty_ms", "ms", "lower"},
	{"cube.kept_date_frac", "ratio", "lower"},
	{"baseline.clike_ms", "ms", "lower"},
	{"baseline.clike_ns_per_px", "ns/px", "lower"},
	{"cube.assemble_ms", "ms", "lower"},
	{"core.detect_batch_ms_same_input", "ms", "lower"},
	{"pipeline.preprocess_ms", "ms", "lower"},
	{"pipeline.chunking_ms", "ms", "lower"},
	{"pipeline.kernel_model_ms", "ms", "lower"},
	{"pipeline.transfer_model_ms", "ms", "lower"},
	// Serving.
	{"server.roundtrip_us", "us", "lower"},
	{"server.handler_us", "us", "lower"},
	{"server.transport_us", "us", "lower"},
	{"server.self_us_per_req", "us", "lower"},
	{"server.self_frac", "ratio", "lower"},
	{"server.series_unmarshal_ns_per_value", "ns", "lower"},
	{"server.series_marshal_ns_per_value", "ns", "lower"},
	{"server.req_bytes", "B", "lower"},
	{"server.resp_bytes", "B", "lower"},
	{"obs.span_ns", "ns", "lower"},
	{"obs.histogram_observe_ns", "ns", "lower"},
	{"coalesce.detect_us_p50", "us", "lower"},
	{"coalesce.added_wait_us_p50", "us", "lower"},
	{"coalesce.pixels_per_flush", "px", "higher"},
	{"coalesce.callers_per_flush", "count", "higher"},
	// NRT.
	{"nrt.fit_ms", "ms", "lower"},
	{"nrt.observe_ms", "ms", "lower"},
	{"nrt.snapshot_ms", "ms", "lower"},
	{"state.encode_ms", "ms", "lower"},
	{"state.decode_ms", "ms", "lower"},
	{"state.snapshot_bytes_per_px", "B/px", "lower"},
	{"state.file_save_ms", "ms", "lower"},
	{"nrt.restore_ms", "ms", "lower"},
	{"server.observe_self_ms", "ms", "lower"},
	{"server.fit_self_ms", "ms", "lower"},
	{"server.observe_resp_bytes", "B", "lower"},
	// Set-up, and what tracing itself costs.
	{"workload.generate_ms", "ms", "lower"},
	{"bench.marshal_ms", "ms", "lower"},
	{"bench.boot_ms", "ms", "lower"},
	{"bench.warmup_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}
