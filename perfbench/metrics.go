package main

// metricDef names one reported metric and its unit; BENCHMARK.json at
// the root of the repository declares the same lists.
type metricDef struct{ name, unit string }

// endToEndDefs are reported by every untraced run. An operation is one
// cold grid (grid-cold), one submission to the daemon (daemon-warm), one
// campaign through the coordinator (cluster-loopback) or one cold solve
// of n = 2..5 (exact-solve).
var endToEndDefs = []metricDef{
	{"setup_s", "s"},        // median of the workload's repeated set-ups
	{"op_p50_ms", "ms"},     // median operation latency
	{"op_tail_ms", "ms"},    // highest order statistic with ten samples beyond it
	{"cpu_ms_per_op", "ms"}, // process user+system CPU per operation
	{"mem_p50_mb", "MB"},    // median memory retained after an operation
}

// perLayer are reported by every traced run. Each is measured on the
// workload README.md names for it; trace.overhead and trace.coverage are
// those of the run's own workload.
var perLayer = []metricDef{
	{"rng.uint64_ns", "ns"},
	{"tree.random_into_us", "us"},
	{"tree.leaves_into_us", "us"},
	{"adversary.next_us.static-path", "us"},
	{"adversary.next_us.two-phase-path", "us"},
	{"adversary.next_us.k-leaves", "us"},
	{"adversary.next_us.random-tree", "us"},
	{"adversary.next_us.block-leader", "us"},
	{"adversary.share", "ratio"},
	{"core.step_us", "us"},
	{"core.rounds", "count"},
	{"core.rounds_per_s", "1/s"},
	{"campaign.compile_ms", "ms"},
	{"campaign.trial_ms.p50", "ms"},
	{"campaign.trial_ms.tail", "ms"},
	{"campaign.trials_per_s", "1/s"},
	{"campaign.aggregate_ms", "ms"},
	{"campaign.artifact_ms", "ms"},
	{"campaign.artifact_bytes", "bytes"},
	{"campaign.warm_runspec_ms", "ms"},
	{"checkpoint.record_us", "us"},
	{"checkpoint.bytes_per_trial", "bytes"},
	{"cache.get_ms", "ms"},
	{"cache.decode_ms", "ms"},
	{"cache.gets", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.bytes_per_trial", "bytes"},
	{"cache.put_ms", "ms"},
	{"cache.puts", "count"},
	{"store.ingest_ms", "ms"},
	{"store.cell_reads_per_op", "count"},
	{"server.submit_ms", "ms"},
	{"server.stream_ms", "ms"},
	{"server.status_ms", "ms"},
	{"server.status_bytes", "bytes"},
	{"server.trials_per_s", "1/s"},
	{"cluster.lease_rtt_ms", "ms"},
	{"cluster.push_rtt_ms", "ms"},
	{"cluster.push_bytes_per_trial", "bytes"},
	{"cluster.leases", "count"},
	{"cluster.empty_polls", "count"},
	{"cluster.requeued", "count"},
	{"cluster.remote_share", "ratio"},
	{"cluster.trials_per_s", "1/s"},
	{"gamesolver.new_ms", "ms"},
	{"gamesolver.value_ms", "ms"},
	{"gamesolver.serial_value_ms", "ms"},
	{"gamesolver.states", "count"},
	{"gamesolver.applies", "count"},
	{"gamesolver.useful_ratio", "ratio"},
	{"trace.overhead", "ratio"},
	{"trace.coverage", "ratio"},
}
