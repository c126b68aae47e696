package main

// This file is the benchmark's dictionary: the fixed workload names, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics.  BENCHMARK.json at the repository root lists the same names;
// TestBenchmarkJSONMatchesTables keeps the two from drifting apart.

// schemaVersion tags every result file; -compare refuses a mismatch.
const schemaVersion = "pdmbench/1"

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

// workloadDefs lists the workloads in the order the suite runs them.
var workloadDefs = []workloadDef{
	{"sort-file", "Machine.Sort of 4Mi uniform keys at M=64Ki on file disks: the headline path, one 2 KiB pread/pwrite per block"},
	{"sort-mmap", "the same sort on mmap disks: bypasses FileDisk syscalls, so kernel work has its largest share here"},
	{"records-file", "SortRecords of 512Ki zipf-keyed 64-byte records: the external payload permutation dominates, write-heavy and batched"},
	{"topk-file", "TopK (K=100) over the same 4Mi keys: read-mostly, one load and one filter pass, no sort kernel"},
	{"serve-durable", "2 closed-loop HTTP clients against an in-process journaled pdmd: JSON wire, admission and fsyncs dominate"},
	{"dist-2w", "DistSorter over 2 in-process file-backed workers, 2Mi keys: coordinator plus bulk page uploads and downloads"},
}

// metricDef describes one named metric.  Bound is the share of the
// parent's median an end-to-end metric may get worse by; Exact marks a
// count that must repeat exactly for the same seed (the issue's "x").
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Exact  bool
}

// endToEnd is what a user of the system sees, measured with tracing off.
// op_wall_p90_s and failed_op_share from the issue are deliberately absent:
// the driver's contract applies every end-to-end metric to every workload
// and forbids metrics that are always zero, so the p90 (which only the two
// ≥100-op workloads support) is reported per layer as sched/pdmdapi
// percentiles, and failures are the result line's failed/attempted.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "words_per_s", Unit: "words/s", Better: "higher", Bound: 0.25},
	{Name: "op_wall_p50_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s_per_op", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_bytes", Unit: "B", Better: "lower", Bound: 0.25},
	{Name: "passes_per_op", Unit: "passes", Better: "lower", Bound: 0.05, Exact: true},
}

// perLayer is the traced pass's vocabulary, one prefix per module.
var perLayer = []metricDef{
	// pdm: the simulator's accounting plus the bench-owned spanDisk.
	{Name: "pdm.block_reads", Unit: "count", Better: "lower", Exact: true},
	{Name: "pdm.block_writes", Unit: "count", Better: "lower", Exact: true},
	{Name: "pdm.read_steps", Unit: "count", Better: "lower", Exact: true},
	{Name: "pdm.write_steps", Unit: "count", Better: "lower", Exact: true},
	{Name: "pdm.disk_calls", Unit: "count", Better: "lower", Exact: true},
	{Name: "pdm.syscalls_per_op", Unit: "count", Better: "lower"},
	{Name: "pdm.disk_busy_s", Unit: "s", Better: "lower"},
	{Name: "pdm.scratch_words_peak", Unit: "words", Better: "lower", Exact: true},
	{Name: "pdm.arena_peak_words", Unit: "words", Better: "lower", Exact: true},
	{Name: "pdm.probe.readv_mwords_s", Unit: "Mwords/s", Better: "higher"},
	{Name: "pdm.probe.writev_mwords_s", Unit: "Mwords/s", Better: "higher"},
	// stream: overlap counters from Report.
	{Name: "stream.prefetch_hits", Unit: "count", Better: "higher"},
	{Name: "stream.prefetch_stalls", Unit: "count", Better: "lower"},
	{Name: "stream.write_stalls", Unit: "count", Better: "lower"},
	{Name: "stream.overlap", Unit: "ratio", Better: "higher"},
	{Name: "stream.probe.pipe_depth0_s", Unit: "s", Better: "lower"},
	{Name: "stream.probe.pipe_depth2_s", Unit: "s", Better: "lower"},
	// par: the worker pool's counters.
	{Name: "par.sections", Unit: "count", Better: "lower"},
	{Name: "par.compute_wall_s", Unit: "s", Better: "lower"},
	{Name: "par.compute_busy_s", Unit: "s", Better: "lower"},
	{Name: "par.utilization", Unit: "ratio", Better: "higher"},
	{Name: "par.probe.sortkeys_mkeys_s", Unit: "Mkeys/s", Better: "higher"},
	// memsort: kernels timed alone.
	{Name: "memsort.probe.radix_mkeys_s", Unit: "Mkeys/s", Better: "higher"},
	{Name: "memsort.probe.intro_mkeys_s", Unit: "Mkeys/s", Better: "higher"},
	{Name: "memsort.probe.multimerge_mkeys_s", Unit: "Mkeys/s", Better: "higher"},
	{Name: "memsort.probe.poprun_mkeys_s", Unit: "Mkeys/s", Better: "higher"},
	// core: the pass structure, cut at SetCheckpointer boundaries.
	{Name: "core.run_wall_s", Unit: "s", Better: "lower"},
	{Name: "core.pass1_wall_s", Unit: "s", Better: "lower"},
	{Name: "core.pass2_wall_s", Unit: "s", Better: "lower"},
	{Name: "core.pass3_wall_s", Unit: "s", Better: "lower"},
	{Name: "core.read_passes", Unit: "passes", Better: "lower", Exact: true},
	{Name: "core.write_passes", Unit: "passes", Better: "lower", Exact: true},
	{Name: "core.fellback_share", Unit: "ratio", Better: "lower", Exact: true},
	// facade: what repro.Machine adds around the algorithm.
	{Name: "facade.pad_copy_s", Unit: "s", Better: "lower"},
	{Name: "facade.load_s", Unit: "s", Better: "lower"},
	{Name: "facade.unload_s", Unit: "s", Better: "lower"},
	{Name: "facade.self_s", Unit: "s", Better: "lower"},
	{Name: "facade.machine_build_ms", Unit: "ms", Better: "lower"},
	// records: the external payload permutation.
	{Name: "records.permute_wall_s", Unit: "s", Better: "lower"},
	{Name: "records.permute_passes", Unit: "passes", Better: "lower", Exact: true},
	{Name: "records.payload_words", Unit: "words", Better: "lower", Exact: true},
	{Name: "records.key_rounds", Unit: "count", Better: "lower", Exact: true},
	{Name: "records.probe.permute_mwords_s", Unit: "Mwords/s", Better: "higher"},
	// scenario: the top-K filter route.
	{Name: "scenario.filter_wall_s", Unit: "s", Better: "lower"},
	{Name: "scenario.read_steps", Unit: "count", Better: "lower", Exact: true},
	{Name: "scenario.route_filter_share", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "scenario.fellback_share", Unit: "ratio", Better: "lower", Exact: true},
	// plan: the cost model.
	{Name: "plan.explain_us", Unit: "us", Better: "lower"},
	{Name: "plan.calibrate_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.prediction_rel_error", Unit: "ratio", Better: "lower"},
	// journal: the write-ahead log behind serve-durable.
	{Name: "journal.appends_per_job", Unit: "count", Better: "lower", Exact: true},
	{Name: "journal.bytes_per_job", Unit: "B", Better: "lower"},
	{Name: "journal.probe.append_p50_us", Unit: "us", Better: "lower"},
	{Name: "journal.probe.append_p90_us", Unit: "us", Better: "lower"},
	{Name: "journal.compactions", Unit: "count", Better: "lower"},
	// sched: admission and run time from JobStatus timestamps.
	{Name: "sched.queue_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.run_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.run_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.jobs_failed", Unit: "count", Better: "lower"},
	// pdmdapi: the HTTP wire, client side and bench middleware.
	{Name: "pdmdapi.submit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "pdmdapi.status_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "pdmdapi.page_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "pdmdapi.upload_page_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "pdmdapi.requests_per_op", Unit: "count", Better: "lower"},
	{Name: "pdmdapi.polls_per_job", Unit: "count", Better: "lower"},
	{Name: "pdmdapi.wire_bytes_per_key", Unit: "B", Better: "lower"},
	{Name: "pdmdapi.server_busy_s", Unit: "s", Better: "lower"},
	{Name: "pdmdapi.http_errors", Unit: "count", Better: "lower"},
	// dist: the coordinator.
	{Name: "dist.sort_wall_s", Unit: "s", Better: "lower"},
	{Name: "dist.worker_sort_max_s", Unit: "s", Better: "lower"},
	{Name: "dist.coordinator_self_s", Unit: "s", Better: "lower"},
	{Name: "dist.upload_bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "dist.result_bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "dist.retries", Unit: "count", Better: "lower"},
	{Name: "dist.shard_imbalance", Unit: "ratio", Better: "lower", Exact: true},
	// runtime: explains alloc and RSS moves.
	{Name: "runtime.gc_cycles_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.heap_peak_bytes", Unit: "B", Better: "lower"},
	// ceiling: what this box can do, measured in the same run.
	{Name: "ceiling.pread_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "ceiling.pwrite_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "ceiling.memmove_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "ceiling.slices_sort_load_mkeys_s", Unit: "Mkeys/s", Better: "higher"},
	{Name: "ceiling.slices_sort_full_s", Unit: "s", Better: "lower"},
	{Name: "ceiling.fsync_us", Unit: "us", Better: "lower"},
	{Name: "ceiling.loopback_page_ms", Unit: "ms", Better: "lower"},
	// roofline: the composed ceiling against the measured op.
	{Name: "roofline.io_floor_s", Unit: "s", Better: "lower"},
	{Name: "roofline.compute_floor_s", Unit: "s", Better: "lower"},
	{Name: "roofline.fraction", Unit: "ratio", Better: "higher"},
	// trace: validity of the traced pass itself.
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.span_coverage", Unit: "ratio", Better: "higher"},
}

// untracedLayer names the per-layer metrics that cost nothing to read and
// so are also recorded (in the -out file only) by an untraced run.
var untracedLayer = map[string]bool{
	"pdm.syscalls_per_op": true, "stream.prefetch_hits": true,
	"stream.prefetch_stalls": true, "stream.write_stalls": true,
	"stream.overlap": true, "par.sections": true, "par.compute_wall_s": true,
	"par.compute_busy_s": true, "par.utilization": true,
	"runtime.gc_cycles_per_op": true, "runtime.gc_cpu_share": true,
	"runtime.heap_peak_bytes": true,
}

func findMetric(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].Name == name {
			return &defs[i]
		}
	}
	return nil
}
