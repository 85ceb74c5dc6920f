package serve

import (
	"fmt"
	"time"

	"vida/internal/core"
	"vida/internal/sched"
)

// This file declares the /metrics exposition as data. Every scalar the
// service reports on GET /stats maps onto exactly one Prometheus metric
// through metricDefs (or histogramStatMetrics for fields that are
// derived views of a histogram); a cross-check test asserts the mapping
// is a bijection, so /stats and /metrics cannot silently diverge again.

// statsView is one coherent snapshot of every counter source read by
// /stats and /metrics.
type statsView struct {
	svc     Stats
	eng     core.Stats
	pool    sched.Stats
	hasPool bool
}

// metricDef maps one scalar from the /stats document onto a metric.
// stat is the flattened JSON path of the field in GET /stats
// ("service.admitted", "engine.Cache.Hits", "scheduler.workers");
// stat == "" marks a derived metric aggregated from several fields,
// with no single /stats counterpart.
type metricDef struct {
	name  string
	kind  string // "counter" or "gauge"
	help  string
	stat  string
	sched bool // only meaningful when a scheduler pool is attached
	value func(v *statsView) int64
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

var metricDefs = []metricDef{
	// Engine: query and scan activity.
	{"vida_queries_total", "counter", "Queries executed by the engine.", "engine.Queries",
		false, func(v *statsView) int64 { return v.eng.Queries }},
	{"vida_queries_cache_served_total", "counter", "Queries whose scans were all served by the data caches.", "engine.QueriesFromCache",
		false, func(v *statsView) int64 { return v.eng.QueriesFromCache }},
	{"vida_queries_raw_touched_total", "counter", "Queries that touched at least one raw file.", "engine.QueriesTouchedRaw",
		false, func(v *statsView) int64 { return v.eng.QueriesTouchedRaw }},
	{"vida_raw_scans_total", "counter", "Scans that touched raw files.", "engine.RawScans",
		false, func(v *statsView) int64 { return v.eng.RawScans }},
	{"vida_cache_scans_total", "counter", "Scans served from the data caches.", "engine.CacheScans",
		false, func(v *statsView) int64 { return v.eng.CacheScans }},
	{"vida_auxiliary_bytes", "gauge", "Bytes in positional maps and semi-indexes.", "engine.AuxiliaryBytes",
		false, func(v *statsView) int64 { return v.eng.AuxiliaryBytes }},
	{"vida_raw_file_bytes", "gauge", "Bytes of the raw file versions the catalog holds, each version counted once however many sources share it.", "engine.RawFileBytes",
		false, func(v *statsView) int64 { return v.eng.RawFileBytes }},

	// Engine: data-cache internals.
	{"vida_data_cache_hits_total", "counter", "Data cache lookups that hit.", "engine.Cache.Hits",
		false, func(v *statsView) int64 { return v.eng.Cache.Hits }},
	{"vida_data_cache_misses_total", "counter", "Data cache lookups that missed.", "engine.Cache.Misses",
		false, func(v *statsView) int64 { return v.eng.Cache.Misses }},
	{"vida_data_cache_evictions_total", "counter", "Data cache entries evicted under the byte budget.", "engine.Cache.Evictions",
		false, func(v *statsView) int64 { return v.eng.Cache.Evictions }},
	{"vida_data_cache_insertions_total", "counter", "Data cache entries installed (harvests and promotions).", "engine.Cache.Insertions",
		false, func(v *statsView) int64 { return v.eng.Cache.Insertions }},
	{"vida_cache_bytes_used", "gauge", "Bytes resident in the data caches.", "engine.Cache.BytesUsed",
		false, func(v *statsView) int64 { return v.eng.Cache.BytesUsed }},
	{"vida_cache_bytes_limit", "gauge", "Data cache byte budget (0 = unlimited).", "engine.Cache.BytesLimit",
		false, func(v *statsView) int64 { return v.eng.Cache.BytesLimit }},
	{"vida_cache_entries", "gauge", "Entries resident in the data caches.", "engine.Cache.Entries",
		false, func(v *statsView) int64 { return int64(v.eng.Cache.Entries) }},

	// Engine: encoded cache tier (dictionary/delta blocks + disk spill).
	{"vida_cache_hot_bytes", "gauge", "Bytes resident in the hot (decoded vector) cache tier.", "engine.Cache.HotBytes",
		false, func(v *statsView) int64 { return v.eng.Cache.HotBytes }},
	{"vida_cache_encoded_bytes", "gauge", "Bytes resident in the encoded cache tier.", "engine.Cache.EncodedBytes",
		false, func(v *statsView) int64 { return v.eng.Cache.EncodedBytes }},
	{"vida_cache_encodes_total", "counter", "Cache entries transitioned from hot vectors to encoded blocks.", "engine.Cache.Encodes",
		false, func(v *statsView) int64 { return v.eng.Cache.Encodes }},
	{"vida_cache_decoded_blocks_total", "counter", "Encoded cache blocks decoded on demand by scans.", "engine.Cache.DecodedBlocks",
		false, func(v *statsView) int64 { return v.eng.Cache.DecodedBlocks }},
	{"vida_cache_spill_writes_total", "counter", "Encoded cache entries spilled to the cache directory.", "engine.Cache.SpillWrites",
		false, func(v *statsView) int64 { return v.eng.Cache.SpillWrites }},
	{"vida_cache_rehydrated_blocks_total", "counter", "Encoded blocks rehydrated from spill files at startup.", "engine.Cache.RehydratedBlocks",
		false, func(v *statsView) int64 { return v.eng.Cache.RehydratedBlocks }},
	{"vida_cache_spill_corrupt_total", "counter", "Spill files quarantined as corrupt during rehydration.", "engine.Cache.SpillCorrupt",
		false, func(v *statsView) int64 { return v.eng.Cache.SpillCorrupt }},

	// Engine: memory governance.
	{"vida_memory_tracked_bytes", "gauge", "Bytes currently reserved against the global memory budget.", "engine.Memory.TrackedBytes",
		false, func(v *statsView) int64 { return v.eng.Memory.TrackedBytes }},
	{"vida_memory_budget_bytes", "gauge", "Global memory budget (0 = unbudgeted).", "engine.Memory.BudgetBytes",
		false, func(v *statsView) int64 { return v.eng.Memory.BudgetBytes }},
	{"vida_memory_query_kills_total", "counter", "Queries aborted for exceeding a memory budget.", "engine.Memory.QueryKills",
		false, func(v *statsView) int64 { return v.eng.Memory.QueryKills }},
	{"vida_memory_harvest_skips_total", "counter", "Cache harvests shed under memory pressure.", "engine.Memory.HarvestSkips",
		false, func(v *statsView) int64 { return v.eng.Memory.HarvestSkips }},
	{"vida_memory_under_pressure", "gauge", "Whether the engine is above its memory high-water mark (0/1).", "engine.Memory.UnderPressure",
		false, func(v *statsView) int64 { return b2i(v.eng.Memory.UnderPressure) }},

	// Engine: JIT kernel staging (vectorized kernels vs boxed fallbacks).
	{"vida_kernel_stages_vectorized_total", "counter", "Pipeline stages compiled to vectorized kernels.", "engine.KernelStagesVectorized",
		false, func(v *statsView) int64 { return v.eng.KernelStagesVectorized }},
	{"vida_kernel_stages_boxed_total", "counter", "Pipeline stages that fell back to row-wise boxed execution.", "engine.KernelStagesBoxed",
		false, func(v *statsView) int64 { return v.eng.KernelStagesBoxed }},

	// Engine: grouped hash aggregation (single-pass GROUP BY folds).
	{"vida_group_folds_total", "counter", "Grouped hash-aggregation folds completed.", "engine.GroupFolds",
		false, func(v *statsView) int64 { return v.eng.GroupFolds }},
	{"vida_groups_built_total", "counter", "Distinct groups built across all grouped folds.", "engine.GroupsBuilt",
		false, func(v *statsView) int64 { return v.eng.GroupsBuilt }},
	{"vida_group_table_max_bytes", "gauge", "Largest single group table observed (bytes).", "engine.GroupTableMaxBytes",
		false, func(v *statsView) int64 { return v.eng.GroupTableMaxBytes }},
	{"vida_group_partial_merges_total", "counter", "Morsel-parallel group partials merged into root tables.", "engine.GroupPartialMerges",
		false, func(v *statsView) int64 { return v.eng.GroupPartialMerges }},

	// Engine: hash joins (morsel-parallel build and probe).
	{"vida_join_folds_total", "counter", "Hash-join build tables sealed.", "engine.JoinFolds",
		false, func(v *statsView) int64 { return v.eng.JoinFolds }},
	{"vida_join_dense_folds_total", "counter", "Join builds sealed as a key-indexed directory instead of a chain table.", "engine.JoinDenseFolds",
		false, func(v *statsView) int64 { return v.eng.JoinDenseFolds }},
	{"vida_join_build_rows_total", "counter", "Build-side entries indexed across all hash joins.", "engine.JoinBuildRows",
		false, func(v *statsView) int64 { return v.eng.JoinBuildRows }},
	{"vida_join_probe_rows_total", "counter", "Rows emitted by hash-join probes.", "engine.JoinProbeRows",
		false, func(v *statsView) int64 { return v.eng.JoinProbeRows }},
	{"vida_join_table_max_bytes", "gauge", "Largest single sealed join table observed (bytes).", "engine.JoinTableMaxBytes",
		false, func(v *statsView) int64 { return v.eng.JoinTableMaxBytes }},

	// Engine: refresh outcomes per changed source (append vs. replace).
	{"vida_refresh_appends_total", "counter", "Changed sources whose file only grew: positional map and cached columns extended by the tail.", "engine.RefreshAppends",
		false, func(v *statsView) int64 { return v.eng.RefreshAppends }},
	{"vida_refresh_replacements_total", "counter", "Changed sources whose auxiliary structures and cache entries were dropped wholesale.", "engine.RefreshReplacements",
		false, func(v *statsView) int64 { return v.eng.RefreshReplacements }},
	{"vida_refresh_tail_rows_total", "counter", "Rows indexed and cached by append refreshes.", "engine.RefreshTailRows",
		false, func(v *statsView) int64 { return v.eng.RefreshTailRows }},
	{"vida_refresh_tail_bytes_total", "counter", "File bytes read by append refreshes.", "engine.RefreshTailBytes",
		false, func(v *statsView) int64 { return v.eng.RefreshTailBytes }},

	// Service: admission and request outcomes.
	{"vida_serve_admitted_total", "counter", "Requests admitted past the in-flight gate.", "service.admitted",
		false, func(v *statsView) int64 { return v.svc.Admitted }},
	{"vida_serve_rejected_total", "counter", "Requests shed with 429 at the admission gate.", "service.rejected",
		false, func(v *statsView) int64 { return v.svc.Rejected }},
	{"vida_serve_completed_total", "counter", "Requests completed successfully.", "service.completed",
		false, func(v *statsView) int64 { return v.svc.Completed }},
	{"vida_serve_failed_total", "counter", "Requests that failed.", "service.failed",
		false, func(v *statsView) int64 { return v.svc.Failed }},
	{"vida_serve_cancelled_total", "counter", "Requests cancelled or timed out.", "service.cancelled",
		false, func(v *statsView) int64 { return v.svc.Cancelled }},
	{"vida_serve_in_flight", "gauge", "Queries executing or streaming right now.", "service.in_flight",
		false, func(v *statsView) int64 { return v.svc.InFlight }},
	{"vida_serve_queue_depth", "gauge", "Requests waiting in the admission queue right now.", "service.queue_depth",
		false, func(v *statsView) int64 { return v.svc.QueueDepth }},
	{"vida_serve_streams_total", "counter", "Streaming cursors opened via /stream.", "service.streams",
		false, func(v *statsView) int64 { return v.svc.Streams }},

	// Service: result cache; the engine's plan cache and publish count.
	{"vida_result_cache_hits_total", "counter", "Result cache hits.", "service.result_cache_hits",
		false, func(v *statsView) int64 { return v.svc.ResultHits }},
	{"vida_result_cache_misses_total", "counter", "Result cache misses.", "service.result_cache_misses",
		false, func(v *statsView) int64 { return v.svc.ResultMisses }},
	{"vida_result_cache_bytes", "gauge", "Approximate bytes resident in the result cache.", "service.result_cache_bytes",
		false, func(v *statsView) int64 { return v.svc.ResultCacheBytes }},
	{"vida_prepared_cache_hits_total", "counter", "Plan cache lookups that found a current plan.", "service.prepared_cache_hits",
		false, func(v *statsView) int64 { return v.svc.PreparedHits }},
	{"vida_prepared_cache_misses_total", "counter", "Plan cache lookups that ran the query frontend.", "service.prepared_cache_misses",
		false, func(v *statsView) int64 { return v.svc.PreparedMisses }},
	{"vida_engine_epoch", "gauge", "Catalog changes published by the engine (registrations, cleaners, deregistrations, refreshed sources).", "service.epoch",
		false, func(v *statsView) int64 { return v.svc.Epoch }},

	// Panic containment, per barrier plus the aggregate.
	{"vida_exec_panics_recovered_total", "counter", "Execution panics contained as query errors.", "engine.PanicsRecovered",
		false, func(v *statsView) int64 { return v.eng.PanicsRecovered }},
	{"vida_serve_handler_panics_total", "counter", "HTTP handler panics recovered.", "service.handler_panics",
		false, func(v *statsView) int64 { return v.svc.HandlerPanics }},
	{"vida_sched_panics_recovered_total", "counter", "Panics contained at the morsel scheduler barrier.", "scheduler.panics_recovered",
		true, func(v *statsView) int64 { return v.pool.PanicsRecovered }},
	{"vida_panics_recovered_total", "counter", "Panics contained at all goroutine barriers (pool, producer, handler).", "",
		false, func(v *statsView) int64 {
			return v.eng.PanicsRecovered + v.svc.HandlerPanics + v.pool.PanicsRecovered
		}},

	// Scheduler.
	{"vida_sched_workers", "gauge", "Morsel scheduler workers.", "scheduler.workers",
		true, func(v *statsView) int64 { return int64(v.pool.Workers) }},
	{"vida_sched_active_jobs", "gauge", "Jobs with undispatched morsels.", "scheduler.active_jobs",
		true, func(v *statsView) int64 { return int64(v.pool.ActiveJobs) }},
	{"vida_sched_jobs_total", "counter", "Scheduler jobs completed.", "scheduler.jobs_run",
		true, func(v *statsView) int64 { return v.pool.JobsRun }},
	{"vida_morsels_executed_total", "counter", "Morsels executed by the shared scheduler.", "scheduler.tasks_run",
		true, func(v *statsView) int64 { return v.pool.TasksRun }},
}

// histogramStatMetrics maps /stats fields that are derived views of a
// histogram onto the exposition series that carries the same number.
var histogramStatMetrics = map[string]string{
	"service.queue_waits":         "vida_serve_queue_wait_seconds_count",
	"service.queue_wait_total_ms": "vida_serve_queue_wait_seconds_sum",
}

// histogramFamilies lists the histogram metric families emitted next to
// the scalar descriptor table.
var histogramFamilies = []string{
	"vida_serve_queue_wait_seconds",
	"vida_http_request_seconds",
	"vida_query_phase_seconds",
}

// endpointOrder fixes the exposition order of the per-endpoint request
// histograms (map iteration would shuffle the output between scrapes).
var endpointOrder = []string{epQuery, epSQL, epStream, epExplain}

// appendHistHeader emits one histogram family's HELP/TYPE preamble.
func appendHistHeader(b []byte, name, help string) []byte {
	return fmt.Appendf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
}

// appendHistSeries emits one labeled series of a histogram family:
// cumulative buckets over the waitBuckets bounds, then sum and count.
func appendHistSeries(b []byte, name, labels string, cum []int64, sum time.Duration, count int64) []byte {
	prefix := labels
	if prefix != "" {
		prefix += ","
	}
	for i, ub := range waitBuckets {
		b = fmt.Appendf(b, "%s_bucket{%sle=\"%g\"} %d\n", name, prefix, ub.Seconds(), cum[i])
	}
	b = fmt.Appendf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, prefix, cum[len(cum)-1])
	if labels != "" {
		b = fmt.Appendf(b, "%s_sum{%s} %g\n", name, labels, sum.Seconds())
		b = fmt.Appendf(b, "%s_count{%s} %d\n", name, labels, count)
	} else {
		b = fmt.Appendf(b, "%s_sum %g\n", name, sum.Seconds())
		b = fmt.Appendf(b, "%s_count %d\n", name, count)
	}
	return b
}
