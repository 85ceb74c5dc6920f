// Package serve turns a vida Engine into a concurrent query service.
// It is the serving tier the paper's vision implies but never builds:
// positional maps, semi-indexes and columnar caches amortize their build
// cost across a *stream* of concurrent clients, so the engine needs a
// front door that admits many queries at once without melting the
// machine. The package has three layers, composed bottom-up:
//
//   - Scheduling. Every engine behind a Service shares one morsel worker
//     pool (internal/sched): parallel scans submit morsels as jobs and
//     the pool's fixed GOMAXPROCS workers interleave the morsels of all
//     in-flight queries round-robin. N concurrent queries therefore run
//     on cores workers total — not N×cores goroutines — and a short
//     query makes progress while a long scan is running instead of
//     queuing behind it.
//
//   - Admission and sessions (Service). A bounded in-flight limit
//     (Config.MaxInFlight) plus a bounded FIFO admission queue
//     (Config.MaxQueue) govern the door: when every execution slot is
//     busy, a request waits in line until its deadline and is shed with
//     a BusyError (HTTP 429 + Retry-After, estimated from the observed
//     drain rate) only when the queue is full or its deadline cannot be
//     met while queued. MaxQueue < 0 restores the old fail-fast
//     behaviour. Admitted queries run under a
//     per-query timeout and the caller's cancellation context, threaded
//     through Engine.QueryCtx → the JIT executor → the batch sources, so
//     a cancelled query stops mid-scan and frees its pool workers. A
//     query-result LRU keyed on (query text, bind parameters), bounded
//     by entry count and an approximate byte budget, skips execution
//     entirely. A result is served while the source generations its
//     plan read (core.Generation) are current, the rule of the engine's
//     plan cache too: each catalog change the engine publishes makes a
//     new generation of one source, orphaning exactly what read it.
//     QueryRows opens a streaming cursor instead of a buffered result:
//     the admission slot is held for the stream's lifetime, so an open
//     cursor occupies capacity exactly like an executing query.
//
//   - HTTP front-end (Server). POST /query (comprehension queries),
//     POST /sql (SQL translated to comprehensions), POST /stream
//     (NDJSON rows flushed batch-at-a-time off the engine cursor, with
//     a done-or-error trailer record in band), POST /explain (plan
//     only; "analyze": true executes and attaches the span tree),
//     GET /catalog, GET /stats, GET /metrics (Prometheus text),
//     GET /explain (q/sql/analyze query params), GET /debug/queries
//     (the profile ring) and GET /healthz.
//     Results preserve record field order; /query, /sql and /stream all
//     accept a "params" field binding $1..$n (array) or $name (object).
//     /stream flushes at every cursor chunk boundary (with a 1024-row
//     backstop), so first-row latency over HTTP matches the cursor's
//     even for a slow, sparse producer. Shutdown drains: the HTTP
//     server stops accepting, then Engine.Close waits for in-flight
//     queries.
//
// ORDER BY / LIMIT / OFFSET queries serve through every endpoint:
// ranked results arrive as ordered arrays (/query, /sql) or ordered
// NDJSON lines (/stream — the engine's streaming top-k buffers only its
// O(offset+limit) heap before the first ordered row is written; a bare
// LIMIT cancels the scan's remaining morsels as soon as enough rows
// have been produced, so the admission slot frees early too). LIMIT $1
// keeps the plan cache warm across different bounds.
//
// # Request lifecycle and failure taxonomy
//
// Every query request moves through admit → queue → execute → respond:
//
//   - admit: a result-cache hit responds immediately and never touches
//     the admission queue — repeats stay cheap exactly when the engine
//     is saturated. The request's timeout starts here (timeout_ms = 0,
//     or anything beyond the configured bound, means "use the server
//     default"), so time spent queued counts against the deadline.
//   - queue: with no free execution slot the request waits in FIFO
//     order. It is shed — never silently dropped — when the queue is
//     full or its deadline cannot be met at the observed drain rate.
//   - execute: the query runs under its context; cancellation reaches
//     mid-scan, and memory reservations are charged against the
//     per-query and global budgets as accumulation grows.
//   - respond: success is 200; failures map onto a fixed taxonomy.
//
// Failure taxonomy (HTTP status ← error shape):
//
//	429  shed at admission (ErrBusy / *BusyError, Retry-After attached)
//	499  client went away (context.Canceled)
//	504  deadline exceeded during execution (context.DeadlineExceeded)
//	507  memory budget exceeded (core.ErrMemoryBudget)
//	503  engine closed / shutting down (core.ErrClosed)
//	400  bad query, params or request body (BadQueryError, ParamError)
//	500  execution failure, including panics contained at the pool,
//	     stream-producer and HTTP-handler barriers
//
// A deadline that expires while still queued is a shed (429), not a 504:
// the query never started, so retrying later is the right client move.
//
// # Observability
//
// Every executed query runs with an internal/trace span recorder armed
// on its context; the settled tree covers queue wait, the frontend
// (parse/typecheck/optimize, plan-cache hit/miss), per-source scans
// (raw vs cache, rows/bytes/batches, positional-map and semi-index
// build events, harvest outcome) and the fold (joins, parallel merges).
// The tree surfaces three ways, correlated by the query ID every
// response carries in the X-Vida-Query-Id header:
//
//   - POST /explain with "analyze": true executes the query — bypassing
//     the result cache in both directions, so it always measures real
//     work — and returns {query_id, plan, rows, elapsed_ms, spans}.
//   - GET /debug/queries serves the fixed-size ring of completed query
//     profiles (Config.ProfileEntries); queries slower than
//     Config.SlowQueryThreshold are also logged via log/slog with
//     per-phase timings.
//   - GET /metrics rolls each tree into per-phase latency histograms
//     (vida_query_phase_seconds{phase="queue"|"compile"|"scan"|"fold"};
//     the fold phase is the non-scan residue of the pull pipeline) next
//     to per-endpoint request histograms (vida_http_request_seconds).
//     The scalar exposition is descriptor-driven (metrics.go): every
//     /stats field maps onto exactly one metric and a parity test
//     asserts the bijection.
//
// Result-cache hits still get a fresh query ID and a profile-ring entry
// (cached: true), but no spans — nothing executed.
//
// # Memory governance
//
// vida.WithMemoryBudget bounds the bytes all queries may hold at once;
// vida.WithQueryMemoryBudget bounds each query. Degradation is staged:
// under global pressure (≥3/4 used) the engine first stops harvesting
// columnar caches from cold scans (queries still answer, they just stop
// investing in future speed); only a query that itself exceeds a budget
// is aborted, with the typed core.ErrMemoryBudget → 507. Budget
// accounting is approximate and batch-granular — it exists to convert
// "the process OOMs" into "one query gets a clean error".
package serve
