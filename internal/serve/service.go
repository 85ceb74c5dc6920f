package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vida"
	"vida/internal/core"
	"vida/internal/sched"
	"vida/internal/trace"
)

// ErrBusy is the sentinel matched (via errors.Is) by admission-shed
// failures; the HTTP layer maps it to 429 Too Many Requests. Concrete
// shed errors are *BusyError values carrying a Retry-After estimate.
var ErrBusy = errors.New("serve: too many in-flight queries")

// BadQueryError marks failures of the query frontend (syntax, type,
// translation): the request itself is at fault, so the HTTP layer maps
// it to 400 rather than 500.
type BadQueryError struct{ Err error }

func (e *BadQueryError) Error() string { return e.Err.Error() }

// Unwrap supports errors.Is/As through the wrapper.
func (e *BadQueryError) Unwrap() error { return e.Err }

// Config tunes the admission/session layer.
type Config struct {
	// MaxInFlight bounds concurrently executing queries (default
	// 4×GOMAXPROCS). Requests beyond it wait in the admission queue.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot (default
	// 4×MaxInFlight; <0 disables queueing, restoring fail-fast 429s).
	// A full queue — or a deadline that cannot be met while queued —
	// sheds the request with a BusyError.
	MaxQueue int
	// DefaultTimeout bounds each query's execution; requests may shorten
	// it but never extend it (default 30s; <0 disables the bound and
	// lets requests pick any timeout).
	DefaultTimeout time.Duration
	// ResultCacheEntries bounds the query-result LRU by entry count
	// (default 256; <0 disables).
	ResultCacheEntries int
	// ResultCacheBytes bounds the query-result LRU by the approximate
	// in-memory size of the cached results (default 64 MiB; <0 disables
	// the byte budget, leaving only the entry bound). One enormous
	// result can no longer pin the memory of 256 of them.
	ResultCacheBytes int64
	// ProfileEntries bounds the ring of completed query profiles served
	// at GET /debug/queries (default 128; <0 disables retention).
	ProfileEntries int
	// SlowQueryThreshold is the elapsed time above which a completed
	// query is logged through log/slog with its ID, endpoint and phase
	// breakdown (default 500ms; <0 disables slow-query logging).
	SlowQueryThreshold time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	switch {
	case c.MaxQueue == 0:
		c.MaxQueue = 4 * c.MaxInFlight
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.ResultCacheEntries == 0 {
		c.ResultCacheEntries = 256
	}
	if c.ResultCacheBytes == 0 {
		c.ResultCacheBytes = 64 << 20
	}
	switch {
	case c.ProfileEntries == 0:
		c.ProfileEntries = 128
	case c.ProfileEntries < 0:
		c.ProfileEntries = 0
	}
	if c.SlowQueryThreshold == 0 {
		c.SlowQueryThreshold = 500 * time.Millisecond
	}
	return c
}

// Stats is a snapshot of service activity, reported by GET /stats next
// to the engine's own counters.
type Stats struct {
	Admitted         int64 `json:"admitted"`
	Rejected         int64 `json:"rejected"` // shed at admission (429)
	Completed        int64 `json:"completed"`
	Failed           int64 `json:"failed"`
	Cancelled        int64 `json:"cancelled"`
	InFlight         int64 `json:"in_flight"`
	QueueDepth       int64 `json:"queue_depth"` // waiting for a slot now
	QueueWaits       int64 `json:"queue_waits"` // admissions observed by the wait histogram
	QueueWaitTotalMS int64 `json:"queue_wait_total_ms"`
	HandlerPanics    int64 `json:"handler_panics"` // HTTP handler panics recovered
	Streams          int64 `json:"streams"`
	ResultHits       int64 `json:"result_cache_hits"`
	ResultMisses     int64 `json:"result_cache_misses"`
	ResultCacheBytes int64 `json:"result_cache_bytes"`
	PreparedHits     int64 `json:"prepared_cache_hits"` // the engine's plan cache
	PreparedMisses   int64 `json:"prepared_cache_misses"`
	Epoch            int64 `json:"epoch"` // catalog changes the engine published
}

// Service is the admission/session layer over one engine: bounded
// in-flight queries, per-query timeouts and cancellation, and a result
// cache keyed on the source generations each result read.
type Service struct {
	eng   *vida.Engine
	core  *core.Engine
	pool  *sched.Pool
	cfg   Config
	admit *admitQueue

	results *lruCache

	// Observability: the /debug/queries profile ring, per-endpoint
	// request-duration histograms (fixed keys, read-only after init)
	// and per-phase execution-time histograms.
	profiles *profileRing
	reqHists map[string]*durHist
	phases   [numPhases]durHist

	admitted     atomic.Int64
	rejected     atomic.Int64
	completed    atomic.Int64
	failed       atomic.Int64
	cancelled    atomic.Int64
	inFlight     atomic.Int64
	streams      atomic.Int64
	resultHits   atomic.Int64
	resultMisses atomic.Int64
	panics       atomic.Int64 // HTTP handler panics recovered
}

// NewService wraps an engine with admission control and session caches.
// The pool is only reported in stats (the engine was built with it); it
// may be nil.
func NewService(eng *vida.Engine, pool *sched.Pool, cfg Config) *Service {
	cfg = cfg.withDefaults()
	return &Service{
		eng:      eng,
		core:     eng.Internal(),
		pool:     pool,
		cfg:      cfg,
		admit:    newAdmitQueue(cfg.MaxInFlight, cfg.MaxQueue),
		results:  newLRU(cfg.ResultCacheEntries, cfg.ResultCacheBytes),
		profiles: newProfileRing(cfg.ProfileEntries),
		reqHists: map[string]*durHist{
			epQuery: {}, epSQL: {}, epStream: {}, epExplain: {},
		},
	}
}

// The endpoint labels used by profiles, request histograms and the
// X-Vida-Query-Id correlation.
const (
	epQuery   = "query"
	epSQL     = "sql"
	epStream  = "stream"
	epExplain = "explain"
)

// observeRequest records one HTTP request's wall time in the
// per-endpoint histogram (unknown endpoints are dropped).
func (s *Service) observeRequest(endpoint string, d time.Duration) {
	if h, ok := s.reqHists[endpoint]; ok {
		h.observe(d)
	}
}

// Profiles returns the retained completed-query profiles newest-first
// plus the total ever recorded.
func (s *Service) Profiles() ([]*QueryProfile, int64) {
	return s.profiles.snapshot()
}

// Engine returns the wrapped engine.
func (s *Service) Engine() *vida.Engine { return s.eng }

// Pool returns the shared scheduler pool (may be nil).
func (s *Service) Pool() *sched.Pool { return s.pool }

// Close gracefully shuts the service down: the engine drains in-flight
// queries, then the pool (when owned by the caller) can be closed.
func (s *Service) Close() error { return s.eng.Close() }

// StatsSnapshot returns service counters.
func (s *Service) StatsSnapshot() Stats {
	_, waitSum, waitCount := s.admit.WaitStats()
	eng := s.core.StatsSnapshot()
	return Stats{
		Admitted:         s.admitted.Load(),
		Rejected:         s.rejected.Load(),
		Completed:        s.completed.Load(),
		Failed:           s.failed.Load(),
		Cancelled:        s.cancelled.Load(),
		InFlight:         s.inFlight.Load(),
		QueueDepth:       int64(s.admit.Depth()),
		QueueWaits:       waitCount,
		QueueWaitTotalMS: waitSum.Milliseconds(),
		HandlerPanics:    s.panics.Load(),
		Streams:          s.streams.Load(),
		ResultHits:       s.resultHits.Load(),
		ResultMisses:     s.resultMisses.Load(),
		ResultCacheBytes: s.results.bytesUsed(),
		PreparedHits:     eng.PlanHits,
		PreparedMisses:   eng.PlanMisses,
		Epoch:            eng.Publishes,
	}
}

// Outcome is one served query.
type Outcome struct {
	Result  *vida.Result
	Cached  bool // served from the result cache, no execution
	Elapsed time.Duration
	// QueryID correlates the response (X-Vida-Query-Id header) with the
	// /debug/queries profile ring and the slow-query log.
	QueryID string
	// Spans is the settled span tree of an executed query (nil for
	// result-cache hits, which execute nothing).
	Spans *trace.SpanNode
}

// Query admits, plans and executes one comprehension query. When every
// execution slot is busy the request waits in the FIFO admission queue
// until its deadline; it is shed with a BusyError (429 + Retry-After)
// only when the queue is full or the deadline cannot be met. The query
// runs under ctx plus the configured timeout — queue wait counts
// against the deadline; cancellation propagates into scans. timeout <=
// 0 (or anything beyond the service default) uses the service default.
// Positional args bind $1..$n, vida.NamedArg values bind $name; the
// result cache keys on (query, bindings).
func (s *Service) Query(ctx context.Context, src string, args []any, timeout time.Duration) (*Outcome, error) {
	return s.run(ctx, epQuery, src, args, timeout, true)
}

// run is the shared buffered-query path: result cache (when cacheable),
// admission, execution — all under a per-query tracer whose settled span
// tree feeds the profile ring, the phase histograms and the slow-query
// log.
func (s *Service) run(ctx context.Context, endpoint, src string, args []any, timeout time.Duration, cacheable bool) (*Outcome, error) {
	start := time.Now()

	// Result cache first: a hit executes nothing, so it bypasses the
	// admission queue entirely — repeats stay cheap exactly when the
	// engine is saturated. ExplainAnalyze must observe a real execution,
	// so it neither reads nor populates the cache.
	key := cacheKey(src, args)
	if cacheable {
		if v, ok := s.results.get(key, s.core.Current); ok {
			s.resultHits.Add(1)
			s.completed.Add(1)
			out := &Outcome{Result: v.(*vida.Result), Cached: true, Elapsed: time.Since(start), QueryID: trace.NewID()}
			s.profiles.record(&QueryProfile{
				ID: out.QueryID, Endpoint: endpoint, Query: clipQuery(src), Status: "ok",
				Cached: true, Start: start, ElapsedMS: durMS(out.Elapsed), Rows: int64(out.Result.Len()),
			})
			return out, nil
		}
		s.resultMisses.Add(1)
	}

	// Arm the tracer before admission so queue wait is the first span.
	tr := trace.New(trace.NewID(), endpoint)
	ctx = trace.WithTracer(ctx, tr)

	// The timeout starts before admission: a request that waits in the
	// queue spends its own deadline doing so, and one whose deadline
	// cannot be met is shed instead of queued.
	ctx, cancel := s.boundCtx(ctx, timeout)
	defer cancel()
	qsp := tr.Root().Child("queue")
	err := s.acquire(ctx)
	qsp.End()
	if err != nil {
		s.finish(tr, endpoint, src, start, 0, err)
		return nil, err
	}
	s.inFlight.Add(1)
	defer func() {
		s.inFlight.Add(-1)
		s.admit.Release()
	}()

	p, err := s.prepare(ctx, src)
	if err != nil {
		s.failed.Add(1)
		s.finish(tr, endpoint, src, start, 0, err)
		return nil, err
	}
	res, err := p.RunCtx(ctx, args...)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.cancelled.Add(1)
		} else {
			s.failed.Add(1)
		}
		s.finish(tr, endpoint, src, start, 0, err)
		return nil, err
	}
	// The plan's generations were current when it was prepared; if they
	// still are, the run read exactly them, else the result is not cached.
	if reads := p.Internal().Generations(); cacheable && s.core.Current(reads) {
		s.results.put(key, reads, res, approxResultBytes(res))
	}
	s.completed.Add(1)
	out := &Outcome{Result: res, Elapsed: time.Since(start), QueryID: tr.ID()}
	out.Spans = s.finish(tr, endpoint, src, start, int64(res.Len()), nil)
	return out, nil
}

// finish settles one traced query: it closes the span tree, rolls the
// phases into the /metrics histograms, records the /debug/queries
// profile and emits the structured slow-query log.
func (s *Service) finish(tr *trace.Tracer, endpoint, src string, start time.Time, rows int64, qerr error) *trace.SpanNode {
	tr.Finish()
	snap := tr.Snapshot()
	elapsed := time.Since(start)
	ph := phaseTimes(snap)
	for i, d := range ph {
		// Observe even zero durations: the count then reads as "queries
		// that went through this phase", matching vida_queries_total.
		s.phases[i].observe(d)
	}
	status := "ok"
	var errMsg string
	switch {
	case qerr == nil:
	case errors.Is(qerr, ErrBusy):
		status, errMsg = "shed", qerr.Error()
	case errors.Is(qerr, context.Canceled), errors.Is(qerr, context.DeadlineExceeded):
		status, errMsg = "cancelled", qerr.Error()
	default:
		status, errMsg = "failed", qerr.Error()
	}
	s.profiles.record(&QueryProfile{
		ID: tr.ID(), Endpoint: endpoint, Query: clipQuery(src), Status: status, Error: errMsg,
		Start: start, ElapsedMS: durMS(elapsed), Rows: rows, Spans: snap,
	})
	if t := s.cfg.SlowQueryThreshold; t > 0 && elapsed >= t {
		slog.Warn("slow query",
			"query_id", tr.ID(), "endpoint", endpoint, "status", status,
			"duration_ms", durMS(elapsed), "rows", rows,
			"queue_ms", durMS(ph[phaseQueue]), "compile_ms", durMS(ph[phaseCompile]),
			"scan_ms", durMS(ph[phaseScan]), "fold_ms", durMS(ph[phaseFold]),
			"query", clipQuery(src))
	}
	return snap
}

// Analysis is the outcome of ExplainAnalyze: the optimized plan next to
// the executed query's settled span tree (EXPLAIN ANALYZE over HTTP).
type Analysis struct {
	QueryID   string          `json:"query_id"`
	Plan      string          `json:"plan"`
	Rows      int64           `json:"rows"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Spans     *trace.SpanNode `json:"spans"`
}

// ExplainAnalyze plans and executes one query under an armed tracer and
// returns the plan annotated with the execution's span tree. It goes
// through admission like any query but bypasses the result cache in
// both directions — the point is to observe a real execution.
func (s *Service) ExplainAnalyze(ctx context.Context, src string, sql bool, args []any, timeout time.Duration) (*Analysis, error) {
	if sql {
		comp, err := s.eng.TranslateSQL(src)
		if err != nil {
			return nil, &BadQueryError{Err: err}
		}
		src = comp
	}
	plan, err := s.eng.Explain(src)
	if err != nil {
		return nil, &BadQueryError{Err: err}
	}
	out, err := s.run(ctx, epExplain, src, args, timeout, false)
	if err != nil {
		return nil, err
	}
	return &Analysis{
		QueryID:   out.QueryID,
		Plan:      plan,
		Rows:      int64(out.Result.Len()),
		ElapsedMS: durMS(out.Elapsed),
		Spans:     out.Spans,
	}, nil
}

// acquire runs admission and classifies its failures: sheds count as
// rejected, a client that went away while queued as cancelled.
func (s *Service) acquire(ctx context.Context) error {
	if err := s.admit.Acquire(ctx); err != nil {
		if errors.Is(err, ErrBusy) {
			s.rejected.Add(1)
		} else {
			s.cancelled.Add(1)
		}
		return err
	}
	s.admitted.Add(1)
	return nil
}

// QuerySQL translates SQL to a comprehension and serves it through the
// same admission/caching path (equivalent SQL and comprehension queries
// share cache entries).
func (s *Service) QuerySQL(ctx context.Context, src string, args []any, timeout time.Duration) (*Outcome, error) {
	comp, err := s.eng.TranslateSQL(src)
	if err != nil {
		return nil, &BadQueryError{Err: err}
	}
	return s.run(ctx, epSQL, comp, args, timeout, true)
}

// boundCtx applies the admission timeout policy: requests may shorten
// the configured bound, never extend it — an oversized timeout would
// otherwise pin an admission slot far beyond what the operator allowed.
func (s *Service) boundCtx(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	if def := s.cfg.DefaultTimeout; timeout <= 0 || (def > 0 && timeout > def) {
		timeout = def
	}
	if timeout > 0 {
		return context.WithTimeout(ctx, timeout)
	}
	return context.WithCancel(ctx)
}

// QueryRows admits one query and opens a streaming cursor over its
// result: rows reach the caller batch-at-a-time with bounded memory,
// which is what lets the HTTP layer send arbitrarily large results as
// NDJSON without buffering them. The admission slot is held for the
// stream's whole lifetime — a streaming client occupies engine capacity
// exactly like an executing query — and is released by the returned
// release func, which must be called exactly once (after Close on the
// rows). Streamed results bypass the result cache. The returned query
// ID correlates the response header with the stream's profile, which is
// recorded when release settles the outcome.
func (s *Service) QueryRows(ctx context.Context, src string, sql bool, args []any, timeout time.Duration) (*vida.Rows, string, func(), error) {
	if sql {
		comp, err := s.eng.TranslateSQL(src)
		if err != nil {
			return nil, "", nil, &BadQueryError{Err: err}
		}
		src = comp
	}
	start := time.Now()
	tr := trace.New(trace.NewID(), epStream)
	ctx = trace.WithTracer(ctx, tr)
	ctx, cancel := s.boundCtx(ctx, timeout)
	qsp := tr.Root().Child("queue")
	if err := s.acquire(ctx); err != nil {
		qsp.End()
		cancel()
		s.finish(tr, epStream, src, start, 0, err)
		return nil, "", nil, err
	}
	qsp.End()
	s.inFlight.Add(1)
	s.streams.Add(1)
	var once sync.Once
	finish := func(outcome func() error) {
		once.Do(func() {
			cancel()
			s.inFlight.Add(-1)
			s.admit.Release()
			err := outcome()
			switch {
			case err == nil:
				s.completed.Add(1)
			case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
				s.cancelled.Add(1)
			default:
				s.failed.Add(1)
			}
			// The producer goroutine has exited by the time release runs
			// (callers Close the rows first), so the span tree is settled.
			s.finish(tr, epStream, src, start, 0, err)
		})
	}
	p, err := s.prepare(ctx, src)
	if err != nil {
		finish(func() error { return err })
		return nil, "", nil, err
	}
	rows, err := p.RunRowsCtx(ctx, args...)
	if err != nil {
		finish(func() error { return err })
		return nil, "", nil, err
	}
	// The release closure classifies the stream by its terminal error:
	// callers Close the rows first, so Err is settled — a stream that
	// died mid-flight counts as cancelled/failed, not completed.
	return rows, tr.ID(), func() { finish(rows.Err) }, nil
}

// cacheKey builds the result-cache key for a query and its bindings.
// Bindings arrive JSON-decoded (scalars only), so their rendering is
// deterministic; each component is length-prefixed so no crafted value
// can collide with a different binding set (an unframed delimiter
// would let ["a\x1fb"] alias ["a","b"]).
func cacheKey(src string, args []any) string {
	var sb strings.Builder
	frame := func(part string) {
		fmt.Fprintf(&sb, "\x1f%d:%s", len(part), part)
	}
	frame(src)
	for _, a := range args {
		if na, ok := a.(vida.NamedArg); ok {
			frame("$" + na.Name) // "$"-prefix: cannot collide with positional "#"
			frame(fmt.Sprintf("%T:%v", na.Value, na.Value))
			continue
		}
		frame("#")
		frame(fmt.Sprintf("%T:%v", a, a))
	}
	return sb.String()
}

// prepare runs the engine's frontend — a lookup in its plan cache for a
// text it has seen, recorded on the frontend span — and classifies a
// failure as the caller's cancellation or a bad query.
func (s *Service) prepare(ctx context.Context, src string) (*vida.Prepared, error) {
	p, err := s.eng.PrepareCtx(ctx, src)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, &BadQueryError{Err: err}
	}
	return p, nil
}

// approxResultBytes estimates the resident size of a cached result.
// Large collections are sampled (first sampleElems elements extrapolate
// to the whole), so sizing a 100k-row result does not walk 100k rows.
func approxResultBytes(r *vida.Result) int64 {
	return approxValueBytes(r.Value(), 0)
}

const sampleElems = 64

func approxValueBytes(v vida.Value, depth int) int64 {
	const header = 24 // Value struct + boxing overhead, roughly
	if depth > 8 {
		return header
	}
	switch v.Kind() {
	case "string":
		return header + int64(len(v.Str()))
	case "record":
		n := int64(header)
		for _, f := range v.Fields() {
			n += int64(len(f.Name)) + 16 + approxValueBytes(f.Val, depth+1)
		}
		return n
	case "list", "bag", "set", "array":
		elems := v.Elems()
		if len(elems) == 0 {
			return header
		}
		if len(elems) <= sampleElems {
			n := int64(header)
			for _, e := range elems {
				n += approxValueBytes(e, depth+1)
			}
			return n
		}
		var sampled int64
		for _, e := range elems[:sampleElems] {
			sampled += approxValueBytes(e, depth+1)
		}
		return header + sampled*int64(len(elems))/sampleElems
	default:
		return header
	}
}

// lruCache is a small LRU whose entries carry the source generations
// their value was computed from: an entry whose generations are no longer
// all current is treated as absent (and evicted on touch), so a catalog
// change invalidates exactly what read the changed source, without a
// sweep. Eviction honours two budgets: an entry count and, when
// maxBytes > 0, the summed approximate byte size of the entries.
type lruCache struct {
	mu       sync.Mutex
	max      int
	maxBytes int64
	bytes    int64
	ll       *list.List
	items    map[string]*list.Element
}

type lruEntry struct {
	key   string
	reads []core.Generation
	val   any
	size  int64
}

func newLRU(max int, maxBytes int64) *lruCache {
	if max < 0 {
		max = 0
	}
	if maxBytes < 0 {
		maxBytes = 0 // no byte budget
	}
	return &lruCache{max: max, maxBytes: maxBytes, ll: list.New(), items: map[string]*list.Element{}}
}

// get returns the value under key while current holds for its
// generations.
func (c *lruCache) get(key string, current func([]core.Generation) bool) (any, bool) {
	if c.max == 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	ent := el.Value.(*lruEntry)
	if !current(ent.reads) {
		c.removeLocked(el)
		return nil, false
	}
	c.ll.MoveToFront(el)
	return ent.val, true
}

func (c *lruCache) put(key string, reads []core.Generation, val any, size int64) {
	if c.max == 0 {
		return
	}
	// An entry bigger than the whole byte budget can never be resident;
	// inserting it would only evict everything else first.
	if c.maxBytes > 0 && size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*lruEntry)
		c.bytes += size - ent.size
		ent.reads, ent.val, ent.size = reads, val, size
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&lruEntry{key: key, reads: reads, val: val, size: size})
		c.bytes += size
	}
	for c.ll.Len() > c.max || (c.maxBytes > 0 && c.bytes > c.maxBytes) {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		c.removeLocked(oldest)
	}
}

func (c *lruCache) removeLocked(el *list.Element) {
	ent := el.Value.(*lruEntry)
	c.bytes -= ent.size
	c.ll.Remove(el)
	delete(c.items, ent.key)
}

func (c *lruCache) bytesUsed() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
