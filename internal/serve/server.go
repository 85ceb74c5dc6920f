package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"vida"
	"vida/internal/core"
)

// statusClientClosedRequest is nginx's convention for "the client went
// away before the response" — there is no standard code for it.
const statusClientClosedRequest = 499

// maxRequestBody bounds query request bodies (queries are text; 1 MiB is
// generous).
const maxRequestBody = 1 << 20

// Server is the HTTP front-end over a Service.
type Server struct {
	svc *Service
	mux *http.ServeMux
	srv *http.Server
}

// NewServer builds the front-end with all routes registered.
func NewServer(svc *Service) *Server {
	s := &Server{svc: svc, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /query", s.timed(epQuery, s.handleQuery(false)))
	s.mux.HandleFunc("POST /sql", s.timed(epSQL, s.handleQuery(true)))
	s.mux.HandleFunc("POST /stream", s.timed(epStream, s.handleStream))
	s.mux.HandleFunc("GET /catalog", s.handleCatalog)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /explain", s.timed(epExplain, s.handleExplainGET))
	s.mux.HandleFunc("POST /explain", s.timed(epExplain, s.handleExplainPOST))
	s.mux.HandleFunc("GET /debug/queries", s.handleDebugQueries)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	return s
}

// timed wraps a handler with the per-endpoint request-duration
// histogram and a debug-level structured request log.
func (s *Server) timed(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		d := time.Since(start)
		s.svc.observeRequest(endpoint, d)
		slog.Debug("request served",
			"endpoint", endpoint, "method", r.Method, "duration_ms", durMS(d))
	}
}

// Handler exposes the route table wrapped in the panic-containment
// middleware (tests mount it on httptest.Server).
func (s *Server) Handler() http.Handler { return s.recoverWrap(s.mux) }

// recoverWrap is the handler-boundary panic barrier: a panicking handler
// becomes a 500 response (when no bytes have been written yet) plus a
// logged stack and a counter bump, instead of net/http tearing down the
// connection with an opaque empty reply. http.ErrAbortHandler is the
// sanctioned abort mechanism and is re-panicked untouched.
func (s *Server) recoverWrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ww := &writeCapture{ResponseWriter: w}
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				s.svc.panics.Add(1)
				slog.Error("recovered panic in HTTP handler",
					"component", "serve", "method", r.Method, "path", r.URL.Path,
					"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
				if !ww.wrote {
					writeError(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", rec))
				}
			}
		}()
		next.ServeHTTP(ww, r)
	})
}

// writeCapture tracks whether the handler already wrote anything, so the
// panic barrier knows if a 500 can still be sent.
type writeCapture struct {
	http.ResponseWriter
	wrote bool
}

func (c *writeCapture) WriteHeader(code int) { c.wrote = true; c.ResponseWriter.WriteHeader(code) }
func (c *writeCapture) Write(b []byte) (int, error) {
	c.wrote = true
	return c.ResponseWriter.Write(b)
}

// Flush keeps the stream path working through the wrapper.
func (c *writeCapture) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ListenAndServe serves on addr until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	s.srv = &http.Server{Addr: addr, Handler: s.Handler()}
	err := s.srv.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown stops accepting requests, waits (bounded by ctx) for handlers
// to return, then closes the engine so in-flight queries drain fully.
// The engine drain is also bounded by ctx: a query running with no
// timeout must not pin the process open forever.
func (s *Server) Shutdown(ctx context.Context) error {
	var httpErr error
	if s.srv != nil {
		httpErr = s.srv.Shutdown(ctx)
	}
	drained := make(chan error, 1)
	go func() { drained <- s.svc.Close() }()
	select {
	case err := <-drained:
		if err != nil && httpErr == nil {
			httpErr = err
		}
	case <-ctx.Done():
		if httpErr == nil {
			httpErr = ctx.Err()
		}
	}
	return httpErr
}

// queryRequest is the body of POST /query, POST /sql and POST /stream.
// Params may be a JSON array (positional bindings for $1..$n / ?) or an
// object (named bindings for $name); values are scalars.
type queryRequest struct {
	Query     string          `json:"query"`
	Params    json.RawMessage `json:"params"`
	SQL       bool            `json:"sql"`     // POST /stream and POST /explain
	Analyze   bool            `json:"analyze"` // POST /explain only
	TimeoutMS int64           `json:"timeout_ms"`
}

// decodeQueryRequest reads and validates a query request body.
func decodeQueryRequest(r *http.Request) (*queryRequest, []any, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBody))
	if err != nil {
		return nil, nil, fmt.Errorf("reading body: %w", err)
	}
	var req queryRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, fmt.Errorf("bad request body: %w", err)
	}
	if req.Query == "" {
		return nil, nil, errors.New(`missing "query"`)
	}
	args, err := parseParams(req.Params)
	if err != nil {
		return nil, nil, err
	}
	return &req, args, nil
}

// parseParams decodes the params field: an array binds positionally, an
// object by name. JSON numbers become int64 when integral (so $1 = 40
// compares as an int, not 40.0) and float64 otherwise.
func parseParams(raw json.RawMessage) ([]any, error) {
	if len(raw) == 0 || string(raw) == "null" {
		return nil, nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	trimmed := bytes.TrimSpace(raw)
	switch {
	case trimmed[0] == '[':
		var arr []any
		if err := dec.Decode(&arr); err != nil {
			return nil, fmt.Errorf("bad params array: %w", err)
		}
		out := make([]any, len(arr))
		for i, v := range arr {
			p, err := normalizeParam(v)
			if err != nil {
				return nil, fmt.Errorf("param $%d: %w", i+1, err)
			}
			out[i] = p
		}
		return out, nil
	case trimmed[0] == '{':
		var obj map[string]any
		if err := dec.Decode(&obj); err != nil {
			return nil, fmt.Errorf("bad params object: %w", err)
		}
		names := make([]string, 0, len(obj))
		for name := range obj {
			if name == "" {
				return nil, errors.New("param names must be non-empty")
			}
			names = append(names, name)
		}
		sort.Strings(names)
		out := make([]any, 0, len(obj))
		for _, name := range names {
			p, err := normalizeParam(obj[name])
			if err != nil {
				return nil, fmt.Errorf("param $%s: %w", name, err)
			}
			out = append(out, vida.Named(name, p))
		}
		return out, nil
	}
	return nil, errors.New(`"params" must be a JSON array or object`)
}

// normalizeParam maps decoded JSON scalars onto engine-friendly types;
// nested arrays/objects are rejected here so a malformed request gets
// its 400 before reaching execution.
func normalizeParam(v any) (any, error) {
	switch n := v.(type) {
	case nil, bool, string:
		return v, nil
	case json.Number:
		if i, err := n.Int64(); err == nil {
			return i, nil
		}
		f, _ := n.Float64()
		return f, nil
	}
	return nil, fmt.Errorf("values must be scalars, got %T", v)
}

func (s *Server) handleQuery(sql bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, args, err := decodeQueryRequest(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		timeout := time.Duration(req.TimeoutMS) * time.Millisecond
		var out *Outcome
		if sql {
			out, err = s.svc.QuerySQL(r.Context(), req.Query, args, timeout)
		} else {
			out, err = s.svc.Query(r.Context(), req.Query, args, timeout)
		}
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		buf := append([]byte(nil), `{"result":`...)
		buf = appendValueJSON(buf, out.Result.Value())
		buf = append(buf, `,"rows":`...)
		buf = fmt.Appendf(buf, "%d", out.Result.Len())
		buf = append(buf, `,"cached":`...)
		buf = fmt.Appendf(buf, "%t", out.Cached)
		buf = append(buf, `,"elapsed_ms":`...)
		buf = fmt.Appendf(buf, "%.3f", float64(out.Elapsed.Microseconds())/1000)
		buf = append(buf, `,"query_id":`...)
		qid, _ := json.Marshal(out.QueryID)
		buf = append(buf, qid...)
		buf = append(buf, '}', '\n')
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Vida-Query-Id", out.QueryID)
		w.Write(buf)
	}
}

// streamFlushRows is the upper bound on rows written between flushes on
// the NDJSON stream. It is a backstop only: the stream also flushes at
// every cursor chunk boundary, so a slow trickling producer (cold scan,
// sparse matches) never sits on buffered rows while the engine works.
const streamFlushRows = 1024

// handleStream serves POST /stream: the query's rows as NDJSON, one
// JSON document per line, flushed batch-at-a-time straight off the
// engine's cursor — memory stays bounded no matter the result size
// (except set-monoid queries, whose streamed dedup state is O(distinct
// elements), and lists over morsel-parallel scans, emitted in order once
// their fold completes), and the first rows reach the client while the
// scan is still running. The
// final line is a summary record {"done":true,"rows":N}; if the query
// dies mid-stream (timeout, disconnect, data error) the stream instead
// ends with a trailer-style error record {"error":...,"status":499|504|500}
// — the HTTP status line is long gone by then, so the error travels in
// band. Errors before the first row use the normal status codes.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	req, args, err := decodeQueryRequest(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	timeout := time.Duration(req.TimeoutMS) * time.Millisecond
	rows, queryID, release, err := s.svc.QueryRows(r.Context(), req.Query, req.SQL, args, timeout)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	defer release()
	defer rows.Close()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.Header().Set("X-Vida-Query-Id", queryID)
	flusher, _ := w.(http.Flusher)
	var buf []byte
	n := 0
	flush := func() bool {
		if len(buf) == 0 {
			return true
		}
		if _, err := w.Write(buf); err != nil {
			return false // client went away; rows.Close aborts the scan
		}
		buf = buf[:0]
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	pending := 0
	for rows.Next() {
		buf = rows.Value().AppendJSON(buf)
		buf = append(buf, '\n')
		n++
		pending++
		// Flush whenever the producer chunk is drained (the next Next
		// would block on the engine) and as a backstop every
		// streamFlushRows rows — first-row latency matches the cursor's.
		if (rows.ChunkBoundary() || pending >= streamFlushRows) && pending > 0 {
			if !flush() {
				return
			}
			pending = 0
		}
	}
	if err := rows.Err(); err != nil {
		// json.Marshal (not %q) keeps the trailer valid JSON even when
		// the error message carries control bytes or invalid UTF-8.
		msg, _ := json.Marshal(err.Error())
		buf = append(buf, `{"error":`...)
		buf = append(buf, msg...)
		buf = fmt.Appendf(buf, `,"status":%d}`+"\n", statusFor(err))
		flush()
		return
	}
	buf = fmt.Appendf(buf, `{"done":true,"rows":%d}`+"\n", n)
	flush()
}

// handleMetrics serves GET /metrics in Prometheus text exposition
// format, driven by the metricDefs descriptor table (metrics.go) plus
// the admission-wait, per-endpoint and per-phase histograms.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	v := &statsView{svc: s.svc.StatsSnapshot(), eng: s.svc.Engine().Stats()}
	if p := s.svc.Pool(); p != nil {
		v.pool, v.hasPool = p.StatsSnapshot(), true
	}

	var b []byte
	for _, d := range metricDefs {
		if d.sched && !v.hasPool {
			continue
		}
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n%s %d\n",
			d.name, d.help, d.name, d.kind, d.name, d.value(v))
	}

	// Admission-wait histogram in standard exposition shape.
	cum, waitSum, waitCount := s.svc.admit.WaitStats()
	b = appendHistHeader(b, "vida_serve_queue_wait_seconds", "Time requests spent waiting for an admission slot.")
	b = appendHistSeries(b, "vida_serve_queue_wait_seconds", "", cum, waitSum, waitCount)

	// Per-endpoint HTTP request durations.
	b = appendHistHeader(b, "vida_http_request_seconds", "HTTP request wall time by endpoint.")
	for _, ep := range endpointOrder {
		cum, sum, count := s.svc.reqHists[ep].stats()
		b = appendHistSeries(b, "vida_http_request_seconds", fmt.Sprintf("endpoint=%q", ep), cum, sum, count)
	}

	// Per-phase query execution times, rolled up from span trees.
	b = appendHistHeader(b, "vida_query_phase_seconds", "Per-phase query execution time rolled up from span trees.")
	for ph := range numPhases {
		cum, sum, count := s.svc.phases[ph].stats()
		b = appendHistSeries(b, "vida_query_phase_seconds", fmt.Sprintf("phase=%q", phaseNames[ph]), cum, sum, count)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(b)
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	eng := s.svc.Engine()
	type sourceInfo struct {
		Name        string `json:"name"`
		Description string `json:"description"`
	}
	names := eng.Sources()
	out := make([]sourceInfo, 0, len(names))
	for _, n := range names {
		info := sourceInfo{Name: n}
		if desc, ok := eng.Internal().Description(n); ok {
			info.Description = desc.String()
		}
		out = append(out, info)
	}
	writeJSON(w, map[string]any{"sources": out})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{
		"service": s.svc.StatsSnapshot(),
		"engine":  s.svc.Engine().Stats(),
	}
	if p := s.svc.Pool(); p != nil {
		resp["scheduler"] = p.StatsSnapshot()
	}
	writeJSON(w, resp)
}

// handleExplainGET serves GET /explain?q=...&sql=true&analyze=true:
// plan-only by default, plan + executed span tree with analyze=true.
func (s *Server) handleExplainGET(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		writeError(w, http.StatusBadRequest, errors.New(`missing "q" parameter`))
		return
	}
	sql := r.URL.Query().Get("sql") == "true"
	analyze := r.URL.Query().Get("analyze") == "true"
	s.explain(w, r, q, sql, analyze, nil, 0)
}

// handleExplainPOST serves POST /explain with the query-request body
// ({"query":..., "sql":..., "analyze":..., "params":..., "timeout_ms":...}),
// so analyzed queries can bind parameters like /query does.
func (s *Server) handleExplainPOST(w http.ResponseWriter, r *http.Request) {
	req, args, err := decodeQueryRequest(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	timeout := time.Duration(req.TimeoutMS) * time.Millisecond
	s.explain(w, r, req.Query, req.SQL, req.Analyze, args, timeout)
}

func (s *Server) explain(w http.ResponseWriter, r *http.Request, q string, sql, analyze bool, args []any, timeout time.Duration) {
	if !analyze {
		if sql {
			comp, err := s.svc.Engine().TranslateSQL(q)
			if err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
			q = comp
		}
		plan, err := s.svc.Engine().Explain(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, map[string]any{"plan": plan})
		return
	}
	a, err := s.svc.ExplainAnalyze(r.Context(), q, sql, args, timeout)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	w.Header().Set("X-Vida-Query-Id", a.QueryID)
	writeJSON(w, a)
}

// handleDebugQueries serves GET /debug/queries: the ring of recently
// completed query profiles (span trees included), newest first, keyed
// by the same IDs the X-Vida-Query-Id response header carries.
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	profiles, total := s.svc.Profiles()
	writeJSON(w, map[string]any{"queries": profiles, "recorded": total})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"ok": true})
}

// statusFor maps service errors onto HTTP statuses: frontend failures
// (the request's query is at fault) are 4xx, execution failures (the
// query was valid but the engine could not finish it — I/O errors,
// malformed source data with onerror=fail) are 5xx.
func statusFor(err error) int {
	var badQuery *BadQueryError
	var badParam *core.ParamError
	switch {
	case errors.Is(err, ErrBusy):
		return http.StatusTooManyRequests
	case errors.Is(err, core.ErrMemoryBudget):
		// 507 Insufficient Storage: the query was valid but exceeded its
		// memory budget (or the global one); retrying as-is will not help
		// unless load drops, which distinguishes it from a plain 500.
		return http.StatusInsufficientStorage
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	case errors.Is(err, core.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.As(err, &badQuery), errors.As(err, &badParam):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	var busy *BusyError
	if errors.As(err, &busy) {
		// Whole seconds, rounded up, at least 1 — the header has no
		// sub-second granularity.
		secs := int64((busy.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
