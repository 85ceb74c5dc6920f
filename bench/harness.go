package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"vida"
	"vida/internal/sched"
	"vida/internal/serve"
)

// instance is one system under test: an engine behind the product's HTTP
// handler on a real loopback listener, in this process.
type instance struct {
	eng *vida.Engine
	svc *serve.Service
	srv *http.Server
	url string
	err chan error
}

// wrapper wraps the product's handler; the traced run uses one to time the
// handler from inside the process. Nil leaves the handler as it is.
type wrapper func(http.Handler) http.Handler

// sys is how a workload brings its system up. Every workload creates its
// engines and services through it, so that the traced run can wrap the
// handler and a sensitivity run (README.md) can turn one existing option
// of the product on everywhere.
type sys struct {
	wrap wrapper
	knob string
}

// The knobs of the sensitivity runs, each an option the product already
// has.
var knobs = map[string]string{
	"workers1":        "vida.WithWorkers(1): every query runs serially",
	"no-result-cache": "serve.Config{ResultCacheEntries: -1}: every request executes",
	"hot1":            "vida.WithCacheHotBytes(1): cached columns are held encoded and decoded on demand",
	"nocache":         "vida.WithoutCaching(): every scan goes to the raw file",
}

func (s sys) engine(opts ...vida.Option) *vida.Engine {
	switch s.knob {
	case "workers1":
		opts = append(opts, vida.WithWorkers(1))
	case "hot1":
		opts = append(opts, vida.WithCacheHotBytes(1))
	case "nocache":
		opts = append(opts, vida.WithoutCaching())
	}
	return vida.New(opts...)
}

func (s sys) serve(eng *vida.Engine, cfg serve.Config) (*instance, error) {
	if s.knob == "no-result-cache" {
		cfg.ResultCacheEntries = -1
	}
	return serveEngine(eng, cfg, s.wrap)
}

// serveEngine puts eng behind serve.Server on 127.0.0.1:0.
func serveEngine(eng *vida.Engine, cfg serve.Config, wrap wrapper) (*instance, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := serve.NewService(eng, sched.Default(), cfg)
	h := serve.NewServer(svc).Handler()
	if wrap != nil {
		h = wrap(h)
	}
	in := &instance{eng: eng, svc: svc, srv: &http.Server{Handler: h},
		url: "http://" + ln.Addr().String(), err: make(chan error, 1)}
	go func() { in.err <- in.srv.Serve(ln) }()
	return in, nil
}

// close stops the listener, waits for the accept loop and closes the
// engine.
func (in *instance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	in.srv.Shutdown(ctx)
	<-in.err
	in.eng.Close()
}

// request is one HTTP call and the answer it must produce.
type request struct {
	path  string // /sql, /query or /stream
	body  []byte
	class int // index into the workload's class names
	want  *want
	// verify replaces want for responses that are not a result envelope
	// (NDJSON streams) or whose expected answer depends on when it was
	// sent (reads racing an append).
	verify func(body []byte) bool
	// The query as the traced run takes it through the layers by hand.
	text string
	args []any
	sql  bool
}

// sqlRequest is a POST /sql with positional parameters.
func sqlRequest(text string, w *want, args ...any) *request {
	return &request{path: "/sql", body: queryBody(text, args...), want: w, text: text, args: args, sql: true}
}

// mclRequest is a POST /query carrying a comprehension.
func mclRequest(text string, w *want) *request {
	return &request{path: "/query", body: queryBody(text), want: w, text: text}
}

func queryBody(query string, params ...any) []byte {
	b, err := json.Marshal(struct {
		Query  string `json:"query"`
		Params []any  `json:"params,omitempty"`
	}{query, params})
	if err != nil {
		panic(err) // strings and numbers always marshal
	}
	return b
}

// client is one closed-loop caller with its own keep-alive connection.
type client struct {
	http    *http.Client
	buf     bytes.Buffer
	queryID string // X-Vida-Query-Id of the last response
}

func newClient() *client {
	return &client{http: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, DisableCompression: true}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and reports whether the verified-correct answer
// came back, with the round-trip time including reading the body.
func (c *client) do(url string, rq *request) (ok bool, lat time.Duration, body []byte) {
	t0 := time.Now()
	resp, err := c.http.Post(url+rq.path, "application/json", bytes.NewReader(rq.body))
	if err != nil {
		return false, time.Since(t0), nil
	}
	c.queryID = resp.Header.Get("X-Vida-Query-Id")
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	lat = time.Since(t0)
	body = c.buf.Bytes()
	if err != nil || resp.StatusCode != http.StatusOK {
		return false, lat, body
	}
	if rq.verify != nil {
		return rq.verify(body), lat, body
	}
	raw, found := resultOf(body)
	return found && rq.want.check(raw), lat, body
}

// sample is one completed request of a measured window.
type sample struct {
	class int
	ok    bool
	end   time.Duration // completion, since the window opened
	lat   time.Duration
}

// closedLoop runs the given number of clients against url for dur: each
// sends its next request only when the previous answer has arrived. next
// is called with the client's own seeded generator and the position of the
// request in that client's sequence, which starts at a seeded offset.
func closedLoop(url string, clients int, dur time.Duration, seed int64, next func(r *rand.Rand, i int) *request) []sample {
	per := make([][]sample, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient()
			defer cl.close()
			r := rand.New(rand.NewSource(seed*1000 + int64(c)))
			out := make([]sample, 0, 1<<14)
			for i := r.Intn(1 << 20); time.Since(start) < dur; i++ {
				rq := next(r, i)
				ok, lat, _ := cl.do(url, rq)
				out = append(out, sample{class: rq.class, ok: ok, end: time.Since(start), lat: lat})
			}
			per[c] = out
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`   // samples behind the value
	IQR   float64 `json:"iqr,omitempty"` // spread between the window's slices
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quartiles follows Python's statistics.quantiles(n=4), the method the
// acceptance check uses.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func median(vals []float64) float64 { _, m, _ := quartiles(vals); return m }

// percentile is the nearest-rank percentile of sorted latencies.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailPercentile is the highest of the usual percentiles, up to limit,
// that leaves at least ten samples beyond it.
func tailPercentile(n int, limit float64) float64 {
	best := 0.5
	for _, p := range []float64{0.75, 0.90, 0.95, 0.99, 0.999} {
		if p <= limit && float64(n)*(1-p) >= 10 {
			best = p
		}
	}
	return best
}

const windowSlices = 5

// sliced cuts a window of span into five equal slices by completion time,
// applies f to each and returns the median of the slices with their
// spread.
func sliced(samples []sample, span time.Duration, unit string, f func([]sample, time.Duration) float64) metric {
	parts := make([][]sample, windowSlices)
	width := span / windowSlices
	for _, s := range samples {
		// A request still in flight when the window closed belongs to no
		// slice.
		if k := int(s.end / width); k < windowSlices {
			parts[k] = append(parts[k], s)
		}
	}
	var vals []float64
	for _, p := range parts {
		if len(p) > 0 {
			vals = append(vals, f(p, width))
		}
	}
	return ofSlices(vals, unit, len(samples))
}

// slicedByCount is sliced for one client's samples in completion order,
// cut into five runs of equal length; from is when the first began.
func slicedByCount(samples []sample, from time.Duration, unit string, f func([]sample, time.Duration) float64) metric {
	var vals []float64
	for k := 0; k < windowSlices; k++ {
		lo, hi := k*len(samples)/windowSlices, (k+1)*len(samples)/windowSlices
		if lo == hi {
			continue
		}
		vals = append(vals, f(samples[lo:hi], samples[hi-1].end-from))
		from = samples[hi-1].end
	}
	return ofSlices(vals, unit, len(samples))
}

func ofSlices(vals []float64, unit string, n int) metric {
	q1, med, q3 := quartiles(vals)
	return metric{Value: med, Unit: unit, N: n, IQR: q3 - q1}
}

func latencies(samples []sample) []time.Duration {
	out := make([]time.Duration, len(samples))
	for i, s := range samples {
		out[i] = s.lat
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func latencyAt(p float64) func([]sample, time.Duration) float64 {
	return func(s []sample, _ time.Duration) float64 { return ms(percentile(latencies(s), p)) }
}

// latency reports the p-th percentile latency of a time-sliced window.
// The value is the percentile of all samples: the median of five slice
// medians wanders when a class has only a few dozen samples and a burst of
// slow ones fills a slice. The slices still give the printed spread.
func latency(samples []sample, span time.Duration, p float64) metric {
	return overall(sliced(samples, span, "ms", latencyAt(p)), samples, p)
}

func overall(m metric, samples []sample, p float64) metric {
	m.Value = ms(percentile(latencies(samples), p))
	return m
}

func throughput(s []sample, width time.Duration) float64 {
	ok := 0
	for _, x := range s {
		if x.ok {
			ok++
		}
	}
	return float64(ok) / width.Seconds()
}

func ofClass(samples []sample, class int) []sample {
	var out []sample
	for _, s := range samples {
		if s.class == class {
			out = append(out, s)
		}
	}
	return out
}

func countFailed(samples []sample) int {
	n := 0
	for _, s := range samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// steadyMetrics fills the metrics every time-sliced closed-loop window
// reports: qps, lat_p50_ms and the tail as a detail.
func steadyMetrics(res *result, samples []sample, span time.Duration, tailLimit float64) {
	res.Attempted += len(samples)
	res.Failed += countFailed(samples)
	res.Metrics["qps"] = sliced(samples, span, "1/s", throughput)
	res.Metrics["lat_p50_ms"] = latency(samples, span, 0.5)
	p := tailPercentile(len(samples), tailLimit)
	res.Details["lat_tail_ms"] = latency(samples, span, p)
	res.Details["lat_tail_pct"] = metric{Value: p * 100, Unit: "%", N: len(samples)}
}

// liveHeapMB is the heap still reachable after a forced collection.
//
// The scheduler's workers keep the last job they ran reachable, and with
// it that query's hash tables and the engine it ran on, even one long
// closed. A short job with more tasks than workers, each long enough that
// no worker takes them all, gives every worker a new last job first.
func liveHeapMB() float64 {
	pool := sched.Default()
	pool.Run(context.Background(), 8*pool.Workers(), func(int) error { time.Sleep(time.Millisecond); return nil })
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// result is what one workload run reports.
type result struct {
	Workload  string            `json:"workload"`
	Why       string            `json:"why"`
	Clients   int               `json:"clients"`
	Seconds   float64           `json:"seconds"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"` // end to end, gated
	Details   map[string]metric `json:"details"` // reported, not gated
	// Checks are the isolation assertions: each names what the workload
	// must or must not exercise and whether that held.
	Checks map[string]bool `json:"checks"`
}

func newResult(name, why string, clients int) *result {
	return &result{Workload: name, Why: why, Clients: clients,
		Metrics: map[string]metric{}, Details: map[string]metric{}, Checks: map[string]bool{}}
}

// failRatio is (errors + refusals + wrong answers) / attempted.
func (r *result) failRatio() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// timedSetups sets the system up at least e.setups times, and again while
// less than e.setupTime has gone into it, closing all but the last
// instance, and reports the median set-up time. The heap baseline is read
// before the first set-up.
func timedSetups(e *env, setup func() (*instance, error)) (in *instance, setupS metric, heapBase float64, err error) {
	const most = 15
	heapBase = liveHeapMB()
	var times []float64
	var total time.Duration
	for len(times) < e.setups || (total < e.setupTime && len(times) < most) {
		if in != nil {
			in.close()
		}
		t0 := time.Now()
		if in, err = setup(); err != nil {
			return nil, metric{}, 0, err
		}
		total += time.Since(t0)
		times = append(times, time.Since(t0).Seconds())
	}
	q1, med, q3 := quartiles(times)
	return in, metric{Value: med, Unit: "s", N: len(times), IQR: q3 - q1}, heapBase, nil
}
