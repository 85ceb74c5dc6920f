package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vida"
	"vida/internal/serve"
)

// env is what one workload run is given.
type env struct {
	seed    int64
	seconds float64
	dir     string // scratch directory for generated files, inside the checkout
	sz      sizes
	// setups is the least number of set-ups a run times, setupTime how long
	// it keeps repeating cheap ones; setup_s is the median.
	setups    int
	setupTime time.Duration
	sys       sys
}

func (e *env) window() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

// sub makes a fresh scratch subdirectory.
func (e *env) sub(name string) (string, error) {
	d := filepath.Join(e.dir, name)
	return d, emptyDir(d)
}

// workload is one entry of the suite. headline names the workload's own
// timing, reported both under that name and as the end-to-end metric
// headline_ms, which every workload emits.
type workload struct {
	name     string
	why      string
	clients  int
	headline string
	run      func(e *env, res *result) error
	// trace generates the data and hands the traced run its sample
	// (layers.go).
	trace func(e *env) (*traceCase, error)
}

var suite = []workload{
	{name: "raw-cycle", clients: 1, headline: "first_touch_p50_ms", run: runRawCycle, trace: traceRawCycle,
		why: "working set 4x the cache: rawcsv tokenize/parse/posmap and core harvest do the work, kernels and serve almost none"},
	{name: "warm-analytics", clients: 2, headline: "tpl.group-by.p50_ms", run: runWarmAnalytics, trace: traceWarmAnalytics,
		why: "hot typed columns, result LRU off: jit/vec/monoid/sched dominate and rawcsv must do nothing"},
	{name: "point-serve", clients: 2, headline: "fresh_text_p50_ms", run: runPointServe, trace: tracePointServe,
		why: "600-row table: serve admission/LRUs/JSON and the frontends dominate, scans and kernels are negligible"},
	{name: "encoded-restart", clients: 2, headline: "restart_first_answer_ms", run: runEncodedRestart, trace: traceEncodedRestart,
		why: "hot tier of 1 byte plus a cache dir: colenc decode-on-demand and rehydrate instead of zero-copy windows"},
	{name: "refresh-append", clients: 1, headline: "fresh_after_append_ms", run: runRefreshAppend, trace: traceRefreshAppend,
		why: "1% appends with Refresh beside reads: whatever the caches and posmaps hold is paid for again on invalidation"},
	{name: "explore", clients: 1, headline: "session_ms", run: runExplore, trace: traceExplore,
		why: "the paper's Fig. 5 session on a fresh engine: rawjson, cross-format joins and the natural ~80% cache-hit mix"},
}

func findWorkload(name string) (*workload, bool) {
	for i := range suite {
		if suite[i].name == name {
			return &suite[i], true
		}
	}
	return nil, false
}

// runWorkload runs one workload end to end with tracing off.
func runWorkload(w *workload, e *env) (*result, error) {
	res := newResult(w.name, w.why, w.clients)
	res.Seconds = e.seconds
	if err := w.run(e, res); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if h, ok := res.Details[w.headline]; ok {
		res.Metrics["headline_ms"] = h
	}
	res.Details["fail_ratio"] = metric{Value: res.failRatio(), Unit: "ratio", N: res.Attempted}
	return res, nil
}

// warm sends each request once per round from one client and fails on the
// first wrong answer: a workload whose warm-up is wrong measures nothing.
func warm(in *instance, rounds int, reqs ...*request) error {
	cl := newClient()
	defer cl.close()
	for i := 0; i < rounds; i++ {
		for _, rq := range reqs {
			if ok, _, body := cl.do(in.url, rq); !ok {
				return fmt.Errorf("warm-up %s %s: wrong answer %.200s", rq.path, rq.body, body)
			}
		}
	}
	return nil
}

// finish records what every workload reports once its window has closed
// and its samples are dropped: set-up time and the heap the instance
// retains.
//
// The settle requests, if any, first bring the engine to the state its
// heap is to be read in.
func finish(res *result, in *instance, setupS metric, heapBase float64, t0 time.Time, datagen time.Duration, settle ...*request) error {
	if err := warm(in, 1, settle...); err != nil {
		return err
	}
	res.Metrics["setup_s"] = setupS
	res.Metrics["live_heap_mb"] = metric{Value: liveHeapMB() - heapBase, Unit: "MB", N: 1}
	res.Details["datagen_s"] = metric{Value: datagen.Seconds(), Unit: "s", N: 1}
	res.Details["run_wall_s"] = metric{Value: time.Since(t0).Seconds(), Unit: "s", N: 1}
	return nil
}

// classDetails reports each template's median latency.
func classDetails(res *result, samples []sample, span time.Duration, names []string) {
	for c, name := range names {
		if s := ofClass(samples, c); len(s) > 0 {
			res.Details["tpl."+name+".p50_ms"] = latency(s, span, 0.5)
		}
	}
}

// ---------------------------------------------------------------------
// warm-analytics
// ---------------------------------------------------------------------

// analyticsData is People and Orders with the five-template mix.
type analyticsData struct {
	people *people
	orders *orders
	mix    *mix
	sys
}

// peopleProbe points the layer probes at the People file.
func peopleProbe(p *people, cold *request) probeSpec {
	return probeSpec{name: "People", path: p.path, schema: peopleSchema,
		fields: [2]string{"age", "salary"}, other: "score", cold: cold}
}

func traceWarmAnalytics(e *env) (*traceCase, error) {
	d, err := genAnalytics(e)
	if err != nil {
		return nil, err
	}
	// Two turns of the mix's cycle, constants drawn as the clients draw
	// them.
	r := rand.New(rand.NewSource(e.seed))
	var reqs []*request
	for i := 0; i < 2*len(d.mix.cycle); i++ {
		reqs = append(reqs, d.mix.next(r, i))
	}
	return &traceCase{
		start: func(w wrapper) (*instance, error) { d.wrap = w; return d.setup() },
		steps: requestSteps(reqs),
		probe: peopleProbe(d.people, d.mix.templates[0].pool[0]),
	}, nil
}

func genAnalytics(e *env) (*analyticsData, error) {
	p, err := genPeople(e.dir, e.sz.bigRows, e.seed)
	if err != nil {
		return nil, err
	}
	o, err := genOrders(e.dir, e.sz.bigRows, e.sz.bigRows, e.seed)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(e.seed + 100))
	// Weights give each template a comparable share of busy time at this
	// repository's costs over 300k warm rows (filter-agg ~3 ms, top-k ~10 ms,
	// join ~25 ms, grouped ~40-50 ms), and keep three requests in four
	// filter-aggs so the overall median latency falls well inside that
	// template's distribution, not on the edge between two.
	m := newMix(
		template{name: "filter-agg", weight: 24, pool: filterAggPool(p, r)},
		template{name: "group-by", weight: 2, pool: groupByPool(p, r)},
		template{name: "top-k", weight: 4, pool: topKPool(p, r)},
		template{name: "group-having", weight: 1, pool: groupHavingPool(p, r)},
		template{name: "join-agg", weight: 1, pool: joinAggPool(p, o, r)},
	)
	return &analyticsData{people: p, orders: o, mix: m, sys: e.sys}, nil
}

func (d *analyticsData) register(eng *vida.Engine) error {
	if err := eng.RegisterCSV("People", d.people.path, peopleSchema, nil); err != nil {
		return err
	}
	return eng.RegisterCSV("Orders", d.orders.path, ordersSchema, nil)
}

// firstOfEach is one request per template, for warm-up passes.
func (m *mix) firstOfEach() []*request {
	var out []*request
	for _, t := range m.templates {
		out = append(out, t.pool[0])
	}
	return out
}

// noResultCache makes every request execute.
var noResultCache = serve.Config{ResultCacheEntries: -1}

func (d *analyticsData) setup() (*instance, error) {
	eng := d.engine()
	if err := d.register(eng); err != nil {
		return nil, err
	}
	in, err := d.serve(eng, noResultCache)
	if err != nil {
		return nil, err
	}
	// Two rounds: the first touches raw and harvests, the second confirms
	// every column now comes from the cache.
	if err := warm(in, 2, d.mix.firstOfEach()...); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

func runWarmAnalytics(e *env, res *result) error {
	t0 := time.Now()
	d, err := genAnalytics(e)
	if err != nil {
		return err
	}
	datagen := time.Since(t0)
	// The oracle's columns are part of the heap baseline; they must still be
	// there at the last heap reading, or live_heap_mb comes out short by them.
	defer runtime.KeepAlive(d)
	in, setupS, heapBase, err := timedSetups(e, d.setup)
	if err != nil {
		return err
	}
	defer in.close()
	before := in.eng.Stats()
	samples := closedLoop(in.url, res.Clients, e.window(), e.seed, d.mix.next)
	after := in.eng.Stats()
	steadyMetrics(res, samples, e.window(), 0.95)
	classDetails(res, samples, e.window(), d.mix.classNames())
	samples = nil
	res.Details["core.raw_touches"] = metric{Value: float64(after.QueriesTouchedRaw - before.QueriesTouchedRaw), Unit: "count"}
	res.Checks["raw_touches_zero"] = after.QueriesTouchedRaw == before.QueriesTouchedRaw
	return finish(res, in, setupS, heapBase, t0, datagen)
}

func emptyDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}

func writeFile(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }

// appendFile grows a file with one write.
func appendFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
