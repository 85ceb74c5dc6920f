package main

import (
	"fmt"
	"runtime"
	"time"

	"vida"
	"vida/internal/serve"
	hbp "vida/internal/workload"
)

// explore: the paper's Fig. 5 session. A fresh engine over the Patients
// and Genetics CSVs and the BrainRegions JSON answers the 150
// comprehensions of hbp.Generate in order over POST /query; sessions
// repeat, each on a fresh engine, until the window closes. Expected
// answers come from one run of the reference executor in set-up.

const exploreQueries = 150

// exploreSession seeds the query sequence. The run's seed generates the
// data; the sequence (which columns are hot, which queries join, where the
// cold picks fall) stays the same, because a different sequence is a
// different amount of work: across ten seeds the session time spread 16%
// with the sequence drawn from the seed and under 4% with it fixed.
const exploreSession = 42

type exploreData struct {
	paths *hbp.Paths
	scale hbp.Scale
	reqs  []*request
	// patientsOnly is the first query that reads no other dataset; the
	// layer probes run it against the Patients file alone.
	patientsOnly *request
	sys
}

// traceExplore samples one whole session on a fresh engine.
func traceExplore(e *env) (*traceCase, error) {
	d, err := genExplore(e)
	if err != nil {
		return nil, err
	}
	return &traceCase{
		start: func(w wrapper) (*instance, error) { d.wrap = w; return d.start() },
		steps: requestSteps(d.reqs),
		probe: probeSpec{name: "Patients", path: d.paths.Patients, schema: hbp.PatientsSchema(d.scale),
			fields: [2]string{"age", "bmi"}, other: "p7", cold: d.patientsOnly,
			jsonPath: d.paths.Regions, jsonFields: [2]string{"id", "volume"}},
	}, nil
}

func (d *exploreData) register(eng *vida.Engine) error {
	if err := eng.RegisterCSV("Patients", d.paths.Patients, hbp.PatientsSchema(d.scale), nil); err != nil {
		return err
	}
	if err := eng.RegisterCSV("Genetics", d.paths.Genetics, hbp.GeneticsSchema(d.scale), nil); err != nil {
		return err
	}
	return eng.RegisterJSON("BrainRegions", d.paths.Regions, "")
}

func genExplore(e *env) (*exploreData, error) {
	d := &exploreData{scale: hbp.Factor(e.sz.explore), sys: e.sys}
	var err error
	if d.paths, err = hbp.GenerateAll(e.dir, d.scale, e.seed); err != nil {
		return nil, err
	}
	ref := vida.New(vida.WithReferenceExecutor())
	defer ref.Close()
	if err := d.register(ref); err != nil {
		return nil, err
	}
	for i, q := range hbp.Generate(exploreQueries, d.scale, exploreSession).Queries {
		text := q.Comprehension()
		out, err := ref.Query(text)
		if err != nil {
			return nil, fmt.Errorf("reference executor, query %d: %w", i+1, err)
		}
		val, err := decodeJSON(out.Value().AppendJSON(nil))
		if err != nil {
			return nil, err
		}
		rq := mclRequest(text, &want{val: val})
		rq.class = int(q.Kind)
		d.reqs = append(d.reqs, rq)
		if d.patientsOnly == nil && !q.Joins3Way {
			d.patientsOnly = rq
		}
	}
	return d, nil
}

func (d *exploreData) start() (*instance, error) {
	eng := d.engine()
	if err := d.register(eng); err != nil {
		return nil, err
	}
	return d.serve(eng, serve.Config{})
}

// sessionRun is one pass over the 150 queries on its own engine.
type sessionRun struct {
	in      *instance // left running; the caller closes it
	samples []sample
	wall    time.Duration // engine start to last answer
	hitRate float64       // queries served without touching a raw file
}

// session starts a fresh engine and runs the 150 queries against it in
// order.
func (d *exploreData) session() (*sessionRun, error) {
	start := time.Now()
	in, err := d.start()
	if err != nil {
		return nil, err
	}
	run := &sessionRun{in: in}
	cl := newClient()
	defer cl.close()
	for _, rq := range d.reqs {
		ok, lat, _ := cl.do(in.url, rq)
		run.samples = append(run.samples, sample{class: rq.class, ok: ok, end: time.Since(start), lat: lat})
	}
	run.wall = time.Since(start)
	st := in.eng.Stats()
	run.hitRate = ratio(st.QueriesFromCache, st.Queries)
	return run, nil
}

// setup is one whole warm-up session, discarded: it brings the files into
// the page cache and the runtime to size. Its engine is handed back only
// to be closed; every measured session starts its own.
func (d *exploreData) setup() (*instance, error) {
	run, err := d.session()
	if err != nil {
		return nil, err
	}
	if n := countFailed(run.samples); n > 0 {
		run.in.close()
		return nil, fmt.Errorf("warm-up session: %d wrong answers", n)
	}
	return run.in, nil
}

func runExplore(e *env, res *result) error {
	t0 := time.Now()
	d, err := genExplore(e)
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
	defer func() { in.close() }()

	start := time.Now()
	var all []sample
	var walls, qps, p50, hits []float64
	for len(walls) < 3 || time.Since(start) < e.window() {
		in.close()
		run, err := d.session()
		if err != nil {
			return err
		}
		in = run.in // the last session's engine stays up for the heap reading
		all = append(all, run.samples...)
		walls = append(walls, ms(run.wall))
		qps = append(qps, throughput(run.samples, run.wall))
		p50 = append(p50, latencyAt(0.5)(run.samples, 0))
		hits = append(hits, run.hitRate)
	}
	res.Attempted = len(all)
	res.Failed = countFailed(all)
	res.Details["session_ms"] = ofSlices(walls, "ms", len(walls))
	res.Details["session_s"] = metric{Value: median(walls) / 1000, Unit: "s", N: len(walls)}
	res.Metrics["qps"] = ofSlices(qps, "1/s", len(all))
	res.Metrics["lat_p50_ms"] = overall(ofSlices(p50, "ms", len(all)), all, 0.5)
	p := tailPercentile(len(all), 0.95)
	res.Details["lat_tail_ms"] = metric{Value: ms(percentile(latencies(all), p)), Unit: "ms", N: len(all)}
	res.Details["lat_tail_pct"] = metric{Value: p * 100, Unit: "%", N: len(all)}
	res.Details["core.cache_served_ratio"] = metric{Value: median(hits), Unit: "ratio", N: exploreQueries}
	all = nil
	return finish(res, in, setupS, heapBase, t0, datagen)
}
