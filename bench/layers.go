package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"vida"
	"vida/internal/cache"
	"vida/internal/colenc"
	"vida/internal/rawcsv"
	"vida/internal/rawjson"
	"vida/internal/sched"
	"vida/internal/sdg"
	coretrace "vida/internal/trace"
	"vida/internal/values"
	"vida/internal/vec"
)

// perLayerMetrics are the per-layer numbers every workload's traced run
// reports; BENCHMARK.json's per_layer list names the same ones. Metrics
// only some workloads can measure (sqlfront for the SQL ones, rawjson for
// explore) are printed as details.
var perLayerMetrics = []string{
	"serve.http_overhead_us", "serve.json_us_per_row", "serve.result_hit_ratio", "serve.prepared_hit_ratio",
	"front.parse_check_normalize_us", "plan.translate_optimize_us",
	"core.prepare_hit_us", "core.prepare_miss_us", "core.plan_cache_hit_ratio", "core.harvest_overhead_ms", "core.raw_touches",
	"jit.compile_us", "jit.exec_ms", "jit.rows_per_s",
	"sched.dispatch_us_per_morsel", "sched.speedup_w2",
	"rawcsv.cold_mb_s", "rawcsv.posmap_mb_s", "rawcsv.range_mb_s", "rawcsv.aux_bytes_per_row",
	"cache.hit_ratio", "cache.evictions", "cache.bytes_per_raw_byte", "cache.rehydrate_ms",
	"colenc.encode_mb_s", "colenc.decode_mb_s", "colenc.ratio",
}

// traceCase is what a workload hands the traced run: how to bring its
// system up, the fixed single-client sample, and the file its layer
// probes read.
type traceCase struct {
	start func(wrap wrapper) (*instance, error)
	steps []step
	probe probeSpec
}

// step is a sampled request, or an action between requests (an append).
type step struct {
	rq *request
	do func(in *instance) error
}

func requestSteps(reqs []*request) []step {
	out := make([]step, len(reqs))
	for i, rq := range reqs {
		out[i] = step{rq: rq}
	}
	return out
}

// probeSpec names a CSV of the workload and a query over it for the
// probes that call single layers directly.
type probeSpec struct {
	name, path, schema string
	fields             [2]string // what the cold scan reads
	other              string    // a third column, read through the positional map
	cold               *request  // the query timed cold with and without harvesting
	jsonPath           string    // explore: the JSON file
	jsonFields         [2]string
}

// runTrace is the traced run of one workload: the sample untraced, then
// the same sample traced on a fresh instance, then the layer probes.
func runTrace(w *workload, e *env) (*tracer, error) {
	t := newTracer(w.name)
	tc, err := w.trace(e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	in, err := tc.start(nil)
	if err != nil {
		return nil, err
	}
	cl := newClient()
	for _, st := range tc.steps {
		if st.do != nil {
			if err := st.do(in); err != nil {
				return nil, err
			}
			continue
		}
		ok, rtt, _ := cl.do(in.url, st.rq)
		t.untraced = append(t.untraced, ms(rtt))
		t.attempted++
		if !ok {
			t.failed++
		}
	}
	cl.close()
	in.close()

	if in, err = tc.start(t.wrapHandler); err != nil {
		return nil, err
	}
	defer in.close()
	cl = newClient()
	defer cl.close()
	if err := t.sample(in, cl, tc.steps); err != nil {
		return nil, err
	}
	if err := t.probes(in, e, tc); err != nil {
		return nil, err
	}
	for _, name := range perLayerMetrics {
		if _, ok := t.metrics[name]; !ok {
			return nil, fmt.Errorf("%s: per-layer metric %s was not measured", w.name, name)
		}
	}
	return t, nil
}

// sample runs the steps traced: each request over HTTP under the request
// tree, then through the layers by hand, then its answer through
// AppendJSON. Counter deltas are taken around the real requests only.
func (t *tracer) sample(in *instance, cl *client, steps []step) error {
	sh := newShadow(t, in)
	var overhead []float64
	var jsonNS, jsonRows float64
	var svc struct{ hits, misses, pHits, pMisses, shed, waitMS int64 }
	var eng struct{ raw, cHits, cMisses, evictions int64 }
	planMiss, executed := 0, 0
	for i, st := range steps {
		if st.do != nil {
			if err := st.do(in); err != nil {
				return err
			}
			continue
		}
		req := i + 1
		sb, eb := in.svc.StatsSnapshot(), in.eng.Stats()
		_, rtt, prof, body := t.realRequest(in, cl, req, st.rq)
		sa, ea := in.svc.StatsSnapshot(), in.eng.Stats()
		svc.hits += sa.ResultHits - sb.ResultHits
		svc.misses += sa.ResultMisses - sb.ResultMisses
		svc.pHits += sa.PreparedHits - sb.PreparedHits
		svc.pMisses += sa.PreparedMisses - sb.PreparedMisses
		svc.shed += sa.Rejected - sb.Rejected
		svc.waitMS += sa.QueueWaitTotalMS - sb.QueueWaitTotalMS
		eng.raw += ea.QueriesTouchedRaw - eb.QueriesTouchedRaw
		eng.cHits += ea.Cache.Hits - eb.Cache.Hits
		eng.cMisses += ea.Cache.Misses - eb.Cache.Misses
		eng.evictions += ea.Cache.Evictions - eb.Cache.Evictions
		t.traced = append(t.traced, ms(rtt))
		if prof.elapsedInBody > 0 {
			overhead = append(overhead, float64(rtt-prof.elapsedInBody))
		}
		decoded := decodeAnswer(body)

		rawSources := map[string]bool{}
		if prof.spans != nil {
			executed++
			prof.spans.Walk(func(n *coretrace.SpanNode) {
				switch {
				case n.Name == "scan" && n.Attrs["mode"] == "raw":
					if name, ok := n.Attrs["source"].(string); ok {
						rawSources[name] = true
					}
				case n.Name == "frontend" && n.Attrs["plan_cache"] == "miss":
					planMiss++
				}
			})
		}
		if err := sh.run(req, st.rq, rawSources); err != nil {
			return fmt.Errorf("layers of request %d (%s): %w", req, st.rq.text, err)
		}
		before := t.now()
		jsonRows += float64(sh.encode(req, decoded))
		jsonNS += float64(t.now() - before)
	}

	t.setMedian("serve.http_overhead_us", overhead, 1e3, "us")
	t.set("serve.json_us_per_row", jsonNS/1e3/max(jsonRows, 1), "us", int(jsonRows))
	t.set("serve.result_hit_ratio", ratio(svc.hits, svc.hits+svc.misses), "ratio", int(svc.hits+svc.misses))
	t.set("serve.prepared_hit_ratio", ratio(svc.pHits, svc.pHits+svc.pMisses), "ratio", int(svc.pHits+svc.pMisses))
	t.details["serve.shed"] = metric{Value: float64(svc.shed), Unit: "count"}
	t.details["serve.queue_wait_ms"] = metric{Value: float64(svc.waitMS), Unit: "ms"}
	// A request whose prepared statement was cached never reaches the plan
	// cache; it counts as a hit, having skipped the frontend just the same.
	t.set("core.plan_cache_hit_ratio", ratio(int64(executed-planMiss), int64(executed)), "ratio", executed)
	t.set("core.raw_touches", float64(eng.raw), "count", executed)
	t.set("cache.hit_ratio", ratio(eng.cHits, eng.cHits+eng.cMisses), "ratio", int(eng.cHits+eng.cMisses))
	t.set("cache.evictions", float64(eng.evictions), "count", 0)

	t.setMedian("front.parse_check_normalize_us", t.durations("mcl.Parse", "mcl.Check", "mcl.Normalize"), 1e3, "us")
	t.setMedian("plan.translate_optimize_us", t.durations("algebra.Translate", "optimizer.Optimize"), 1e3, "us")
	t.setMedian("core.prepare_hit_us", t.durations("core.PrepareCtx"), 1e3, "us")
	t.setMedian("jit.compile_us", t.durations("jit.CompileWith"), 1e3, "us")
	execs := t.durations("jit.exec")
	t.setMedian("jit.exec_ms", execs, 1e6, "ms")
	var execNS float64
	for _, d := range execs {
		execNS += d
	}
	t.set("jit.rows_per_s", float64(sh.rows.Load())/(execNS/1e9), "1/s", len(execs))
	if tr := t.durations("sqlfront.Translate"); len(tr) > 0 {
		q1, med, q3 := quartiles(tr)
		t.details["front.translate_us"] = metric{Value: med / 1e3, Unit: "us", N: len(tr), IQR: (q3 - q1) / 1e3}
	}
	return nil
}

// decodeAnswer decodes a response's result: the envelope's result
// document, or the lines of a stream as a list.
func decodeAnswer(body []byte) any {
	if raw, ok := resultOf(body); ok {
		v, _ := decodeJSON(raw)
		return v
	}
	var rows []any
	for _, l := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		if v, err := decodeJSON(l); err == nil {
			rows = append(rows, v)
		}
	}
	return rows
}

// timeIt is the median wall time of reps calls.
func timeIt(reps int, f func() error) (time.Duration, error) {
	var times []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		times = append(times, float64(time.Since(t0)))
	}
	return time.Duration(median(times)), nil
}

// probes call single layers directly, on the workload's own file and
// query.
func (t *tracer) probes(in *instance, e *env, tc *traceCase) error {
	p := tc.probe
	eng := in.eng.Internal()

	// core: a plan-cache miss is the whole frontend; a trailing space makes
	// the text new to the cache without changing the query.
	text := p.cold.text
	if p.cold.sql {
		comp, err := in.eng.TranslateSQL(text)
		if err != nil {
			return err
		}
		text = comp
	}
	var misses []float64
	for i := 1; i <= 12; i++ {
		fresh := text + strings.Repeat(" ", i)
		t0 := time.Now()
		if _, err := eng.PrepareCtx(context.Background(), fresh); err != nil {
			return err
		}
		misses = append(misses, float64(time.Since(t0)))
	}
	t.setMedian("core.prepare_miss_us", misses, 1e3, "us")

	// cache: what the engine holds per byte of raw file it was pointed at.
	st := in.eng.Stats()
	var rawBytes int64
	for _, name := range in.eng.Sources() {
		if d, ok := eng.Description(name); ok {
			if fi, err := os.Stat(d.Path); err == nil {
				rawBytes += fi.Size()
			}
		}
	}
	t.set("cache.bytes_per_raw_byte", float64(st.Cache.BytesUsed)/float64(max(rawBytes, 1)), "ratio", st.Cache.Entries)
	t.details["core.aux_bytes"] = metric{Value: float64(st.AuxiliaryBytes), Unit: "B"}

	// sched: an empty morsel costs one dispatch.
	const morsels = 512
	d, err := timeIt(9, func() error {
		return sched.Default().Run(context.Background(), morsels, func(int) error { return nil })
	})
	if err != nil {
		return err
	}
	t.set("sched.dispatch_us_per_morsel", float64(d)/1e3/morsels, "us", 9*morsels)

	// sched: the workload's query, warm, compiled for one worker and two.
	const reps = 8
	var exec [3]float64
	for _, workers := range []int{1, 2} {
		probe := newTracer("probe")
		sh := newShadow(probe, in)
		sh.workers = workers
		for i := 0; i < reps; i++ {
			if err := sh.run(i, p.cold, nil); err != nil {
				return err
			}
		}
		// The first run brought the shadow's own reader to its steady state.
		exec[workers] = median(probe.durations("jit.exec")[1:])
	}
	t.set("sched.speedup_w2", exec[1]/max(exec[2], 1), "ratio", reps-1)

	if err := t.probeHarvest(e, p); err != nil {
		return err
	}
	if p.jsonPath != "" {
		if err := t.probeJSON(p); err != nil {
			return err
		}
	}
	return t.probeCSV(e, p)
}

// probeHarvest times the workload's query cold on a fresh engine and on
// one with caching off; the difference is what harvesting into the cache
// adds to a first touch.
func (t *tracer) probeHarvest(e *env, p probeSpec) error {
	cold := func(opts ...vida.Option) (time.Duration, error) {
		eng := vida.New(opts...)
		defer eng.Close()
		if err := eng.RegisterCSV(p.name, p.path, p.schema, nil); err != nil {
			return 0, err
		}
		t0 := time.Now()
		var err error
		if p.cold.sql {
			_, err = eng.QuerySQL(p.cold.text, p.cold.args...)
		} else {
			_, err = eng.Query(p.cold.text, p.cold.args...)
		}
		return time.Since(t0), err
	}
	var diffs []float64
	for i := 0; i < 3; i++ {
		with, err := cold()
		if err != nil {
			return err
		}
		without, err := cold(vida.WithoutCaching())
		if err != nil {
			return err
		}
		diffs = append(diffs, float64(with-without))
	}
	t.setMedian("core.harvest_overhead_ms", diffs, 1e6, "ms")
	return nil
}

func noBatch(*vec.Batch) error { return nil }

func perSecondMB(bytes int64, d time.Duration) float64 {
	return float64(bytes) / 1e6 / max(d.Seconds(), 1e-9)
}

// probeCSV calls rawcsv, colenc and the cache's spill path directly on the
// workload's file.
func (t *tracer) probeCSV(e *env, p probeSpec) error {
	typ, err := sdg.ParseSchema(p.schema)
	if err != nil {
		return err
	}
	desc := sdg.DefaultDescription(p.name, sdg.FormatCSV, p.path, sdg.Bag(typ))

	// Open plus the first scan: tokenize every row, parse two columns,
	// build the positional map. The builders keep what core would harvest.
	fields := p.fields[:]
	builders := []*vec.ColBuilder{vec.NewColBuilder(0), vec.NewColBuilder(0)}
	n := 0
	t0 := time.Now()
	r, err := rawcsv.Open(desc)
	if err != nil {
		return err
	}
	if err := r.IterateBatches(fields, vec.DefaultBatchSize, func(b *vec.Batch) error {
		for c := range builders {
			builders[c].Append(&b.Cols[c], b)
		}
		n += b.Len()
		return nil
	}); err != nil {
		return err
	}
	size := r.SizeBytes()
	t.set("rawcsv.cold_mb_s", perSecondMB(size, time.Since(t0)), "MB/s", n)

	// A second pass for another column jumps through the positional map.
	t0 = time.Now()
	if err := r.IterateBatches([]string{p.other}, vec.DefaultBatchSize, noBatch); err != nil {
		return err
	}
	t.set("rawcsv.posmap_mb_s", perSecondMB(size, time.Since(t0)), "MB/s", n)

	scan, rows, ok := r.OpenRange(fields)
	if !ok {
		return fmt.Errorf("rawcsv: %s cannot serve ranges after a full scan", p.name)
	}
	d, err := timeIt(3, func() error { return scan(0, rows, vec.DefaultBatchSize, noBatch) })
	if err != nil {
		return err
	}
	t.set("rawcsv.range_mb_s", perSecondMB(size, d), "MB/s", rows)
	t.set("rawcsv.aux_bytes_per_row", float64(r.PosMap().MemoryBytes())/float64(max(rows, 1)), "B", rows)

	// colenc on the two harvested columns.
	cols := map[string]vec.Col{}
	var colBytes int64
	for c, f := range fields {
		col := builders[c].Finish()
		colBytes += cache.EstimateColBytes(&col)
		cols[f] = col
	}
	var tab *colenc.Table
	d, err = timeIt(3, func() (err error) { tab, err = colenc.EncodeColumns(cols, n); return })
	if err != nil {
		return err
	}
	t.set("colenc.encode_mb_s", perSecondMB(colBytes, d), "MB/s", n)
	t.set("colenc.ratio", float64(colBytes)/float64(max(tab.SizeBytes(), 1)), "ratio", tab.NumBlocks())
	d, err = timeIt(3, func() error {
		for _, c := range tab.Cols {
			var dst vec.Col
			for bi := range c.Blocks {
				if err := c.DecodeBlock(bi, &dst); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.set("colenc.decode_mb_s", perSecondMB(colBytes, d), "MB/s", tab.NumBlocks())

	// Spill the columns through one cache manager, rehydrate them into
	// another: ReadSpillFile plus Manager.Rehydrate, as a restart does.
	dir, err := e.sub("probe-spill")
	if err != nil {
		return err
	}
	spill := cache.NewWithConfig(cache.Config{SpillDir: dir})
	spill.SetSpillKey(p.name, r.Generation)
	if err := spill.PutColumnVectors(p.name, n, cols); err != nil {
		return err
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.vspill"))
	if len(files) == 0 {
		return fmt.Errorf("cache: no spill file written to %s", dir)
	}
	gen := r.Generation()
	d, err = timeIt(3, func() error {
		if blocks := cache.NewWithConfig(cache.Config{SpillDir: dir}).Rehydrate(p.name, gen); blocks == 0 {
			return fmt.Errorf("cache: nothing rehydrated from %s", dir)
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.set("cache.rehydrate_ms", ms(d), "ms", tab.NumBlocks())
	return nil
}

// probeJSON calls rawjson directly: a cold scan that builds the
// semi-index, then the same fields through it.
func (t *tracer) probeJSON(p probeSpec) error {
	desc := sdg.DefaultDescription("BrainRegions", sdg.FormatJSON, p.jsonPath, sdg.Bag(sdg.Unknown))
	t0 := time.Now()
	r, err := rawjson.Open(desc)
	if err != nil {
		return err
	}
	n := 0
	count := func(values.Value) error { n++; return nil }
	if err := r.Iterate(p.jsonFields[:], count); err != nil {
		return err
	}
	m := metric{Value: perSecondMB(r.SizeBytes(), time.Since(t0)), Unit: "MB/s", N: n}
	t.details["rawjson.cold_mb_s"] = m
	d, err := timeIt(3, func() error { return r.Iterate(p.jsonFields[:], count) })
	if err != nil {
		return err
	}
	t.details["rawjson.semiindex_mb_s"] = metric{Value: perSecondMB(r.SizeBytes(), d), Unit: "MB/s", N: n}
	return nil
}

// runTraceSuite is the traced run of every workload; it writes all their
// spans to bench/out/trace.json.
func runTraceSuite(e *env) error {
	var runs []*tracer
	failed := 0
	for i := range suite {
		t, err := runTrace(&suite[i], e)
		if err != nil {
			return err
		}
		t.print(os.Stdout)
		failed += t.failed
		runs = append(runs, t)
	}
	path := filepath.Join(benchDir(), "out", "trace.json")
	if err := writeTrace(path, runs...); err != nil {
		return err
	}
	fmt.Printf("\nspans: %s\n", path)
	if failed > 0 {
		return fmt.Errorf("%d traced requests got a wrong answer", failed)
	}
	return nil
}
