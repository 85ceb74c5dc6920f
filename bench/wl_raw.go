package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"vida"
	"vida/internal/serve"
)

// raw-cycle: many aliases over four wide CSVs, a cache budget that holds
// a quarter of what their scans harvest, one client. Pass 1 touches every
// alias once (no positional map yet); later passes revisit them in the
// same order, a cycle four times the size of the cache.

const (
	wideFiles   = 4
	warmAliases = 4  // touched in set-up only, one per file
	windowShare = 20 // each window selects 1/20 of the rows
	passFirst   = 0  // sample classes
	passRevisit = 1
)

type rawData struct {
	files   []*events
	prefix  [wideFiles][4][]float64 // running sums of each file's float columns
	aliases []rawAlias
	warm    []rawAlias
	budget  int64
	sys
}

// traceRawCycle samples half the aliases, twice the cache budget: each
// touched for the first time, then revisited once in the same order.
func traceRawCycle(e *env) (*traceCase, error) {
	d, err := genRaw(e)
	if err != nil {
		return nil, err
	}
	// The budget is a quarter of what all aliases harvest; halve it with
	// the sample so the sampled cycle too is four times the cache.
	d.budget /= 2
	r := rand.New(rand.NewSource(e.seed + 201))
	sampled := d.aliases[:len(d.aliases)/2]
	var reqs []*request
	for pass := 0; pass < 2; pass++ {
		for _, a := range sampled {
			reqs = append(reqs, d.request(a, r))
		}
	}
	a := sampled[0]
	return &traceCase{
		start: func(w wrapper) (*instance, error) { d.wrap = w; return d.setup() },
		steps: requestSteps(reqs),
		probe: probeSpec{name: a.name, path: d.files[a.file].path, schema: eventsSchema,
			fields: [2]string{"ts", "f1"}, other: "f3", cold: reqs[0]},
	}, nil
}

// rawAlias is one registered name: a file and the float column its query
// averages.
type rawAlias struct {
	name      string
	file, col int
}

func aliasSQL(name string, col int) string {
	return fmt.Sprintf("SELECT AVG(t.f%d) FROM %s t WHERE t.ts >= ? AND t.ts <= ?", col+1, name)
}

func genRaw(e *env) (*rawData, error) {
	d := &rawData{sys: e.sys}
	for i := 0; i < wideFiles; i++ {
		ev, err := genEvents(filepath.Join(e.dir, fmt.Sprintf("wide%d.csv", i)), e.sz.wideRows, e.seed+int64(i))
		if err != nil {
			return nil, err
		}
		d.files = append(d.files, ev)
		for c, col := range ev.f {
			sums := make([]float64, len(col)+1)
			for j, v := range col {
				sums[j+1] = sums[j] + v
			}
			d.prefix[i][c] = sums
		}
	}
	for i := 0; i < e.sz.wideAliases; i++ {
		d.aliases = append(d.aliases, rawAlias{fmt.Sprintf("T%03d", i), i % wideFiles, (i / wideFiles) % 4})
	}
	for i := 0; i < warmAliases; i++ {
		d.warm = append(d.warm, rawAlias{fmt.Sprintf("W%d", i), i % wideFiles, i % 4})
	}
	// Each scan harvests two 8-byte columns (ts and one float).
	perAlias := int64(e.sz.wideRows) * 16
	d.budget = perAlias * int64(e.sz.wideAliases) / 4
	return d, nil
}

// request asks for the average of the alias's column over a window of ts
// that no earlier request used (so the result LRU cannot answer it); ts
// rises with the row number, so running sums give the expected answer.
func (d *rawData) request(a rawAlias, r *rand.Rand) *request {
	ts, n := d.files[a.file].ts, len(d.files[a.file].ts)
	lo := r.Intn(n - n/windowShare)
	hi := lo + n/windowShare - 1
	sums := d.prefix[a.file][a.col]
	return sqlRequest(aliasSQL(a.name, a.col), scalarWant((sums[hi+1]-sums[lo])/float64(hi-lo+1)), ts[lo], ts[hi])
}

func (d *rawData) setup() (*instance, error) {
	eng := d.engine(vida.WithCacheBudget(d.budget))
	for _, group := range [][]rawAlias{d.aliases, d.warm} {
		for _, a := range group {
			if err := eng.RegisterCSV(a.name, d.files[a.file].path, eventsSchema, nil); err != nil {
				return nil, err
			}
		}
	}
	in, err := d.serve(eng, serve.Config{})
	if err != nil {
		return nil, err
	}
	// The warm-up touches aliases the measured passes never use: it brings
	// the files into the page cache and the runtime to size, and leaves
	// every measured alias untouched.
	r := rand.New(rand.NewSource(1))
	var reqs []*request
	for _, a := range d.warm {
		reqs = append(reqs, d.request(a, r))
	}
	if err := warm(in, 1, reqs...); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

func runRawCycle(e *env, res *result) error {
	t0 := time.Now()
	d, err := genRaw(e)
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

	r := rand.New(rand.NewSource(e.seed + 201))
	order := r.Perm(len(d.aliases))
	cl := newClient()
	defer cl.close()
	start := time.Now()
	one := func(class int, a rawAlias) sample {
		ok, lat, _ := cl.do(in.url, d.request(a, r))
		return sample{class: class, ok: ok, end: time.Since(start), lat: lat}
	}
	var first, revisit []sample
	for _, i := range order {
		first = append(first, one(passFirst, d.aliases[i]))
	}
	firstEnd := time.Since(start)
	before := in.eng.Stats()
	// At least one whole revisit cycle, then whole requests until the
	// window closes.
	for cycle := 0; cycle == 0 || time.Since(start) < e.window(); cycle++ {
		for _, i := range order {
			if cycle > 0 && time.Since(start) >= e.window() {
				break
			}
			revisit = append(revisit, one(passRevisit, d.aliases[i]))
		}
	}
	after := in.eng.Stats()

	res.Attempted = len(first) + len(revisit)
	res.Failed = countFailed(first) + countFailed(revisit)
	res.Details["first_touch_p50_ms"] = overall(slicedByCount(first, 0, "ms", latencyAt(0.5)), first, 0.5)
	res.Details["revisit_p50_ms"] = overall(slicedByCount(revisit, firstEnd, "ms", latencyAt(0.5)), revisit, 0.5)
	res.Metrics["lat_p50_ms"] = res.Details["revisit_p50_ms"]
	res.Metrics["qps"] = slicedByCount(revisit, firstEnd, "1/s", throughput)
	p := tailPercentile(len(revisit), 0.90)
	res.Details["lat_tail_ms"] = overall(slicedByCount(revisit, firstEnd, "ms", latencyAt(p)), revisit, p)
	res.Details["lat_tail_pct"] = metric{Value: p * 100, Unit: "%", N: len(revisit)}

	// Once a positional map exists the engine scans raw row ranges in
	// parallel and does not promote them, so the cache keeps whichever
	// quarter of the aliases pass 1 touched last and every other revisit
	// goes back to the raw file.
	raw := after.QueriesTouchedRaw - before.QueriesTouchedRaw
	res.Details["core.raw_touch_share"] = metric{Value: ratio(raw, int64(len(revisit))), Unit: "ratio", N: len(revisit)}
	res.Details["cache.evictions"] = metric{Value: float64(after.Cache.Evictions), Unit: "count"}
	res.Checks["revisits_mostly_raw"] = ratio(raw, int64(len(revisit))) > 0.6
	first, revisit = nil, nil
	return finish(res, in, setupS, heapBase, t0, datagen)
}
