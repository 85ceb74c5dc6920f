package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"vida"
)

// encoded-restart: the People file and the filter-agg and group-by
// templates of warm-analytics, but with a hot tier of one byte and a cache
// directory, so columns live as colenc blocks that scans decode on demand
// and a restarted engine rehydrates them from its own spill files. Phase A
// restarts the engine twenty times on the populated directory; phase B is
// a steady two-client window.

const restarts = 20

type restartData struct {
	people   *people
	mix      *mix
	cacheDir string
	sys
}

// traceEncodedRestart samples two turns of the mix on a restarted engine,
// so every scan decodes rehydrated blocks.
func traceEncodedRestart(e *env) (*traceCase, error) {
	d, err := genRestart(e)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(e.seed))
	var reqs []*request
	for i := 0; i < 2*len(d.mix.cycle); i++ {
		reqs = append(reqs, d.mix.next(r, i))
	}
	return &traceCase{
		start: func(w wrapper) (*instance, error) {
			d.wrap = nil
			in, err := d.setup() // populates the cache directory
			if err != nil {
				return nil, err
			}
			in.close()
			d.wrap = w
			return d.start()
		},
		steps: requestSteps(reqs),
		probe: peopleProbe(d.people, d.mix.templates[0].pool[0]),
	}, nil
}

func genRestart(e *env) (*restartData, error) {
	p, err := genPeople(e.dir, e.sz.bigRows, e.seed)
	if err != nil {
		return nil, err
	}
	dir, err := e.sub("cache")
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(e.seed + 100))
	m := newMix(
		template{name: "filter-agg", weight: 24, pool: filterAggPool(p, r)},
		template{name: "group-by", weight: 2, pool: groupByPool(p, r)},
	)
	return &restartData{people: p, mix: m, cacheDir: dir, sys: e.sys}, nil
}

// start brings an engine up over the cache directory as it stands.
func (d *restartData) start() (*instance, error) {
	eng := d.engine(vida.WithCacheHotBytes(1), vida.WithCacheDir(d.cacheDir))
	if err := eng.RegisterCSV("People", d.people.path, peopleSchema, nil); err != nil {
		return nil, err
	}
	return d.serve(eng, noResultCache)
}

// setup starts from an empty cache directory, so every timed set-up pays
// the cold scans, the encoding and the spill.
func (d *restartData) setup() (*instance, error) {
	if err := emptyDir(d.cacheDir); err != nil {
		return nil, err
	}
	in, err := d.start()
	if err != nil {
		return nil, err
	}
	if err := warm(in, 2, d.mix.firstOfEach()...); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

func runEncodedRestart(e *env, res *result) error {
	t0 := time.Now()
	d, err := genRestart(e)
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

	// Phase A: Close -> New -> register -> first answer, on the populated
	// directory.
	start := time.Now()
	var firstAnswer []float64
	rehydrated, noRaw := true, true
	pool := d.mix.templates[0].pool
	for i := 0; i < restarts; i++ {
		in.close()
		t := time.Now()
		if in, err = d.start(); err != nil {
			return err
		}
		cl := newClient()
		ok, _, body := cl.do(in.url, pool[i%len(pool)])
		firstAnswer = append(firstAnswer, ms(time.Since(t)))
		cl.close()
		res.Attempted++
		if !ok {
			res.Failed++
			return fmt.Errorf("first answer after restart %d: wrong answer %.200s", i, body)
		}
		st := in.eng.Stats()
		rehydrated = rehydrated && st.Cache.RehydratedBlocks > 0
		noRaw = noRaw && st.QueriesTouchedRaw == 0
	}
	q1, med, q3 := quartiles(firstAnswer)
	res.Details["restart_first_answer_ms"] = metric{Value: med, Unit: "ms", N: restarts, IQR: q3 - q1}
	res.Checks["restart_rehydrates_blocks"] = rehydrated
	res.Checks["restart_first_answer_without_raw_scan"] = noRaw

	// Phase B: the rest of the window, decoding blocks on demand.
	span := e.window() - time.Since(start)
	before := in.eng.Stats()
	samples := closedLoop(in.url, res.Clients, span, e.seed, d.mix.next)
	after := in.eng.Stats()
	steadyMetrics(res, samples, span, 0.95)
	classDetails(res, samples, span, d.mix.classNames())
	samples = nil
	res.Details["colenc.decoded_blocks"] = metric{Value: float64(after.Cache.DecodedBlocks - before.Cache.DecodedBlocks), Unit: "count"}
	res.Details["core.raw_touches"] = metric{Value: float64(after.QueriesTouchedRaw - before.QueriesTouchedRaw), Unit: "count"}
	res.Checks["steady_window_decodes_blocks"] = after.Cache.DecodedBlocks > before.Cache.DecodedBlocks
	return finish(res, in, setupS, heapBase, t0, datagen)
}
