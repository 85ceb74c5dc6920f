package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// refresh-append: one client reads a filter-agg and a group-by over the
// Events CSV while a second, twice a second, appends 1% more rows, calls
// Engine.Refresh() and asks for COUNT(*). Both templates filter on k2, not
// on ts, so every answer changes with every append and a stale cache
// cannot pass.
//
// Twice a second gives a ten-second window some twenty samples of
// fresh_after_append_ms. One reader, not two: with the appender's probe
// that is as many requests in flight as the machine has processors, and
// two readers racing to harvest the grown file again left the engine
// holding 84 MB or 101 MB at random (README.md, findings).

const (
	appendPeriod = 500 * time.Millisecond
	firstAppend  = 250 * time.Millisecond

	sqlAppendFilter = `SELECT SUM(e.f1) FROM Events e WHERE e.k2 < ?`
	sqlAppendGroup  = `SELECT e.s1, COUNT(*) AS n, SUM(e.f2) AS s FROM Events e WHERE e.k2 < ? GROUP BY e.s1`
	sqlAppendCount  = `SELECT COUNT(*) FROM Events e`
)

// versioned is one request text with its expected answer after each
// append: wants[g] holds once g appends are in the file.
type versioned struct {
	text  string
	args  []any
	class int
	wants []*want
}

type appendData struct {
	ev     *events
	base   []byte   // CSV text of the file before any append
	chunks [][]byte // CSV text of each append
	reqs   [][]versioned
	count  versioned

	// started counts appends whose write has begun, done those whose
	// Refresh has returned. A read sent at done=a and answered at
	// started=b may see any generation from a to b.
	started, done atomic.Int64
	sys
}

// traceRefreshAppend samples two turns of the mix on warm caches, one
// append with its Refresh, then the same two turns again: the first of
// them pays the cold scan of the grown file.
func traceRefreshAppend(e *env) (*traceCase, error) {
	d, err := genAppend(e)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(e.seed))
	var steps []step
	turn := func(gen int) {
		for i := 0; i < 26; i++ {
			v := d.pick(r, i)
			rq := sqlRequest(v.text, v.wants[gen], v.args...)
			rq.class = v.class
			steps = append(steps, step{rq: rq})
		}
	}
	turn(0)
	steps = append(steps, step{do: func(in *instance) error {
		cl := newClient()
		defer cl.close()
		_, visible, err := d.appendOnce(in, cl)
		if err == nil && !visible {
			err = fmt.Errorf("append: the new rows are not visible after Refresh")
		}
		return err
	}})
	turn(1)
	return &traceCase{
		start: func(w wrapper) (*instance, error) { d.wrap = w; return d.setup() },
		steps: steps,
		probe: probeSpec{name: "Events", path: d.ev.path, schema: eventsSchema,
			fields: [2]string{"k2", "f1"}, other: "f2", cold: steps[0].rq},
	}, nil
}

func groupIndex(s1 string) int { return int(s1[1]-'0')*10 + int(s1[2]-'0') }

func genAppend(e *env) (*appendData, error) {
	gens := int(e.window()/appendPeriod) + 2
	d := &appendData{sys: e.sys, ev: &events{path: filepath.Join(e.dir, "events.csv"), r: rand.New(rand.NewSource(e.seed))}}
	d.base = d.ev.appendRows([]byte(eventsHeader), e.sz.bigRows)
	for g := 0; g < gens; g++ {
		d.chunks = append(d.chunks, d.ev.appendRows(nil, e.sz.appendRows))
	}
	rows := func(g int) int { return e.sz.bigRows + g*e.sz.appendRows }

	r := rand.New(rand.NewSource(e.seed + 300))
	d.reqs = make([][]versioned, 2)
	ev := d.ev
	for i := 0; i < poolSize; i++ {
		bound := stratum(r, i, 100, 900)
		filter := versioned{class: 0, text: sqlAppendFilter, args: []any{bound}}
		group := versioned{class: 1, text: sqlAppendGroup, args: []any{bound}}
		var sum float64
		var n [numGroups]int
		var gsum [numGroups]float64
		row := 0
		for g := 0; g <= gens; g++ {
			// Fold only the rows generation g added.
			for ; row < rows(g); row++ {
				if ev.k2[row] < bound {
					sum += ev.f[0][row]
					k := groupIndex(ev.s1[row])
					n[k]++
					gsum[k] += ev.f[1][row]
				}
			}
			filter.wants = append(filter.wants, scalarWant(sum))
			var out []any
			for k := range n {
				if n[k] > 0 {
					out = append(out, map[string]any{"s1": eventGroups[k], "n": float64(n[k]), "s": gsum[k]})
				}
			}
			group.wants = append(group.wants, &want{val: out})
		}
		d.reqs[0] = append(d.reqs[0], filter)
		d.reqs[1] = append(d.reqs[1], group)
	}
	d.count = versioned{text: sqlAppendCount}
	for g := 0; g <= gens; g++ {
		d.count.wants = append(d.count.wants, scalarWant(float64(rows(g))))
	}
	return d, nil
}

// read builds a request for v that accepts the answer of any generation
// the read can have overlapped.
func (d *appendData) read(v *versioned) *request {
	sent := d.done.Load()
	rq := sqlRequest(v.text, nil, v.args...)
	rq.class = v.class
	rq.verify = func(body []byte) bool {
		raw, ok := resultOf(body)
		if !ok {
			return false
		}
		for g := sent; g <= d.started.Load(); g++ {
			if v.wants[g].check(raw) {
				return true
			}
		}
		return false
	}
	return rq
}

func (d *appendData) next(r *rand.Rand, i int) *request {
	return d.read(d.pick(r, i))
}

// pick is filter-agg twelve times to one group-by, the ratio of
// warm-analytics.
func (d *appendData) pick(r *rand.Rand, i int) *versioned {
	pool := d.reqs[0]
	if i%13 == 6 {
		pool = d.reqs[1]
	}
	return &pool[r.Intn(len(pool))]
}

func (d *appendData) setup() (*instance, error) {
	if err := writeFile(d.ev.path, d.base); err != nil {
		return nil, err
	}
	d.started.Store(0)
	d.done.Store(0)
	eng := d.engine()
	if err := eng.RegisterCSV("Events", d.ev.path, eventsSchema, nil); err != nil {
		return nil, err
	}
	in, err := d.serve(eng, noResultCache)
	if err != nil {
		return nil, err
	}
	if err := warm(in, 2, d.read(&d.reqs[0][0]), d.read(&d.reqs[1][0]), d.read(&d.count)); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// appendOnce grows the file by one chunk, refreshes the engine and waits
// for the first answer whose COUNT(*) includes the new rows.
func (d *appendData) appendOnce(in *instance, cl *client) (fresh time.Duration, visible bool, err error) {
	t := time.Now()
	g := d.started.Add(1)
	if err := appendFile(d.ev.path, d.chunks[g-1]); err != nil {
		return 0, false, err
	}
	if err := in.eng.Refresh(); err != nil {
		return 0, false, err
	}
	d.done.Store(g)
	probe := sqlRequest(d.count.text, d.count.wants[g])
	visible, _, _ = cl.do(in.url, probe)
	return time.Since(t), visible, nil
}

func runRefreshAppend(e *env, res *result) error {
	t0 := time.Now()
	d, err := genAppend(e)
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

	var fresh []float64
	visible := true
	var appendErr error
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := newClient()
		defer cl.close()
		timer := time.NewTimer(firstAppend)
		defer timer.Stop()
		for {
			select {
			case <-stop:
				return
			case <-timer.C:
			}
			if int(d.started.Load()) == len(d.chunks) {
				return
			}
			began := time.Now()
			took, ok, err := d.appendOnce(in, cl)
			if err != nil {
				appendErr = err
				return
			}
			fresh = append(fresh, ms(took))
			visible = visible && ok
			timer.Reset(appendPeriod - time.Since(began))
		}
	}()
	samples := closedLoop(in.url, res.Clients, e.window(), e.seed, d.next)
	close(stop)
	wg.Wait()
	if appendErr != nil {
		return fmt.Errorf("append: %w", appendErr)
	}

	steadyMetrics(res, samples, e.window(), 0.90)
	classDetails(res, samples, e.window(), []string{"filter-agg", "group-by"})
	samples = nil
	res.Attempted += len(fresh)
	if !visible {
		res.Failed++
	}
	q1, med, q3 := quartiles(fresh)
	res.Details["fresh_after_append_ms"] = metric{Value: med, Unit: "ms", N: len(fresh), IQR: q3 - q1}
	res.Details["appends"] = metric{Value: float64(len(fresh)), Unit: "count"}
	res.Checks["append_count_visible_after_refresh"] = visible && len(fresh) > 0
	// One more append with no reader in flight, then both templates: the
	// heap is read in the same state every time, one generation of the
	// file with every column the templates read in the cache.
	if int(d.started.Load()) < len(d.chunks) {
		cl := newClient()
		_, _, err := d.appendOnce(in, cl)
		cl.close()
		if err != nil {
			return err
		}
	}
	return finish(res, in, setupS, heapBase, t0, datagen, d.read(&d.reqs[1][0]), d.read(&d.reqs[0][0]))
}
