package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"vida/internal/serve"
)

// point-serve: a 600-row table, so a request's engine time is a few
// microseconds and the HTTP path, admission, the LRUs, JSON and the query
// frontends are what is measured. Of ten requests, 4.5 reuse one of eight
// parameterised texts with Zipf-drawn arguments (prepared and result LRUs
// at their defaults), 4.5 carry a never-seen text with an inlined literal
// (the whole frontend and jit.Compile run every time) and one streams the
// table over /stream.

const (
	classParam = iota
	classFresh
	classStream
)

var pointClassNames = []string{"param", "fresh-text", "stream"}

const zipfArgs = 64 // argument domain per parameterised text

type pointData struct {
	p      *patients
	param  [][]*request // per text, per argument rank
	stream *request
	seq    atomic.Int64 // numbers the fresh texts, shared by the clients
	sys
}

// tracePointServe samples 200 requests drawn as a client draws them.
func tracePointServe(e *env) (*traceCase, error) {
	d, err := genPoint(e)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(e.seed))
	var reqs []*request
	for i := 0; i < 200; i++ {
		reqs = append(reqs, d.next(r, i))
	}
	return &traceCase{
		start: func(w wrapper) (*instance, error) { d.wrap = w; return d.setup() },
		steps: requestSteps(reqs),
		probe: probeSpec{name: "Patients", path: d.p.path, schema: patientsSchema,
			fields: [2]string{"age", "bmi"}, other: "visits", cold: d.param[1][0]},
	}, nil
}

// fold visits the patients that satisfy keep.
func (p *patients) fold(keep func(i int) bool, visit func(i int)) {
	for i := range p.id {
		if keep(i) {
			visit(i)
		}
	}
}

func (p *patients) count(keep func(i int) bool) float64 {
	n := 0
	p.fold(keep, func(int) { n++ })
	return float64(n)
}

// avgBMI also reports whether anyone matched; callers pick constants that
// keep the set non-empty, so no request asks for the average of nothing.
func (p *patients) avgBMI(keep func(i int) bool) (float64, bool) {
	var sum float64
	n := 0
	p.fold(keep, func(i int) { sum += p.bmi[i]; n++ })
	return sum / float64(n), n > 0
}

func (p *patients) cityCounts(keep func(i int) bool) []any {
	counts := map[string]int{}
	p.fold(keep, func(i int) { counts[p.city[i]]++ })
	var rows []any
	for _, c := range patientCities {
		if counts[c] > 0 {
			rows = append(rows, map[string]any{"city": c, "n": float64(counts[c])})
		}
	}
	return rows
}

func genPoint(e *env) (*pointData, error) {
	p, err := genPatients(e.dir, e.sz.smallRows, e.seed)
	if err != nil {
		return nil, err
	}
	d := &pointData{p: p, sys: e.sys}
	sql := sqlRequest // its class, 0, is classParam
	d.param = make([][]*request, 8)
	for k := 0; k < zipfArgs; k++ {
		age := int64(18 + k) // ages run to 97, so "older than" is never empty
		city := patientCities[k%len(patientCities)]
		gender := []string{"m", "f"}[k%2]
		visits := int64(k % 40)
		older := func(i int) bool { return p.age[i] > age }
		d.param[0] = append(d.param[0], sql(`SELECT COUNT(*) FROM Patients p WHERE p.age > ?`,
			scalarWant(p.count(older)), age))
		avg, _ := p.avgBMI(older)
		d.param[1] = append(d.param[1], sql(`SELECT AVG(p.bmi) FROM Patients p WHERE p.age > ?`, scalarWant(avg), age))
		var maxVisits int64
		p.fold(func(i int) bool { return p.age[i] < age+5 }, func(i int) { maxVisits = max(maxVisits, p.visits[i]) })
		d.param[2] = append(d.param[2], sql(`SELECT MAX(p.visits) FROM Patients p WHERE p.age < ?`,
			scalarWant(float64(maxVisits)), age+5))
		d.param[3] = append(d.param[3], sql(`SELECT COUNT(*) FROM Patients p WHERE p.city = ?`,
			scalarWant(p.count(func(i int) bool { return p.city[i] == city })), city))
		// Lower the age bound until the city has someone older.
		cityAge := age
		inCity := func(i int) bool { return p.city[i] == city && p.age[i] > cityAge }
		avg, found := p.avgBMI(inCity)
		for !found {
			cityAge--
			avg, found = p.avgBMI(inCity)
		}
		d.param[4] = append(d.param[4], sql(`SELECT AVG(p.bmi) FROM Patients p WHERE p.city = ? AND p.age > ?`,
			scalarWant(avg), city, cityAge))
		var rows []any
		p.fold(func(i int) bool { return p.visits[i] == visits }, func(i int) {
			if len(rows) < 5 {
				rows = append(rows, map[string]any{"id": float64(p.id[i]), "age": float64(p.age[i])})
			}
		})
		d.param[5] = append(d.param[5], sql(`SELECT p.id, p.age FROM Patients p WHERE p.visits = ? ORDER BY p.id LIMIT 5`,
			&want{val: rows, ordered: true}, visits))
		d.param[6] = append(d.param[6], sql(`SELECT p.city, COUNT(*) AS n FROM Patients p WHERE p.age > ? GROUP BY p.city`,
			&want{val: p.cityCounts(older)}, age))
		d.param[7] = append(d.param[7], sql(`SELECT COUNT(*) FROM Patients p WHERE p.gender = ? AND p.age > ?`,
			scalarWant(p.count(func(i int) bool { return p.gender[i] == gender && p.age[i] > age })), gender, age))
	}
	d.stream = d.streamRequest()
	return d, nil
}

// fresh builds a request whose text no earlier request had: the literal
// walks a 20-million-step cycle, so the plan cache, the prepared LRU and
// the result LRU all miss.
func (d *pointData) fresh() *request {
	seq := d.seq.Add(1)
	x := 16 + float64(seq*7919%20_000_000)/1e6
	lit := strconv.FormatFloat(x, 'f', 6, 64)
	p := d.p
	var rq *request
	switch seq % 3 {
	case 0:
		rq = sqlRequest(`SELECT COUNT(*) FROM Patients p WHERE p.bmi > `+lit,
			scalarWant(p.count(func(i int) bool { return p.bmi[i] > x })))
	case 1:
		age := 30 + seq%40
		rq = sqlRequest(fmt.Sprintf(`SELECT COUNT(*) FROM Patients p WHERE p.age > %d AND p.bmi <= %s`, age, lit),
			scalarWant(p.count(func(i int) bool { return p.age[i] > age && p.bmi[i] <= x })))
	default:
		rq = sqlRequest(`SELECT p.city, COUNT(*) AS n FROM Patients p WHERE p.bmi > `+lit+` GROUP BY p.city`,
			&want{val: p.cityCounts(func(i int) bool { return p.bmi[i] > x })})
	}
	rq.class = classFresh
	return rq
}

// streamRequest asks /stream for the whole table. The first answer is
// decoded line by line and compared as a bag; after that an
// order-independent hash of the accepted lines stands in for it.
func (d *pointData) streamRequest() *request {
	p := d.p
	rows := make([]any, len(p.id))
	for i := range p.id {
		rows[i] = map[string]any{"id": float64(p.id[i]), "age": float64(p.age[i]), "city": p.city[i], "bmi": p.bmi[i]}
	}
	trailer := []byte(fmt.Sprintf(`{"done":true,"rows":%d}`, len(rows)))
	var accepted atomic.Uint64
	const text = `SELECT p.id, p.age, p.city, p.bmi FROM Patients p`
	body := []byte(`{"query":"` + text + `","sql":true}`)
	return &request{path: "/stream", class: classStream, body: body, text: text, sql: true, verify: func(body []byte) bool {
		lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
		if len(lines) != len(rows)+1 || !bytes.Equal(lines[len(rows)], trailer) {
			return false
		}
		lines = lines[:len(rows)]
		var sum uint64
		for _, l := range lines {
			sum += fnv64(l)
		}
		if sum == accepted.Load() {
			return true
		}
		got := make([]any, len(lines))
		for i, l := range lines {
			v, err := decodeJSON(l)
			if err != nil {
				return false
			}
			got[i] = v
		}
		if !sameValue(got, rows, false) {
			return false
		}
		accepted.Store(sum)
		return true
	}}
}

// fnv64 is FNV-1a, inlined so hashing a line allocates nothing.
func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

func (d *pointData) next(r *rand.Rand, _ int) *request {
	// Zipf ranks are drawn per call; rand.Zipf holds the generator it was
	// built on, and each client has its own.
	switch k := r.Intn(20); {
	case k < 2:
		return d.stream
	case k < 11:
		return d.fresh()
	default:
		rank := int(rand.NewZipf(r, 1.3, 1, zipfArgs-1).Uint64())
		return d.param[r.Intn(len(d.param))][rank]
	}
}

func (d *pointData) setup() (*instance, error) {
	eng := d.engine()
	if err := eng.RegisterCSV("Patients", d.p.path, patientsSchema, nil); err != nil {
		return nil, err
	}
	in, err := d.serve(eng, serve.Config{})
	if err != nil {
		return nil, err
	}
	// The warm-up fills the prepared LRU and the popular half of the result
	// LRU, and runs each fresh-text shape and the stream a few times.
	var reqs []*request
	for _, texts := range d.param {
		reqs = append(reqs, texts[:zipfArgs/2]...)
	}
	for i := 0; i < 48; i++ {
		reqs = append(reqs, d.fresh())
	}
	for i := 0; i < 8; i++ {
		reqs = append(reqs, d.stream)
	}
	if err := warm(in, 1, reqs...); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func runPointServe(e *env, res *result) error {
	t0 := time.Now()
	d, err := genPoint(e)
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
	before := in.svc.StatsSnapshot()
	samples := closedLoop(in.url, res.Clients, e.window(), e.seed, d.next)
	after := in.svc.StatsSnapshot()
	steadyMetrics(res, samples, e.window(), 0.99)
	classDetails(res, samples, e.window(), pointClassNames)
	res.Details["fresh_text_p50_ms"] = res.Details["tpl.fresh-text.p50_ms"]
	n := int64(len(samples))
	samples = nil

	hits, misses := after.ResultHits-before.ResultHits, after.ResultMisses-before.ResultMisses
	pHits, pMisses := after.PreparedHits-before.PreparedHits, after.PreparedMisses-before.PreparedMisses
	res.Details["serve.result_hit_ratio"] = metric{Value: ratio(hits, hits+misses), Unit: "ratio", N: int(hits + misses)}
	res.Details["serve.prepared_hit_ratio"] = metric{Value: ratio(pHits, pHits+pMisses), Unit: "ratio", N: int(pHits + pMisses)}
	res.Details["serve.shed"] = metric{Value: float64(after.Rejected - before.Rejected), Unit: "count"}
	// Every fresh text, and nothing else, runs the frontend.
	missShare := ratio(pMisses, n)
	res.Details["core.plan_miss_share"] = metric{Value: missShare, Unit: "ratio", N: int(n)}
	res.Checks["about_half_plan_cache_misses"] = missShare > 0.35 && missShare < 0.55
	return finish(res, in, setupS, heapBase, t0, datagen)
}
