// Benchmarks regenerating the paper's tables and figures (see DESIGN.md's
// experiment index and EXPERIMENTS.md for recorded outcomes). Each
// benchmark wraps the corresponding experiments.RunXxx at a small scale so
// `go test -bench=. -benchmem` finishes in minutes; cmd/vidabench runs the
// same experiments at arbitrary scale with the paper-style tables.
package vida_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"vida"
	"vida/internal/cache"
	"vida/internal/experiments"
	"vida/internal/sched"
	"vida/internal/serve"
	"vida/internal/trace"
	"vida/internal/values"
	"vida/internal/vec"
	"vida/internal/workload"
)

// benchScale keeps benchmark iterations cheap while preserving the
// workload shapes.
func benchScale() workload.Scale {
	return workload.Scale{
		PatientsRows:   600,
		PatientsCols:   60,
		GeneticsRows:   700,
		GeneticsCols:   80,
		RegionsObjects: 250,
	}
}

// BenchmarkTable2_Generate regenerates the three datasets (Table 2).
func BenchmarkTable2_Generate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		if _, err := experiments.RunTable2(dir, benchScale(), 42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5_ViDa runs the full workload on ViDa only (the headline
// bar of Figure 5: no preparation, queries immediately).
func BenchmarkFig5_ViDa(b *testing.B) {
	dir := b.TempDir()
	sc := benchScale()
	paths, err := workload.GenerateAll(dir, sc, 42)
	if err != nil {
		b.Fatal(err)
	}
	w := workload.Generate(150, sc, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := vida.New()
		must(b, eng.RegisterCSV("Patients", paths.Patients, workload.PatientsSchema(sc), nil))
		must(b, eng.RegisterCSV("Genetics", paths.Genetics, workload.GeneticsSchema(sc), nil))
		must(b, eng.RegisterJSON("BrainRegions", paths.Regions, ""))
		for _, q := range w.Queries {
			if _, err := eng.Query(q.Comprehension()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig5_AllSystems runs the complete five-system comparison once
// per iteration, verifying cross-system answer agreement.
func BenchmarkFig5_AllSystems(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		res, err := experiments.RunFig5(dir, benchScale(), 60, 42)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.VerifyAnswersAgree(res); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Speedup(), "speedup_x")
		b.ReportMetric(res.CacheHitRate()*100, "cachehit_%")
	}
}

// BenchmarkFig4_Layouts measures the four JSON-carrying layouts.
func BenchmarkFig4_Layouts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		rows, err := experiments.RunFig4(dir, benchScale(), 10, 42)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.QuerySec*1000, r.Layout+"_ms")
		}
	}
}

// BenchmarkCacheHit_VsColStore measures E4: cache-served ViDa query
// latency against the loaded column store.
func BenchmarkCacheHit_VsColStore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		res, err := experiments.RunCacheHits(dir, benchScale(), 60, 42)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.HitRate*100, "hit_%")
		b.ReportMetric(res.HitOverColFactor, "hit/col_x")
	}
}

// BenchmarkColdVsWarm measures E8: the raw-touch share of cumulative time.
func BenchmarkColdVsWarm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		res, err := experiments.RunColdWarm(dir, benchScale(), 60, 42)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RawShareOfTotal*100, "rawshare_%")
	}
}

// BenchmarkMongoSpace measures E5: document-store import amplification.
func BenchmarkMongoSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		res, err := experiments.RunMongoSpace(dir, benchScale(), 42)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Amplification, "amplify_x")
	}
}

// BenchmarkJITvsStatic_ScanFilterAgg, _Join measure E6 per plan shape.
func BenchmarkJITvsStatic_Plans(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		rows, err := experiments.RunJITvsStatic(dir, benchScale(), 5, 42)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Ratio, r.Plan+"_x")
		}
	}
}

// BenchmarkPosmap_AttributeSweep measures E7.
func BenchmarkPosmap_AttributeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		rows, err := experiments.RunPosmap(dir, benchScale(), 42)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.Speedup, "lastcol_speedup_x")
	}
}

// BenchmarkVerticalPartitioning measures E9 (uses a genetics width near
// the paper's so partitioning actually triggers; one load per run).
func BenchmarkVerticalPartitioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		sc := benchScale()
		sc.GeneticsRows = 150
		res, err := experiments.RunVPart(dir, sc, 42)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Partitions), "partitions")
		b.ReportMetric(res.StitchOverhead, "stitch_x")
	}
}

// BenchmarkFlatten measures E10.
func BenchmarkFlatten(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		res, err := experiments.RunFlatten(dir, benchScale(), 42)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FullRedundancy, "rows_per_obj")
	}
}

// BenchmarkQueryColdCSV / Warm isolate single-query engine latency on a
// raw CSV (first touch vs cached), the microscopic view of Figure 5.
func BenchmarkQueryColdCSV(b *testing.B) {
	dir := b.TempDir()
	sc := benchScale()
	path := filepath.Join(dir, "p.csv")
	if err := workload.GeneratePatients(path, sc, 42); err != nil {
		b.Fatal(err)
	}
	q := `for { p <- Patients, p.age > 40 } yield avg p.bmi`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := vida.New()
		must(b, eng.RegisterCSV("Patients", path, workload.PatientsSchema(sc), nil))
		if _, err := eng.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryWarmCSV(b *testing.B) {
	dir := b.TempDir()
	sc := benchScale()
	path := filepath.Join(dir, "p.csv")
	if err := workload.GeneratePatients(path, sc, 42); err != nil {
		b.Fatal(err)
	}
	eng := vida.New()
	must(b, eng.RegisterCSV("Patients", path, workload.PatientsSchema(sc), nil))
	q := `for { p <- Patients, p.age > 40 } yield avg p.bmi`
	if _, err := eng.Query(q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCleanedScan times a source with a cleaner attached (paper §7)
// against the same source without one, over 100k × 20 Patients rows: a
// range rule on age, [0, 80] with the Nearest policy. "scan" runs with
// caching off once the positional map is built, so every query reads
// and cleans the raw file; "first-touch" is the first query of a fresh
// engine. Cleaning is a stage of the raw batch scan, so a query that
// reads no cleaned column costs what the uncleaned scan costs; "scan-age"
// reads the cleaned column.
func BenchmarkCleanedScan(b *testing.B) {
	sc := workload.Scale{PatientsRows: 100000, PatientsCols: 20}
	path := filepath.Join(b.TempDir(), "p.csv")
	if err := workload.GeneratePatients(path, sc, 42); err != nil {
		b.Fatal(err)
	}
	const q = `for { p <- Patients } yield sum p.bmi`
	open := func(b *testing.B, cleaned bool, opts ...vida.Option) *vida.Engine {
		eng := vida.New(opts...)
		must(b, eng.RegisterCSV("Patients", path, workload.PatientsSchema(sc), nil))
		if cleaned {
			must(b, eng.AttachCleaner("Patients", vida.CleanRule{Attr: "age", Policy: vida.CleanNearest,
				Min: vida.CleanFloat(0), Max: vida.CleanFloat(80)}))
		}
		return eng
	}
	for _, cleaned := range []bool{false, true} {
		name := map[bool]string{false: "uncleaned", true: "cleaned"}[cleaned]
		// scan-age reads the cleaned column, so there the rule fires.
		for _, scan := range []struct{ name, q string }{{"scan", q}, {"scan-age", `for { p <- Patients } yield sum p.age`}} {
			b.Run(scan.name+"/"+name, func(b *testing.B) {
				eng := open(b, cleaned, vida.WithoutCaching())
				if _, err := eng.Query(scan.q); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.Query(scan.q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run("first-touch/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng := open(b, cleaned)
				b.StartTimer()
				if _, err := eng.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryWarmCSVTraced is the warm query with a span recorder
// armed on the context — compare against BenchmarkQueryWarmCSV to see
// the cost a served (always-traced) query pays over the library path.
func BenchmarkQueryWarmCSVTraced(b *testing.B) {
	dir := b.TempDir()
	sc := benchScale()
	path := filepath.Join(dir, "p.csv")
	if err := workload.GeneratePatients(path, sc, 42); err != nil {
		b.Fatal(err)
	}
	eng := vida.New()
	must(b, eng.RegisterCSV("Patients", path, workload.PatientsSchema(sc), nil))
	q := `for { p <- Patients, p.age > 40 } yield avg p.bmi`
	if _, err := eng.Query(q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := trace.New(trace.NewID(), "bench")
		ctx := trace.WithTracer(context.Background(), tr)
		if _, err := eng.QueryCtx(ctx, q); err != nil {
			b.Fatal(err)
		}
		tr.Finish()
	}
}

// TestTracingDisarmedNoExtraAllocs guards the tentpole's overhead
// contract: with no tracer on the context, the instrumented warm-query
// path allocates no more than it did before tracing existed (39
// allocs/op at the time this guard was written; the bound leaves a
// little slack so unrelated churn doesn't trip it).
func TestTracingDisarmedNoExtraAllocs(t *testing.T) {
	dir := t.TempDir()
	sc := benchScale()
	path := filepath.Join(dir, "p.csv")
	if err := workload.GeneratePatients(path, sc, 42); err != nil {
		t.Fatal(err)
	}
	eng := vida.New()
	if err := eng.RegisterCSV("Patients", path, workload.PatientsSchema(sc), nil); err != nil {
		t.Fatal(err)
	}
	q := `for { p <- Patients, p.age > 40 } yield avg p.bmi`
	if _, err := eng.Query(q); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := eng.Query(q); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 44 // pre-tracing baseline 39, plus slack
	if allocs > budget {
		t.Fatalf("disarmed warm query allocates %.0f/op, budget %d: tracing is no longer free when off", allocs, budget)
	}
}

// BenchmarkQueryWarmCSVParallel runs the warm query from many goroutines
// at once — the engine-level view of concurrent serving (plan cache,
// data cache and scan paths all shared).
func BenchmarkQueryWarmCSVParallel(b *testing.B) {
	dir := b.TempDir()
	sc := benchScale()
	path := filepath.Join(dir, "p.csv")
	if err := workload.GeneratePatients(path, sc, 42); err != nil {
		b.Fatal(err)
	}
	eng := vida.New()
	must(b, eng.RegisterCSV("Patients", path, workload.PatientsSchema(sc), nil))
	q := `for { p <- Patients, p.age > 40 } yield avg p.bmi`
	if _, err := eng.Query(q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := eng.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPrepareWarmParallel isolates plan-cache contention: every
// iteration is a warm Prepare (parse/optimize skipped, only the cache
// lookup runs). The cache is sharded 16 ways; with one mutex this
// serializes completely under RunParallel.
func BenchmarkPrepareWarmParallel(b *testing.B) {
	dir := b.TempDir()
	sc := benchScale()
	path := filepath.Join(dir, "p.csv")
	if err := workload.GeneratePatients(path, sc, 42); err != nil {
		b.Fatal(err)
	}
	eng := vida.New()
	must(b, eng.RegisterCSV("Patients", path, workload.PatientsSchema(sc), nil))
	queries := make([]string, 64)
	for i := range queries {
		queries[i] = fmt.Sprintf("for { p <- Patients, p.age > %d } yield count p", i)
		if _, err := eng.Prepare(queries[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := eng.Prepare(queries[i&63]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkServerConcurrentWarm measures the serving tier end to end: N
// parallel HTTP clients posting warm CSV queries through admission
// control, the session layer and JSON encoding. The result cache is
// disabled so every request executes (with it on, this collapses to an
// LRU hit).
func BenchmarkServerConcurrentWarm(b *testing.B) {
	dir := b.TempDir()
	sc := benchScale()
	path := filepath.Join(dir, "p.csv")
	if err := workload.GeneratePatients(path, sc, 42); err != nil {
		b.Fatal(err)
	}
	pool := sched.NewPool(0)
	defer pool.Close()
	eng := vida.New(vida.WithScheduler(pool))
	must(b, eng.RegisterCSV("Patients", path, workload.PatientsSchema(sc), nil))
	svc := serve.NewService(eng, pool, serve.Config{
		MaxInFlight:        256,
		ResultCacheEntries: -1,
	})
	ts := httptest.NewServer(serve.NewServer(svc).Handler())
	defer ts.Close()
	body := []byte(`{"query":"for { p <- Patients, p.age > 40 } yield avg p.bmi"}`)
	// Warm the scan and the prepared-statement cache.
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("warmup status %d", resp.StatusCode)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
	})
}

// BenchmarkSQLTranslation measures the syntactic-sugar layer alone.
func BenchmarkSQLTranslation(b *testing.B) {
	eng := vida.New()
	sql := `SELECT e.deptNo, COUNT(*) AS c, AVG(e.salary) AS s
	        FROM Employees e WHERE e.salary > 50 GROUP BY e.deptNo`
	for i := 0; i < b.N; i++ {
		if _, err := eng.TranslateSQL(sql); err != nil {
			b.Fatal(err)
		}
	}
}

func must(b *testing.B, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
}

// TestMain keeps the benchmark scratch space tidy under -bench runs.
func TestMain(m *testing.M) {
	code := m.Run()
	matches, _ := filepath.Glob(filepath.Join(os.TempDir(), "vidabench*"))
	for _, m := range matches {
		os.RemoveAll(m)
	}
	if code != 0 {
		fmt.Fprintln(os.Stderr, "bench harness exited nonzero")
	}
	os.Exit(code)
}

// writeBigPeopleCSV writes an n-row id,name,age CSV for the pushdown
// benchmarks.
func writeBigPeopleCSV(b *testing.B, n int) string {
	b.Helper()
	dir := b.TempDir()
	path := filepath.Join(dir, "people.csv")
	var buf bytes.Buffer
	buf.WriteString("id,name,age\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&buf, "%d,p%d,%d\n", i, i, 20+i%60)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	return path
}

const bigPeopleSchema = "Record(Att(id, int), Att(name, string), Att(age, int))"

// BenchmarkLimitPushdownColdCSV measures the LIMIT early-stop win on a
// cold 300k-row first touch: the "limit10" variant must cancel its
// producers after a handful of batches, the "full" variant scans the
// file to the end. Each iteration builds a fresh engine so the scan is
// genuinely cold (no positional map, no cache). Acceptance: limit10 runs
// ≥5x faster than full.
func BenchmarkLimitPushdownColdCSV(b *testing.B) {
	path := writeBigPeopleCSV(b, 300_000)
	run := func(b *testing.B, q string, wantRows int) {
		for i := 0; i < b.N; i++ {
			eng := vida.New()
			must(b, eng.RegisterCSV("People", path, bigPeopleSchema, nil))
			res, err := eng.QuerySQL(q)
			if err != nil {
				b.Fatal(err)
			}
			if wantRows > 0 && res.Len() != wantRows {
				b.Fatalf("rows = %d, want %d", res.Len(), wantRows)
			}
		}
	}
	b.Run("limit10", func(b *testing.B) {
		run(b, `SELECT id FROM People LIMIT 10`, 10)
	})
	b.Run("full", func(b *testing.B) {
		run(b, `SELECT id FROM People`, 300_000)
	})
}

// boxifyColumns rebuilds a dataset's columnar cache entry under the
// boxed fallback layout — the representation every entry used before
// the typed cache — so benchmarks can A/B the layouts on identical
// data.
func boxifyColumns(b *testing.B, eng *vida.Engine, dataset string) {
	b.Helper()
	m := eng.Internal().Caches()
	e, ok := m.Peek(dataset, cache.LayoutColumns)
	if !ok {
		b.Fatalf("no columnar entry for %s", dataset)
	}
	boxed := make(map[string]vec.Col, len(e.Cols))
	for name, col := range e.Cols {
		c := col
		vs := make([]values.Value, e.N)
		for i := range vs {
			vs[i] = c.Value(i)
		}
		boxed[name] = vec.Col{Tag: vec.Boxed, Boxed: vs}
	}
	m.Invalidate(dataset)
	if err := m.PutColumnVectors(dataset, e.N, boxed); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWarmCacheAggScan is the typed-cache acceptance benchmark: a
// warm 300k-row aggregate whose head is an arithmetic expression, in
// two configurations.
//
//   - typed: typed cache entry + vectorized expression kernels (the
//     engine as shipped)
//   - boxed: the same kernels over a boxed cache entry — isolates the
//     layout effect
func BenchmarkWarmCacheAggScan(b *testing.B) {
	path := writeBigPeopleCSV(b, 300_000)
	q := `for { p <- People, p.age > 40 } yield avg (p.id * 2 + p.age)`
	run := func(b *testing.B, boxify bool) {
		eng := vida.New()
		must(b, eng.RegisterCSV("People", path, bigPeopleSchema, nil))
		if _, err := eng.Query(q); err != nil {
			b.Fatal(err)
		}
		if boxify {
			boxifyColumns(b, eng, "People")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("typed", func(b *testing.B) { run(b, false) })
	b.Run("boxed", func(b *testing.B) { run(b, true) })
}

// BenchmarkJoinWarmTypedKeys measures the vectorized join-key path: a
// 300k-row probe against a 20k-row build side, both served warm from
// the columnar cache. typed hashes the key columns in one pass per
// batch with no boxing; boxed-baseline re-creates the seed layout
// (boxed entries), whose build and probe box every key row.
func BenchmarkJoinWarmTypedKeys(b *testing.B) {
	path := writeBigPeopleCSV(b, 300_000)
	dimPath := writeBigPeopleCSV(b, 20_000)
	q := `for { p <- People, d <- Dim, p.id = d.id, d.age > 50 } yield count p`
	run := func(b *testing.B, boxify bool) {
		eng := vida.New()
		must(b, eng.RegisterCSV("People", path, bigPeopleSchema, nil))
		must(b, eng.RegisterCSV("Dim", dimPath, bigPeopleSchema, nil))
		if _, err := eng.Query(q); err != nil {
			b.Fatal(err)
		}
		if boxify {
			boxifyColumns(b, eng, "People")
			boxifyColumns(b, eng, "Dim")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("typed", func(b *testing.B) { run(b, false) })
	b.Run("boxed-baseline", func(b *testing.B) { run(b, true) })
}

// BenchmarkOrderByExprKeyWarmCSV measures the computed-ORDER-BY-key
// kernel: the sort key is an arithmetic expression evaluated per batch
// by a typed kernel instead of per row through the closure chain.
func BenchmarkOrderByExprKeyWarmCSV(b *testing.B) {
	path := writeBigPeopleCSV(b, 300_000)
	eng := vida.New()
	must(b, eng.RegisterCSV("People", path, bigPeopleSchema, nil))
	q := `for { p <- People } yield bag p.id order by p.age * 2 desc, p.id limit 10`
	if _, err := eng.Query(q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() != 10 {
			b.Fatalf("rows = %d", res.Len())
		}
	}
}

// BenchmarkOrderByTopKWarmCSV measures the streaming top-k fold over a
// warm (cached, morsel-parallel) 300k-row scan: heap memory is
// O(limit), not O(rows).
func BenchmarkOrderByTopKWarmCSV(b *testing.B) {
	path := writeBigPeopleCSV(b, 300_000)
	eng := vida.New()
	must(b, eng.RegisterCSV("People", path, bigPeopleSchema, nil))
	q := `SELECT id, age FROM People ORDER BY age DESC, id LIMIT 10`
	if _, err := eng.QuerySQL(q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.QuerySQL(q)
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() != 10 {
			b.Fatalf("rows = %d", res.Len())
		}
	}
}

// BenchmarkMixedWorkload measures warm-query tail latency while a cold
// scan grinds in the background — the resource-governance contract: one
// expensive raw scan must not starve the cheap warm traffic sharing the
// admission gate and scheduler. The cold source is registered under many
// names over the same large file so each background scan is genuinely
// cold (fresh positional map, fresh cache state). Reports the warm p99
// next to the standard per-op numbers.
func BenchmarkMixedWorkload(b *testing.B) {
	dir := b.TempDir()
	sc := benchScale()
	warmPath := filepath.Join(dir, "p.csv")
	must(b, workload.GeneratePatients(warmPath, sc, 42))
	coldSc := sc
	coldSc.GeneticsRows = 20_000
	coldPath := filepath.Join(dir, "g.csv")
	must(b, workload.GenerateGenetics(coldPath, coldSc, 43))

	pool := sched.NewPool(0)
	defer pool.Close()
	eng := vida.New(vida.WithScheduler(pool))
	must(b, eng.RegisterCSV("Patients", warmPath, workload.PatientsSchema(sc), nil))
	const coldNames = 64
	for i := 0; i < coldNames; i++ {
		must(b, eng.RegisterCSV(fmt.Sprintf("Cold%d", i), coldPath, workload.GeneticsSchema(coldSc), nil))
	}
	svc := serve.NewService(eng, pool, serve.Config{
		MaxInFlight:        4,
		MaxQueue:           32,
		ResultCacheEntries: -1, // every warm request must execute
	})
	defer svc.Close()

	warm := "for { p <- Patients, p.age > 40 } yield avg p.bmi"
	if _, err := svc.Query(context.Background(), warm, nil, 0); err != nil {
		b.Fatal(err)
	}

	// One background client issuing cold scans back to back.
	stop := make(chan struct{})
	coldDone := make(chan struct{})
	go func() {
		defer close(coldDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			q := fmt.Sprintf("for { g <- Cold%d } yield count g", i%coldNames)
			if _, err := svc.Query(context.Background(), q, nil, 0); err != nil {
				b.Errorf("cold scan: %v", err)
				return
			}
		}
	}()

	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := svc.Query(context.Background(), warm, nil, 0); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(start))
	}
	b.StopTimer()
	close(stop)
	<-coldDone

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[len(lat)*99/100]
	b.ReportMetric(float64(p99.Microseconds())/1000, "warm-p99-ms")
}

// BenchmarkEncodedCacheAggScan measures the encoded cache tier against
// the hot (decoded vector) tier on the same warm 300k-row aggregate:
// the encoded variant forces every entry past the hot budget, so each
// query decodes dictionary/delta blocks on demand instead of reading
// resident vectors. The gap is the CPU price paid for the ~5x+ memory
// density (see TestEncodedTierCapacity).
func BenchmarkEncodedCacheAggScan(b *testing.B) {
	path := writeBigPeopleCSV(b, 300_000)
	q := `for { p <- People, p.age > 40 } yield avg p.id`
	run := func(b *testing.B, opts ...vida.Option) {
		eng := vida.New(opts...)
		must(b, eng.RegisterCSV("People", path, bigPeopleSchema, nil))
		if _, err := eng.Query(q); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("hot", func(b *testing.B) { run(b) })
	b.Run("encoded", func(b *testing.B) {
		run(b, vida.WithCacheHotBytes(1))
	})
}

// BenchmarkRestartWarmFirstQuery is the restart acceptance benchmark:
// the first query of a fresh engine over a populated cache directory
// (rehydrated encoded blocks + persisted positional map) against the
// same first query with no cache directory (a true cold raw-CSV scan
// that must parse every row and build the positional map). Engine
// construction and registration sit outside the timer in both variants
// so the numbers compare first-query latency, not process startup.
// rehydrated+register also times Register: a restart pays for it before
// its first answer (reading the file, keying and rehydrating the spill;
// the posmap sidecar loads only when a scan needs it).
// Acceptance: rehydrated beats true-cold by ≥10x ns/op on 300k rows.
func BenchmarkRestartWarmFirstQuery(b *testing.B) {
	path := writeBigPeopleCSV(b, 300_000)
	q := `for { p <- People, p.age > 40 } yield avg p.id`
	cacheDir := filepath.Join(b.TempDir(), "cache")
	seed := vida.New(vida.WithCacheDir(cacheDir))
	must(b, seed.RegisterCSV("People", path, bigPeopleSchema, nil))
	if _, err := seed.Query(q); err != nil {
		b.Fatal(err)
	}
	must(b, seed.Close())

	run := func(b *testing.B, register bool, opts ...vida.Option) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			eng := vida.New(opts...)
			if register {
				b.StartTimer()
			}
			must(b, eng.RegisterCSV("People", path, bigPeopleSchema, nil))
			b.StartTimer()
			if _, err := eng.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("rehydrated", func(b *testing.B) { run(b, false, vida.WithCacheDir(cacheDir)) })
	b.Run("rehydrated+register", func(b *testing.B) { run(b, true, vida.WithCacheDir(cacheDir)) })
	b.Run("true-cold", func(b *testing.B) { run(b, false) })
}

// BenchmarkGroupByWarmCSV measures the single-pass vectorized hash
// aggregation over a warm 300k-row columnar cache. ungrouped is the
// scalar fold over the same scan and arithmetic expression; grouped
// computes the same aggregate per age group (60 groups) in one scan.
// Acceptance: grouped stays within ~2x of ungrouped — the group table
// adds a hash+probe per row, never a second pass over the data.
// grouped-string is the same fold keyed by a 60-value string column
// (the cache holds it dictionary-coded, so the group table indexes rows
// by code): COUNT(*) and AVG per city.
func BenchmarkGroupByWarmCSV(b *testing.B) {
	path := writeBigPeopleCSV(b, 300_000)
	run := func(b *testing.B, q string) {
		eng := vida.New()
		must(b, eng.RegisterCSV("People", path, bigPeopleSchema, nil))
		if _, err := eng.QuerySQL(q); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.QuerySQL(q); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("ungrouped", func(b *testing.B) {
		run(b, `SELECT AVG(p.id * 2 + p.age) FROM People p`)
	})
	b.Run("grouped", func(b *testing.B) {
		run(b, `SELECT p.age, AVG(p.id * 2 + p.age) AS a FROM People p GROUP BY p.age`)
	})
	b.Run("grouped-having", func(b *testing.B) {
		run(b, `SELECT p.age, COUNT(*) AS n, AVG(p.id * 2 + p.age) AS a
		    FROM People p GROUP BY p.age HAVING COUNT(*) > 1000 ORDER BY a DESC LIMIT 10`)
	})
	b.Run("grouped-string", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "people_city.csv")
		var buf bytes.Buffer
		buf.WriteString("id,city,age\n")
		for i := 1; i <= 300_000; i++ {
			fmt.Fprintf(&buf, "%d,c%02d,%d\n", i, (i*7919)%60, 20+i%60)
		}
		must(b, os.WriteFile(path, buf.Bytes(), 0o644))
		eng := vida.New()
		must(b, eng.RegisterCSV("People", path, "Record(Att(id, int), Att(city, string), Att(age, int))", nil))
		q := `SELECT p.city, COUNT(*) AS n, AVG(p.age) AS a FROM People p GROUP BY p.city`
		res, err := eng.QuerySQL(q)
		if err != nil {
			b.Fatal(err)
		}
		if n := res.Len(); n != 60 {
			b.Fatalf("%d groups, want 60", n)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.QuerySQL(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig5Grouped runs grouped-aggregate variants of the Figure-5
// workload shapes — demographic rollups over Patients and a grouped
// join — on a warm engine, exercising the hash-aggregation operator
// over the evaluation datasets end to end.
func BenchmarkFig5Grouped(b *testing.B) {
	dir := b.TempDir()
	sc := benchScale()
	paths, err := workload.GenerateAll(dir, sc, 42)
	if err != nil {
		b.Fatal(err)
	}
	eng := vida.New()
	must(b, eng.RegisterCSV("Patients", paths.Patients, workload.PatientsSchema(sc), nil))
	must(b, eng.RegisterCSV("Genetics", paths.Genetics, workload.GeneticsSchema(sc), nil))
	queries := []string{
		`SELECT p.city, COUNT(*) AS n, AVG(p.bmi) AS bmi FROM Patients p GROUP BY p.city`,
		`SELECT p.gender, AVG(p.age) AS age FROM Patients p GROUP BY p.gender HAVING COUNT(*) > 10`,
		`SELECT p.city, p.gender, SUM(p.visits) AS v FROM Patients p
		    WHERE p.age > 40 GROUP BY p.city, p.gender ORDER BY v DESC LIMIT 5`,
		`SELECT p.city, AVG(g.snp0) AS s FROM Patients p JOIN Genetics g ON (p.id = g.id)
		    GROUP BY p.city`,
	}
	for _, q := range queries {
		if _, err := eng.QuerySQL(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, err := eng.QuerySQL(q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// writeJoinDimCSV writes the n-row build side Dim(id,w) with ids 1..n,
// so joining it against writeBigPeopleCSV (ids 1..300k) on id yields
// exactly n matches.
func writeJoinDimCSV(b *testing.B, n int) string {
	b.Helper()
	dir := b.TempDir()
	path := filepath.Join(dir, "dim.csv")
	var buf bytes.Buffer
	buf.WriteString("id,w\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&buf, "%d,%d\n", i, i%100)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	return path
}

const joinDimSchema = "Record(Att(id, int), Att(w, int))"

// joinBenchEngine registers the 300k-row probe and 60k-row build CSVs
// on an engine whose morsel fan-out is workers wide.
func joinBenchEngine(b *testing.B, people, dim string, pool *sched.Pool, workers int) *vida.Engine {
	b.Helper()
	eng := vida.New(vida.WithScheduler(pool), vida.WithWorkers(workers))
	must(b, eng.RegisterCSV("People", people, bigPeopleSchema, nil))
	must(b, eng.RegisterCSV("Dim", dim, joinDimSchema, nil))
	return eng
}

const joinBenchQuery = "for { p <- People, d <- Dim, p.id = d.id } yield count p"

// BenchmarkJoinParallelWarm measures the morsel-parallel
// hash join against the serial build+probe on warm columnar caches:
// 300k probe rows against a 60k-row build side. Acceptance (ROADMAP):
// parallel at 4 workers ≥2x serial on a 4-core host.
func BenchmarkJoinParallelWarm(b *testing.B) {
	people := writeBigPeopleCSV(b, 300_000)
	dim := writeJoinDimCSV(b, 60_000)
	run := func(b *testing.B, workers int) {
		pool := sched.NewPool(workers)
		defer pool.Close()
		eng := joinBenchEngine(b, people, dim, pool, workers)
		res, err := eng.Query(joinBenchQuery)
		if err != nil {
			b.Fatal(err)
		}
		if res.Value().Int() != 60_000 {
			b.Fatalf("warmup count = %d, want 60000", res.Value().Int())
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Query(joinBenchQuery); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("parallel4", func(b *testing.B) { run(b, 4) })
}

// BenchmarkJoinParallelColdCSV is the same join on a genuinely cold
// first touch — fresh engine per iteration, so the raw CSV scans, the
// parallel build, and the probe all count.
func BenchmarkJoinParallelColdCSV(b *testing.B) {
	people := writeBigPeopleCSV(b, 300_000)
	dim := writeJoinDimCSV(b, 60_000)
	run := func(b *testing.B, workers int) {
		pool := sched.NewPool(workers)
		defer pool.Close()
		for i := 0; i < b.N; i++ {
			eng := joinBenchEngine(b, people, dim, pool, workers)
			res, err := eng.Query(joinBenchQuery)
			if err != nil {
				b.Fatal(err)
			}
			if res.Value().Int() != 60_000 {
				b.Fatalf("count = %d, want 60000", res.Value().Int())
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("parallel4", func(b *testing.B) { run(b, 4) })
}

// writeJoinAggCSVs writes n People(id,age,city,salary) rows and n
// Orders(oid,pid,amount,qty,status) rows whose pid is uniform over the
// people ids, both ids spread by the factor spread (id = spread·i), and
// returns their paths with the answer of joinAggQuery(age, qty).
// Amounts are multiples of 0.25, so the sum is exact in any order of
// addition.
func writeJoinAggCSVs(b *testing.B, n int, spread, age, qty int64) (people, orders string, want float64) {
	b.Helper()
	r := rand.New(rand.NewSource(42))
	dir := b.TempDir()
	ages := make([]int64, n)
	var buf bytes.Buffer
	buf.WriteString("id,age,city,salary\n")
	for i := range ages {
		ages[i] = int64(18 + r.Intn(70))
		fmt.Fprintf(&buf, "%d,%d,c%02d,%.2f\n", int64(i)*spread, ages[i], r.Intn(60), float64(r.Intn(400_000))/4)
	}
	people = filepath.Join(dir, "people.csv")
	must(b, os.WriteFile(people, buf.Bytes(), 0o644))
	buf.Reset()
	buf.WriteString("oid,pid,amount,qty,status\n")
	for i := 0; i < n; i++ {
		pid, amount, q := r.Intn(n), float64(r.Intn(40_000))/4, int64(1+r.Intn(9))
		fmt.Fprintf(&buf, "%d,%d,%.2f,%d,s%d\n", i, int64(pid)*spread, amount, q, r.Intn(5))
		if q > qty && ages[pid] >= age {
			want += amount
		}
	}
	orders = filepath.Join(dir, "orders.csv")
	must(b, os.WriteFile(orders, buf.Bytes(), 0o644))
	return people, orders, want
}

const joinAggQuery = `SELECT SUM(o.amount) FROM People p JOIN Orders o ON (p.id = o.pid) WHERE p.age >= ? AND o.qty > ?`

// BenchmarkJoinAggWarm is a filtered join under a fold over warm
// columnar caches: 300k People probe 300k Orders on id = pid, with a
// filter on each side, and SUM(o.amount) folds the matched rows. The
// probe gathers its matches column by column, so the fold reads typed
// columns. The build side is People (the ~99k aged 65 or more, keyed by
// id). In /dense the ids are 0..299 999, so the build seals a
// key-indexed directory; in /sparse they are spread ×1000, so it seals
// the chain table.
func BenchmarkJoinAggWarm(b *testing.B) {
	const age, qty = 65, 6
	for _, c := range []struct {
		name   string
		spread int64
		dense  int64 // directories the warm-up query seals
	}{{"dense", 1, 1}, {"sparse", 1000, 0}} {
		b.Run(c.name, func(b *testing.B) {
			people, orders, want := writeJoinAggCSVs(b, 300_000, c.spread, age, qty)
			eng := vida.New()
			must(b, eng.RegisterCSV("People", people, "Record(Att(id,int),Att(age,int),Att(city,string),Att(salary,float))", nil))
			must(b, eng.RegisterCSV("Orders", orders, "Record(Att(oid,int),Att(pid,int),Att(amount,float),Att(qty,int),Att(status,string))", nil))
			res, err := eng.QuerySQL(joinAggQuery, age, qty)
			if err != nil {
				b.Fatal(err)
			}
			if got := res.Value().Float(); got != want {
				b.Fatalf("sum = %v, want %v", got, want)
			}
			if got := eng.Stats().JoinDenseFolds; got != c.dense {
				b.Fatalf("directories sealed = %d, want %d", got, c.dense)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.QuerySQL(joinAggQuery, age, qty); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
