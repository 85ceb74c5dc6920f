package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"vida/internal/algebra"
	"vida/internal/cache"
	"vida/internal/sdg"
	"vida/internal/values"
	"vida/internal/vec"
)

func writeFiles(t *testing.T) (csvPath, jsonPath string) {
	t.Helper()
	dir := t.TempDir()
	csvPath = filepath.Join(dir, "patients.csv")
	csv := "id,age,city,score\n"
	for i := 0; i < 50; i++ {
		csv += fmt.Sprintf("%d,%d,c%d,%g\n", i, 20+i%50, i%5, float64(i)/2)
	}
	if err := os.WriteFile(csvPath, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	jsonPath = filepath.Join(dir, "regions.json")
	jsonData := "["
	for i := 0; i < 20; i++ {
		if i > 0 {
			jsonData += ","
		}
		jsonData += fmt.Sprintf(`{"id": %d, "volume": %g, "meta": {"algo": "a%d"}}`, i%10, float64(i)*1.5, i)
	}
	jsonData += "]"
	if err := os.WriteFile(jsonPath, []byte(jsonData), 0o644); err != nil {
		t.Fatal(err)
	}
	return csvPath, jsonPath
}

func newEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	csvPath, jsonPath := writeFiles(t)
	e := NewEngine(opts)
	schema := sdg.Bag(sdg.Record(
		sdg.Attr{Name: "id", Type: sdg.Int},
		sdg.Attr{Name: "age", Type: sdg.Int},
		sdg.Attr{Name: "city", Type: sdg.String},
		sdg.Attr{Name: "score", Type: sdg.Float},
	))
	if err := e.Register(sdg.DefaultDescription("Patients", sdg.FormatCSV, csvPath, schema)); err != nil {
		t.Fatal(err)
	}
	if err := e.Register(sdg.DefaultDescription("Regions", sdg.FormatJSON, jsonPath, sdg.Bag(sdg.Unknown))); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestQueryOverCSV(t *testing.T) {
	e := newEngine(t, Options{})
	got, err := e.Query(`for { p <- Patients, p.age > 40 } yield count p`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Query(`for { p <- Patients, p.age > 40 } yield sum 1`)
	if err != nil {
		t.Fatal(err)
	}
	if !values.Equal(got, want) || got.Int() == 0 {
		t.Fatalf("count = %v, sum1 = %v", got, want)
	}
}

func TestQueryJoinCSVWithJSON(t *testing.T) {
	e := newEngine(t, Options{})
	got, err := e.Query(`for { p <- Patients, r <- Regions, p.id = r.id, p.age > 21 }
	                     yield bag (city := p.city, vol := r.volume)`)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind() != values.KindBag || got.Len() == 0 {
		t.Fatalf("join result = %v", got)
	}
}

func TestModesAgree(t *testing.T) {
	queries := []string{
		`for { p <- Patients, p.age > 30 } yield sum p.score`,
		`for { p <- Patients, r <- Regions, p.id = r.id } yield count 1`,
		`for { r <- Regions } yield max r.volume`,
		`for { p <- Patients, p.city = "c1" } yield set p.age`,
	}
	for _, q := range queries {
		var results []values.Value
		for _, mode := range []ExecMode{ModeJIT, ModeReference} {
			e := newEngine(t, Options{Mode: mode})
			v, err := e.Query(q)
			if err != nil {
				t.Fatalf("%s on %q: %v", mode, q, err)
			}
			results = append(results, v)
		}
		if !values.Equal(results[0], results[1]) {
			t.Fatalf("modes disagree on %q: jit=%v ref=%v", q, results[0], results[1])
		}
	}
}

func TestCachePromotionAndHit(t *testing.T) {
	e := newEngine(t, Options{})
	q := `for { p <- Patients, p.age > 30 } yield sum p.score`
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	s1 := e.StatsSnapshot()
	if s1.QueriesTouchedRaw != 1 {
		t.Fatalf("first query should touch raw: %+v", s1)
	}
	// Same fields again: served from cache.
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	s2 := e.StatsSnapshot()
	if s2.QueriesFromCache != 1 {
		t.Fatalf("second query should be cache-served: %+v", s2)
	}
	if s2.RawScans != s1.RawScans {
		t.Fatalf("raw scans grew on cached query: %+v vs %+v", s2, s1)
	}
	// A different field forces a raw re-scan, then caches too.
	if _, err := e.Query(`for { p <- Patients } yield max p.id`); err != nil {
		t.Fatal(err)
	}
	s3 := e.StatsSnapshot()
	if s3.QueriesTouchedRaw != 2 {
		t.Fatalf("new-field query should touch raw: %+v", s3)
	}
}

func TestDisableCaching(t *testing.T) {
	e := newEngine(t, Options{DisableCaching: true})
	q := `for { p <- Patients } yield sum p.score`
	for i := 0; i < 3; i++ {
		if _, err := e.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	s := e.StatsSnapshot()
	if s.QueriesFromCache != 0 {
		t.Fatalf("caching disabled but queries served from cache: %+v", s)
	}
	if s.RawScans != 3 {
		t.Fatalf("raw scans = %d, want 3", s.RawScans)
	}
}

func TestResultsIdenticalWithAndWithoutCache(t *testing.T) {
	q := `for { p <- Patients, p.age > 30 } yield bag (c := p.city, s := p.score)`
	e1 := newEngine(t, Options{})
	e2 := newEngine(t, Options{DisableCaching: true})
	// Warm e1's cache, then compare a second run against uncached e2.
	if _, err := e1.Query(q); err != nil {
		t.Fatal(err)
	}
	v1, err := e1.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := e2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !values.Equal(v1, v2) {
		t.Fatalf("cache changed results:\ncached:  %v\nuncached: %v", v1, v2)
	}
}

func TestFileChangeInvalidatesCaches(t *testing.T) {
	csvPath, _ := writeFiles(t)
	e := NewEngine(Options{})
	schema := sdg.Bag(sdg.Record(
		sdg.Attr{Name: "id", Type: sdg.Int},
		sdg.Attr{Name: "age", Type: sdg.Int},
		sdg.Attr{Name: "city", Type: sdg.String},
		sdg.Attr{Name: "score", Type: sdg.Float},
	))
	if err := e.Register(sdg.DefaultDescription("P", sdg.FormatCSV, csvPath, schema)); err != nil {
		t.Fatal(err)
	}
	before, err := e.Query(`for { p <- P } yield count 1`)
	if err != nil {
		t.Fatal(err)
	}
	// Append a row and bump mtime.
	f, err := os.OpenFile(csvPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("999,30,cx,1.0\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	fi, _ := os.Stat(csvPath)
	bump := fi.ModTime().Add(2 * time.Second)
	if err := os.Chtimes(csvPath, bump, bump); err != nil {
		t.Fatal(err)
	}
	if err := e.Refresh(); err != nil {
		t.Fatal(err)
	}
	after, err := e.Query(`for { p <- P } yield count 1`)
	if err != nil {
		t.Fatal(err)
	}
	if after.Int() != before.Int()+1 {
		t.Fatalf("after refresh count = %v, want %v", after, before.Int()+1)
	}
}

func TestTypeErrorsSurface(t *testing.T) {
	e := newEngine(t, Options{})
	if _, err := e.Query(`for { p <- Patients } yield sum p.nosuch`); err == nil {
		t.Fatal("unknown attribute should fail type checking")
	}
	if _, err := e.Query(`for { p <- NoSuchSource } yield count 1`); err == nil {
		t.Fatal("unknown source should fail")
	}
	if _, err := e.Query(`for { p <- `); err == nil {
		t.Fatal("syntax error should fail")
	}
}

func TestExplain(t *testing.T) {
	e := newEngine(t, Options{})
	s, err := e.Explain(`for { p <- Patients, r <- Regions, p.id = r.id, p.age > 30 } yield count 1`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Reduce[count]", "Join", "Scan(Patients"} {
		if !containsStr(s, want) {
			t.Fatalf("explain missing %q:\n%s", want, s)
		}
	}
}

func TestAdaptiveMode(t *testing.T) {
	e := newEngine(t, Options{Adaptive: true})
	got, err := e.Query(`for { p <- Patients, r <- Regions, p.id = r.id, p.age > 21 } yield count 1`)
	if err != nil {
		t.Fatal(err)
	}
	e2 := newEngine(t, Options{})
	want, err := e2.Query(`for { p <- Patients, r <- Regions, p.id = r.id, p.age > 21 } yield count 1`)
	if err != nil {
		t.Fatal(err)
	}
	if !values.Equal(got, want) {
		t.Fatalf("adaptive diverged: %v vs %v", got, want)
	}
}

func TestRegisterErrors(t *testing.T) {
	e := newEngine(t, Options{})
	schema := sdg.Bag(sdg.Record(sdg.Attr{Name: "a", Type: sdg.Int}))
	if err := e.Register(sdg.DefaultDescription("Patients", sdg.FormatCSV, "/nope.csv", schema)); err == nil {
		t.Fatal("duplicate/missing registration should fail")
	}
}

func TestDeregister(t *testing.T) {
	e := newEngine(t, Options{})
	if _, err := e.Query(`for { p <- Patients } yield count 1`); err != nil {
		t.Fatal(err)
	}
	e.Deregister("Patients")
	if _, err := e.Query(`for { p <- Patients } yield count 1`); err == nil {
		t.Fatal("query after deregister should fail")
	}
}

func TestAuxiliaryBytesReported(t *testing.T) {
	e := newEngine(t, Options{})
	if _, err := e.Query(`for { p <- Patients } yield sum p.score`); err != nil {
		t.Fatal(err)
	}
	if s := e.StatsSnapshot(); s.AuxiliaryBytes == 0 {
		t.Fatalf("auxiliary structures not accounted: %+v", s)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestConcurrentQueries exercises the engine from many goroutines: the
// caches, positional maps and plan cache are shared mutable state and
// must stay consistent (run under -race in CI).
func TestConcurrentQueries(t *testing.T) {
	e := newEngine(t, Options{})
	queries := []string{
		`for { p <- Patients, p.age > 30 } yield sum p.score`,
		`for { p <- Patients, r <- Regions, p.id = r.id } yield count 1`,
		`for { r <- Regions } yield max r.volume`,
		`for { p <- Patients } yield set p.city`,
	}
	// Sequential ground truth.
	want := make([]values.Value, len(queries))
	for i, q := range queries {
		v, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				qi := (g + i) % len(queries)
				v, err := e.Query(queries[qi])
				if err != nil {
					errs <- err
					return
				}
				if !values.Equal(v, want[qi]) {
					errs <- fmt.Errorf("goroutine %d: query %d diverged: %v vs %v", g, qi, v, want[qi])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRefreshMidScanDropsStaleHarvest replaces the file and refreshes
// while a cold harvesting scan is in flight: the scan finishes over its
// own (old) generation, but its rows must NOT be promoted into the
// cache — otherwise every warm query would keep serving the old file's
// data at the new epoch.
func TestRefreshMidScanDropsStaleHarvest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	mkContent := func(v int) string {
		s := "id,v\n"
		for i := 0; i < 100; i++ {
			s += fmt.Sprintf("%d,%d\n", i, v)
		}
		return s
	}
	if err := os.WriteFile(path, []byte(mkContent(1)), 0o644); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(Options{})
	typ, err := sdg.ParseSchema("Record(Att(id, int), Att(v, int))")
	if err != nil {
		t.Fatal(err)
	}
	desc := sdg.DefaultDescription("T", sdg.FormatCSV, path, sdg.Bag(typ))
	if err := eng.Register(desc); err != nil {
		t.Fatal(err)
	}

	src, ok := catalog{e: eng}.Source("T")
	if !ok {
		t.Fatal("no source")
	}
	n := 0
	err = src.Iterate([]string{"v"}, func(values.Value) error {
		n++
		if n == 50 {
			// Mid-scan: the file changes and Refresh notices.
			if err := os.WriteFile(path, []byte(mkContent(2)), 0o644); err != nil {
				return err
			}
			future := time.Now().Add(2 * time.Second)
			os.Chtimes(path, future, future)
			if err := eng.Refresh(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("scan yielded %d rows, want 100 (old generation)", n)
	}

	// The new generation must be what queries see: sum v == 200, not 100.
	res, err := eng.Query("for { r <- T } yield sum r.v")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Int(); got != 200 {
		t.Fatalf("sum after mid-scan refresh = %d, want 200 (stale harvest leaked into the cache)", got)
	}
}

// TestHarvestInstallsTypedColumns checks the cold batch scan promotes
// its typed column vectors into the cache unboxed — int/float/string
// attributes keep their payload representation, a low-cardinality string
// attribute is dictionary-coded, bool attributes (no typed tag) fall
// back to boxed — and that the warm scan over the typed entry returns
// identical results.
func TestHarvestInstallsTypedColumns(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	csv := "id,score,city,name,ok\n"
	for i := 0; i < 30; i++ {
		csv += fmt.Sprintf("%d,%g,c%d,n%d,%v\n", i, float64(i)/2, i%3, i, i%2 == 0)
	}
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{})
	schema := sdg.Bag(sdg.Record(
		sdg.Attr{Name: "id", Type: sdg.Int},
		sdg.Attr{Name: "score", Type: sdg.Float},
		sdg.Attr{Name: "city", Type: sdg.String},
		sdg.Attr{Name: "name", Type: sdg.String},
		sdg.Attr{Name: "ok", Type: sdg.Bool},
	))
	if err := e.Register(sdg.DefaultDescription("T", sdg.FormatCSV, path, schema)); err != nil {
		t.Fatal(err)
	}
	q := `for { x <- T, x.ok = true } yield bag (i := x.id, s := x.score, c := x.city, n := x.name, o := x.ok)`
	cold, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	entry, ok := e.Caches().Peek("T", cache.LayoutColumns)
	if !ok {
		t.Fatal("no columnar entry after cold scan")
	}
	wantTags := map[string]vec.Tag{"id": vec.Int64, "score": vec.Float64, "city": vec.StrDict, "name": vec.Str, "ok": vec.Boxed}
	for name, want := range wantTags {
		col, ok := entry.Cols[name]
		if !ok {
			t.Fatalf("column %q not harvested", name)
		}
		if col.Tag != want {
			t.Fatalf("column %q tag = %v, want %v", name, col.Tag, want)
		}
	}
	rawBefore := e.StatsSnapshot().RawScans
	warm, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if e.StatsSnapshot().RawScans != rawBefore {
		// The warm run must come from the cache, not the file.
		t.Fatal("warm query touched raw data")
	}
	if !values.Equal(cold, warm) {
		t.Fatalf("cold %v != warm %v", cold, warm)
	}
}

// TestBudgetedJoinOverDictColumn: a join whose build side carries a
// dictionary-coded cache column is charged for the codes it retains, not
// for the column's shared dictionary once per retained batch. T's tag
// column (4000 distinct strings over 20 000 rows) is cached as StrDict;
// a warm filtered self-join grouping by it fits the same query budget
// the cold run, over plain strings, fits. (Charging the 96 KB dictionary
// per retained batch needs about 3 MB; the retained rows need under 1.)
func TestBudgetedJoinOverDictColumn(t *testing.T) {
	const rows = 20000
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	var sb strings.Builder
	sb.WriteString("id,k,tag\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d,%d,tag-%04d\n", i, i%10, (i*7)%4000)
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{QueryMemoryBudgetBytes: 2 << 20})
	schema := sdg.Bag(sdg.Record(
		sdg.Attr{Name: "id", Type: sdg.Int},
		sdg.Attr{Name: "k", Type: sdg.Int},
		sdg.Attr{Name: "tag", Type: sdg.String},
	))
	if err := e.Register(sdg.DefaultDescription("T", sdg.FormatCSV, path, schema)); err != nil {
		t.Fatal(err)
	}
	q := `for { a <- T, b <- T, a.id = b.id, a.k = 0, b.k = 0 } group by { s := a.tag, u := b.tag } agg { n := count 1 } yield bag (s := s, u := u, n := n)`
	cold, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	entry, ok := e.Caches().Peek("T", cache.LayoutColumns)
	if !ok || entry.Cols["tag"].Tag != vec.StrDict {
		t.Fatalf("tag not cached dictionary-coded (entry %v)", ok)
	}
	warm, err := e.Query(q)
	if err != nil {
		t.Fatalf("warm join over the coded column: %v", err)
	}
	if !values.Equal(cold, warm) {
		t.Fatalf("cold %v != warm %v", cold, warm)
	}
}

// TestDenseJoinDirectoryReserved runs a join whose build seals a
// key-indexed directory (even ids 0..19998: 10 000 entries over 19 999
// slots) under a query budget that holds everything the unbudgeted run
// charged except half the directory: the directory is reserved before
// it is filled, so the query gets the typed budget error, and with the
// whole charge allowed it runs.
func TestDenseJoinDirectoryReserved(t *testing.T) {
	const rows = 20000
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	var sb strings.Builder
	sb.WriteString("id,k\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d,%d\n", i, i%2)
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	schema := sdg.Bag(sdg.Record(sdg.Attr{Name: "id", Type: sdg.Int}, sdg.Attr{Name: "k", Type: sdg.Int}))
	q := `for { a <- T, b <- T, a.id = b.id, b.k = 0 } yield count a`
	run := func(budget int64) (*Engine, error) {
		e := NewEngine(Options{QueryMemoryBudgetBytes: budget})
		if err := e.Register(sdg.DefaultDescription("T", sdg.FormatCSV, path, schema)); err != nil {
			t.Fatal(err)
		}
		got, err := e.Query(q)
		if err == nil && got.Int() != rows/2 {
			t.Fatalf("count = %v, want %d", got, rows/2)
		}
		return e, err
	}
	e, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	st := e.StatsSnapshot()
	if st.JoinDenseFolds != 1 {
		t.Fatalf("dense join folds = %d, want 1", st.JoinDenseFolds)
	}
	directory := int64(4*(rows-1+1) + 8*rows/2)
	if st.JoinTableMaxBytes <= directory {
		t.Fatalf("join table bytes %d do not count the %d-byte directory", st.JoinTableMaxBytes, directory)
	}
	if _, err := run(st.JoinTableMaxBytes - directory/2); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("under a budget short of the directory: err = %v, want %v", err, ErrMemoryBudget)
	}
	var be *MemoryBudgetError
	if _, err := run(st.JoinTableMaxBytes - directory/2); !errors.As(err, &be) || be.Scope != "query" {
		t.Fatalf("budget error = %v, want a query-scope *MemoryBudgetError", err)
	}
	if _, err := run(st.JoinTableMaxBytes); err != nil {
		t.Fatalf("under a budget of the whole charge: %v", err)
	}
}

// TestHarvestNullMaskRoundTrip checks null CSV cells survive the typed
// harvest (validity mask) and that warm results match cold ones.
func TestHarvestNullMaskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "n.csv")
	if err := os.WriteFile(path, []byte("id,v\n1,10\n2,\n3,30\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{})
	schema := sdg.Bag(sdg.Record(
		sdg.Attr{Name: "id", Type: sdg.Int},
		sdg.Attr{Name: "v", Type: sdg.Int},
	))
	if err := e.Register(sdg.DefaultDescription("N", sdg.FormatCSV, path, schema)); err != nil {
		t.Fatal(err)
	}
	q := `for { x <- N, x.v > 5 } yield sum x.v` // null compares false
	cold, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	entry, ok := e.Caches().Peek("N", cache.LayoutColumns)
	if !ok {
		t.Fatal("no columnar entry")
	}
	vcol := entry.Cols["v"]
	if vcol.Tag != vec.Int64 || vcol.Nulls == nil || !vcol.Nulls[1] {
		t.Fatalf("v column = %+v, want typed with mask", vcol)
	}
	warm, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !values.Equal(cold, warm) || cold.Int() != 40 {
		t.Fatalf("cold %v warm %v", cold, warm)
	}
}

// TestCursorParkedInColdScan: a scan holds no lock across its yields. A
// cursor whose consumer stops reading parks its producer inside the yield
// of a cold CSV scan, its chunk channel full; a second query over the
// same file must still run to the end, and the parked cursor then
// resumes and reads every row.
func TestCursorParkedInColdScan(t *testing.T) {
	path := writePatients(t, t.TempDir(), "p.csv", patientRows(0, 3000, 1))
	// Past 1 MiB a first touch is cut into chunks that pool helpers
	// tokenize beside the scanning goroutine.
	multiChunk := writePatients(t, t.TempDir(), "p.csv", patientRows(0, 100000, 1))
	// Eight rows the cursor's product repeats each P row for, so even
	// the small file streams more chunks than the cursor buffers.
	var eight []values.Value
	for i := 0; i < 8; i++ {
		eight = append(eight, values.NewRecord(values.Field{Name: "k", Val: values.NewInt(int64(i))}))
	}
	for _, c := range []struct {
		path   string
		rows   int64
		passes int
	}{{path, 3000, 3}, {multiChunk, 100000, 1}} {
		for pass := 0; pass < c.passes; pass++ {
			for _, q := range []string{
				`for { p <- P, q <- P, p.id = q.id } yield count p`,
				`for { p <- P, q <- P, p.id = q.id } yield sum q.score`,
			} {
				e := freshEngine(t, c.path, Options{})
				desc := sdg.DefaultDescription("K", sdg.FormatTable, "", sdg.Bag(sdg.Record(sdg.Attr{Name: "k", Type: sdg.Int})))
				if err := e.RegisterSource(desc, &algebra.SliceSource{SrcName: "K", Rows: eight}); err != nil {
					t.Fatal(err)
				}
				p, err := e.Prepare(`for { p <- P, k <- K } yield bag p.id`)
				if err != nil {
					t.Fatal(err)
				}
				rows, err := p.RowsCtx(context.Background(), nil)
				if err != nil {
					t.Fatal(err)
				}
				first, err := rows.NextChunk()
				if err != nil || len(first) == 0 {
					t.Fatalf("first chunk: %d elements, %v", len(first), err)
				}
				for deadline := time.Now().Add(20 * time.Second); len(rows.ch) < streamChanCap; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("the cursor's producer never filled its channel")
					}
				}
				if _, ok := e.Caches().Peek("P", cache.LayoutColumns); ok {
					t.Fatal("P's scan finished: the cursor is not parked inside it")
				}
				done := make(chan error, 1)
				var got values.Value
				go func() {
					var err error
					got, err = e.Query(q)
					done <- err
				}()
				select {
				case err := <-done:
					if err != nil {
						t.Fatalf("%s: %v", q, err)
					}
					if got.Float() != float64(c.rows) {
						t.Fatalf("%s = %v, want %d", q, got, c.rows)
					}
				case <-time.After(20 * time.Second):
					t.Fatalf("%s: blocked behind a cursor parked in a scan of the same file", q)
				}
				n := int64(len(first))
				for {
					chunk, err := rows.NextChunk()
					if err != nil {
						t.Fatal(err)
					}
					if chunk == nil {
						break
					}
					n += int64(len(chunk))
				}
				if err := rows.Close(); err != nil || n != 8*c.rows {
					t.Fatalf("the resumed cursor read %d elements (%v), want %d", n, err, 8*c.rows)
				}
			}
		}
	}
}
