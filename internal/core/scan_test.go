package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"vida/internal/algebra"
	"vida/internal/cache"
	"vida/internal/clean"
	"vida/internal/jit"
	"vida/internal/rawarr"
	"vida/internal/rawxls"
	"vida/internal/sdg"
	"vida/internal/trace"
	"vida/internal/values"
	"vida/internal/vec"
)

// The scan-contract matrix: every source kind holds the same table
// T(id, g, v) — matrixRows rows, enough for a hit or a mapped CSV scan to
// go morsel-parallel — and every (cache state, executor) pair must give
// the same answers while the scan counters move by exactly one per scan.
const matrixRows = 9000

func matrixRow(i int) (id, g int64, v float64) {
	return int64(i), int64(i % 7), float64(i%100) / 2 // halves: float sums are exact in any order
}

// matrixCleanMax is the cleaners' bound on v (rows above it are dropped
// or clamped) and matrixCleanMaxG their bound on g (larger g is nulled).
const (
	matrixCleanMax  = 40
	matrixCleanMaxG = 5
)

func matrixSchema() *sdg.Type {
	return sdg.Bag(sdg.Record(
		sdg.Attr{Name: "id", Type: sdg.Int},
		sdg.Attr{Name: "g", Type: sdg.Int},
		sdg.Attr{Name: "v", Type: sdg.Float},
	))
}

type matrixQuery struct {
	name, text string
	scans      int64
}

var matrixQueries = []matrixQuery{
	{"filtered-sum", `for { t <- T, t.g > 3 } yield sum t.v`, 1},
	{"group-by", `for { t <- T } group by { g := t.g } agg { n := sum 1, s := sum t.v } yield list (g := g, n := n, s := s) order by g`, 1},
	{"top-k", `for { t <- T } yield list (id := t.id, v := t.v) order by t.v desc, t.id limit 5`, 1},
	{"self-join", `for { a <- T, b <- T, a.id = b.id, a.g = 1 } yield count a`, 2},
	{"count-star", `for { t <- T } yield sum 1`, 1},
	{"whole-records", `for { t <- T } yield list t order by t.id limit 5`, 1},
}

// matrixKind registers T over one plug-in; view kinds never cache and
// cleaned ones answer over what their cleaner leaves of each row: clean
// maps a row's g and v to the cleaned ones (g < 0: nulled) and says
// whether the row is kept at all (nil: not cleaned).
type matrixKind struct {
	name     string
	view     bool
	clean    func(g int64, v float64) (int64, float64, bool)
	register func(t *testing.T, e *Engine)
}

// cleaned registers T with file and attaches a cleaner of rule to it.
func cleaned(file func(*testing.T, *Engine), rule clean.Rule) func(*testing.T, *Engine) {
	return func(t *testing.T, e *Engine) {
		file(t, e)
		if err := e.AttachCleaner("T", clean.New(rule)); err != nil {
			t.Fatal(err)
		}
	}
}

func skipAboveMax(g int64, v float64) (int64, float64, bool) { return g, v, v <= matrixCleanMax }

func matrixKinds(t *testing.T) []matrixKind {
	dir := t.TempDir()
	write := func(name string, fill func(sb *strings.Builder)) string {
		var sb strings.Builder
		fill(&sb)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	csvPath := write("t.csv", func(sb *strings.Builder) {
		sb.WriteString("id,g,v\n")
		for i := 0; i < matrixRows; i++ {
			id, g, v := matrixRow(i)
			fmt.Fprintf(sb, "%d,%d,%.1f\n", id, g, v)
		}
	})
	jsonPath := write("t.json", func(sb *strings.Builder) {
		sb.WriteByte('[')
		for i := 0; i < matrixRows; i++ {
			id, g, v := matrixRow(i)
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(sb, `{"id": %d, "g": %d, "v": %.1f}`, id, g, v)
		}
		sb.WriteByte(']')
	})
	var rows [][]values.Value
	for i := 0; i < matrixRows; i++ {
		id, g, v := matrixRow(i)
		rows = append(rows, []values.Value{values.NewInt(id), values.NewInt(g), values.NewFloat(v)})
	}
	xlsPath := filepath.Join(dir, "t.vxls")
	if err := rawxls.Write(xlsPath, &rawxls.Sheet{
		ColNames: []string{"id", "g", "v"},
		ColTypes: []rawxls.ColType{rawxls.ColInt, rawxls.ColInt, rawxls.ColFloat},
	}, rows); err != nil {
		t.Fatal(err)
	}
	arrPath := filepath.Join(dir, "t.varr")
	if err := rawarr.Write(arrPath, &rawarr.Header{
		Dims:       []int{matrixRows},
		FieldNames: []string{"g", "v"},
		FieldTypes: []rawarr.FieldType{rawarr.FieldInt, rawarr.FieldFloat},
	}, func(cell int) ([]values.Value, error) { return rows[cell][1:], nil }); err != nil {
		t.Fatal(err)
	}
	arrSchema := sdg.Array([]sdg.Dim{{Name: "id", Type: sdg.Int}}, sdg.Record(
		sdg.Attr{Name: "g", Type: sdg.Int}, sdg.Attr{Name: "v", Type: sdg.Float}))
	file := func(format sdg.Format, path string, schema *sdg.Type) func(*testing.T, *Engine) {
		return func(t *testing.T, e *Engine) {
			if err := e.Register(sdg.DefaultDescription("T", format, path, schema)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return []matrixKind{
		{name: "csv", register: file(sdg.FormatCSV, csvPath, matrixSchema())},
		{name: "json", register: file(sdg.FormatJSON, jsonPath, matrixSchema())},
		{name: "xls", register: file(sdg.FormatXLS, xlsPath, matrixSchema())},
		{name: "array", register: file(sdg.FormatArray, arrPath, arrSchema)},
		{name: "slice-view", view: true, register: func(t *testing.T, e *Engine) {
			recs := make([]values.Value, len(rows))
			for i, r := range rows {
				recs[i] = values.NewRecord(values.Field{Name: "id", Val: r[0]}, values.Field{Name: "g", Val: r[1]}, values.Field{Name: "v", Val: r[2]})
			}
			desc := sdg.DefaultDescription("T", sdg.FormatTable, "", matrixSchema())
			if err := e.RegisterSource(desc, &algebra.SliceSource{SrcName: "T", Rows: recs}); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "cleaned-csv", clean: skipAboveMax, register: cleaned(file(sdg.FormatCSV, csvPath, matrixSchema()),
			clean.Rule{Attr: "v", Policy: clean.SkipRow, Max: clean.Float(matrixCleanMax)})},
		{name: "cleaned-csv-null", clean: func(g int64, v float64) (int64, float64, bool) {
			if g > matrixCleanMaxG {
				g = -1
			}
			return g, v, true
		}, register: cleaned(file(sdg.FormatCSV, csvPath, matrixSchema()),
			clean.Rule{Attr: "g", Policy: clean.NullField, Max: clean.Float(matrixCleanMaxG)})},
		{name: "cleaned-csv-nearest", clean: func(g int64, v float64) (int64, float64, bool) {
			return g, min(v, matrixCleanMax), true
		}, register: cleaned(file(sdg.FormatCSV, csvPath, matrixSchema()),
			clean.Rule{Attr: "v", Policy: clean.Nearest, Max: clean.Float(matrixCleanMax)})},
		{name: "cleaned-json", clean: skipAboveMax, register: cleaned(file(sdg.FormatJSON, jsonPath, matrixSchema()),
			clean.Rule{Attr: "v", Policy: clean.SkipRow, Max: clean.Float(matrixCleanMax)})},
	}
}

func TestScanContractMatrix(t *testing.T) {
	type state struct {
		name string
		opts Options
		// prepare puts the cache into the state before q runs.
		prepare func(t *testing.T, e *Engine, q string)
		hits    bool // every scan of q must be served by the cache
	}
	warm := func(t *testing.T, e *Engine, q string) {
		if _, err := e.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	states := []state{
		{name: "cold", prepare: func(_ *testing.T, e *Engine, _ string) { e.Caches().Invalidate("T") }},
		{name: "hot", prepare: warm, hits: true},
		{name: "encoded", opts: Options{CacheHotBytes: 1}, prepare: warm, hits: true},
		{name: "no-cache", opts: Options{DisableCaching: true}, prepare: warm},
	}
	type executor struct {
		name string
		set  func(*Options)
	}
	executors := []executor{
		{"reference", func(o *Options) { o.Mode = ModeReference }},
		{"jit-w1", func(o *Options) { o.Workers = 1 }},
		{"jit-w4", func(o *Options) { o.Workers = 4 }},
	}
	for _, kind := range matrixKinds(t) {
		kind := kind
		// Plain-Go oracles for the two scalar queries.
		var sum float64
		var count int64
		for i := 0; i < matrixRows; i++ {
			_, g, v := matrixRow(i)
			keep := true
			if kind.clean != nil {
				g, v, keep = kind.clean(g, v)
			}
			if !keep {
				continue
			}
			count++
			if g > 3 {
				sum += v
			}
		}
		t.Run(kind.name, func(t *testing.T) {
			want := map[string]values.Value{} // first answer of this kind, per query
			for _, st := range states {
				for _, ex := range executors {
					opts := st.opts
					ex.set(&opts)
					e := NewEngine(opts)
					kind.register(t, e)
					noCache := opts.DisableCaching || kind.view
					for _, q := range matrixQueries {
						label := fmt.Sprintf("%s/%s/%s", st.name, ex.name, q.name)
						st.prepare(t, e, q.text)
						before := e.StatsSnapshot()
						got, err := e.Query(q.text)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						after := e.StatsSnapshot()
						raw, hit := after.RawScans-before.RawScans, after.CacheScans-before.CacheScans
						switch {
						case raw+hit != q.scans:
							t.Errorf("%s: %d raw + %d cache scans counted for %d scans", label, raw, hit, q.scans)
						case noCache && hit != 0:
							t.Errorf("%s: a scan that may not cache counted %d cache scans", label, hit)
						case !noCache && st.hits && raw != 0:
							t.Errorf("%s: %d raw scans over a warm cache", label, raw)
						case !noCache && !st.hits && raw == 0:
							t.Errorf("%s: no raw scan over an empty cache", label)
						}
						if after.Memory.HarvestSkips != 0 {
							t.Errorf("%s: %d harvest skips without a memory budget", label, after.Memory.HarvestSkips)
						}
						if w, ok := want[q.name]; !ok {
							want[q.name] = got
						} else if !values.Equal(got, w) {
							t.Errorf("%s = %v, want %v", label, got, w)
						}
						if q.name == "filtered-sum" && got.Float() != sum {
							t.Errorf("%s = %v, oracle %v", label, got, sum)
						}
						if q.name == "count-star" && got.Int() != count {
							t.Errorf("%s = %v, oracle %v", label, got, count)
						}
						if q.name == "whole-records" && (got.Len() != 5 || got.Elems()[4].Len() != 3 || got.Elems()[4].MustGet("id").Int() != 4) {
							t.Errorf("%s = %v, want the records of ids 0-4", label, got)
						}
					}
					// (The cold state ends on an Invalidate followed, for a mapped
					// CSV file under parallel workers, by a raw range scan — which
					// does not promote.)
					entry, cached := e.Caches().Peek("T", cache.LayoutColumns)
					switch {
					case noCache && cached:
						t.Errorf("%s/%s: a scan that may not cache left an entry", st.name, ex.name)
					case st.hits && !noCache && !cached:
						t.Errorf("%s/%s: no columnar entry after %d queries", st.name, ex.name, len(matrixQueries))
					case cached && entry.Encoded() != (opts.CacheHotBytes > 0):
						t.Errorf("%s/%s: entry encoded = %v with hot bytes %d", st.name, ex.name, entry.Encoded(), opts.CacheHotBytes)
					}
				}
			}
		})
	}
}

// TestScanSpans pins what `bench --trace 1` and /explain analyze read off
// a scan: one `scan` span per scan with source, mode and — by path —
// harvest or range, and the positional-map build the cold scan paid for.
func TestScanSpans(t *testing.T) {
	kinds := matrixKinds(t)
	type span struct {
		attrs map[string]any
		built bool
	}
	scan := func(e *Engine, q string) span {
		t.Helper()
		tr := trace.New("t", "test")
		if _, err := e.QueryCtx(trace.WithTracer(context.Background(), tr), q); err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		var out span
		n := 0
		tr.Snapshot().Walk(func(sn *trace.SpanNode) {
			switch sn.Name {
			case "scan":
				out.attrs = sn.Attrs
				n++
				if sn.Rows != matrixRows {
					t.Errorf("scan span of %q counted %d rows", q, sn.Rows)
				}
			case "posmap_build":
				out.built = true
			}
		})
		if n != 1 {
			t.Fatalf("%q recorded %d scan spans", q, n)
		}
		return out
	}
	check := func(step string, got span, built bool, want map[string]any) {
		t.Helper()
		if got.built != built {
			t.Errorf("%s: posmap_build recorded = %v, want %v", step, got.built, built)
		}
		for _, k := range []string{"source", "mode", "harvest", "range"} {
			if fmt.Sprint(got.attrs[k]) != fmt.Sprint(want[k]) {
				t.Errorf("%s: scan attr %s = %v, want %v (all: %v)", step, k, got.attrs[k], want[k], got.attrs)
			}
		}
	}
	q := matrixQueries[0].text
	for _, tc := range []struct {
		opts       Options
		cold, warm map[string]any
	}{
		{Options{Workers: 1},
			map[string]any{"source": "T", "mode": "raw", "harvest": true},
			map[string]any{"source": "T", "mode": "cache"}},
		{Options{Workers: 4},
			map[string]any{"source": "T", "mode": "raw", "harvest": true},
			map[string]any{"source": "T", "mode": "cache", "range": true}},
		{Options{Workers: 4, CacheHotBytes: 1},
			map[string]any{"source": "T", "mode": "raw", "harvest": true},
			map[string]any{"source": "T", "mode": "cache-encoded", "range": true}},
		{Options{Workers: 4, DisableCaching: true},
			map[string]any{"source": "T", "mode": "raw", "harvest": false},
			map[string]any{"source": "T", "mode": "raw", "range": true}}, // the posmap now serves ranges
	} {
		e := NewEngine(tc.opts)
		kinds[0].register(t, e) // csv
		step := fmt.Sprintf("%+v", tc.opts)
		check(step+" cold", scan(e, q), true, tc.cold)
		check(step+" warm", scan(e, q), false, tc.warm)
	}
	// A cleaned CSV scans like any other: typed and harvested on its first
	// touch, then from raw ranges of its positional map, each morsel
	// cleaned on its own.
	nearest := kinds[slices.IndexFunc(kinds, func(k matrixKind) bool { return k.name == "cleaned-csv-nearest" })]
	for _, opts := range []Options{{Workers: 4, DisableCaching: true}, {Workers: 4}} {
		e := NewEngine(opts)
		nearest.register(t, e)
		step := fmt.Sprintf("cleaned %+v", opts)
		check(step+" cold", scan(e, q), true, map[string]any{"source": "T", "mode": "raw", "harvest": !opts.DisableCaching})
		warm := map[string]any{"source": "T", "mode": "raw", "range": true}
		if !opts.DisableCaching {
			warm["mode"] = "cache"
		}
		check(step+" warm", scan(e, q), false, warm)
	}
	// A reference-mode whole-record scan is the batch scan of every
	// attribute; an open-schema source streams its objects raw, unharvested.
	whole := `for { t <- T } yield count t`
	e := NewEngine(Options{Mode: ModeReference})
	kinds[0].register(t, e) // csv
	check("reference whole-record cold", scan(e, whole), true, map[string]any{"source": "T", "mode": "raw", "harvest": true})
	check("reference whole-record warm", scan(e, whole), false, map[string]any{"source": "T", "mode": "cache"})
	open := writeOpenJSON(t, matrixRows)
	for _, mode := range []ExecMode{ModeReference, ModeJIT} {
		e := NewEngine(Options{Mode: mode})
		registerOpenJSON(t, e, open)
		for _, pass := range []string{"cold", "warm"} {
			check(fmt.Sprintf("%s open-schema %s", mode, pass), scan(e, whole), false, map[string]any{"source": "T", "mode": "raw", "harvest": false})
		}
	}
}

// writeOpenJSON writes n JSON objects of no one shape — keys absent or in
// another order, nested values — the data an open schema exists for.
func writeOpenJSON(t *testing.T, n int) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteByte('[')
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		switch i % 3 {
		case 0:
			fmt.Fprintf(&sb, `{"id": %d, "g": %d}`, i, i%7)
		case 1:
			fmt.Fprintf(&sb, `{"g": %d, "id": %d, "tags": ["a", "b"]}`, i%7, i)
		default:
			fmt.Fprintf(&sb, `{"id": %d, "geo": {"x": %d, "ys": [1, 2]}}`, i, i)
		}
	}
	sb.WriteByte(']')
	path := filepath.Join(t.TempDir(), "open.json")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// registerOpenJSON registers the JSON file at path as T without a schema.
func registerOpenJSON(t *testing.T, e *Engine, path string) {
	t.Helper()
	if err := e.Register(sdg.DefaultDescription("T", sdg.FormatJSON, path, sdg.Bag(sdg.Unknown))); err != nil {
		t.Fatal(err)
	}
}

// TestWholeRecordScanOneEntry: a whole-record query and a projected one
// over the same source share its one cache entry, in either order and
// under either executor, and both are then served from it.
func TestWholeRecordScanOneEntry(t *testing.T) {
	whole := `for { t <- T } yield list t order by t.id limit 5`
	projected := `for { t <- T, t.g > 3 } yield sum t.v`
	for _, kind := range matrixKinds(t) {
		if kind.view {
			continue
		}
		for _, mode := range []ExecMode{ModeReference, ModeJIT} {
			for i, order := range [][]string{{whole, projected}, {projected, whole}} {
				label := fmt.Sprintf("%s/%s/%s first", kind.name, mode, []string{"whole", "projected"}[i])
				e := NewEngine(Options{Mode: mode})
				kind.register(t, e)
				var first []values.Value
				for _, q := range order {
					got, err := e.Query(q)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					first = append(first, got)
				}
				if n := e.Caches().Stats().Entries; n != 1 {
					t.Fatalf("%s: %d cache entries, want 1", label, n)
				}
				before := e.StatsSnapshot()
				for i, q := range order {
					if got, err := e.Query(q); err != nil || !values.Equal(got, first[i]) {
						t.Fatalf("%s: %s warm = %v (%v), want %v", label, q, got, err, first[i])
					}
				}
				if after := e.StatsSnapshot(); after.RawScans != before.RawScans || after.Cache.Entries != 1 {
					t.Fatalf("%s: %d raw scans and %d entries once both queries ran",
						label, after.RawScans-before.RawScans, after.Cache.Entries)
				}
			}
		}
	}
}

// TestWholeRecordOpenSchemaStreamsRaw: the objects of a JSON source
// registered without a schema have no columnar form, so every executor
// streams them whole from the raw reader — the reference executor's
// answer, one raw scan a run, no cache entry.
func TestWholeRecordOpenSchemaStreamsRaw(t *testing.T) {
	path := writeOpenJSON(t, 300)
	q := `for { t <- T } yield list t`
	var want values.Value
	for _, opts := range []Options{{Mode: ModeReference}, {Workers: 1}, {Workers: 4}} {
		e := NewEngine(opts)
		registerOpenJSON(t, e, path)
		for run := 0; run < 2; run++ {
			label := fmt.Sprintf("%s/w%d run %d", opts.Mode, opts.Workers, run)
			before := e.StatsSnapshot()
			got, err := e.Query(q)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			after := e.StatsSnapshot()
			if raw, hit := after.RawScans-before.RawScans, after.CacheScans-before.CacheScans; raw != 1 || hit != 0 {
				t.Errorf("%s: %d raw and %d cache scans, want one raw scan", label, raw, hit)
			}
			if n := after.Cache.Entries; n != 0 {
				t.Errorf("%s: %d cache entries over an open schema", label, n)
			}
			if want.Kind() != values.KindList {
				want = got
				objs := want.Elems()
				if len(objs) != 300 || objs[1].Fields()[0].Name != "g" || objs[2].MustGet("geo").Kind() != values.KindRecord {
					t.Fatalf("%s: reference answer lost the objects' shapes: %v", label, objs[:3])
				}
			} else if !values.Equal(got, want) {
				t.Errorf("%s = %v, want the reference answer %v", label, got, want)
			}
		}
	}
}

// hookSource is a record-only plug-in that calls hook before yielding row
// at.
type hookSource struct {
	n, at int
	hook  func()
}

func (s *hookSource) Name() string { return "H" }

func (s *hookSource) Iterate(fields []string, yield func(values.Value) error) error {
	for i := 0; i < s.n; i++ {
		if i == s.at {
			s.hook()
		}
		rec := values.NewRecord(values.Field{Name: "id", Val: values.NewInt(int64(i))})
		if err := yield(rec); err != nil {
			return err
		}
	}
	return nil
}

// registerPlugin publishes src the way Register publishes a file reader:
// a cacheable (non-view) entry scanned through its lifted batch view.
func registerPlugin(e *Engine, name string, src algebra.Source, schema *sdg.Type) {
	desc := sdg.DefaultDescription(name, sdg.FormatTable, "", schema)
	e.mu.Lock()
	e.sources[name] = &sourceEntry{desc: desc, src: src, raw: jit.Lift(src)}
	e.mu.Unlock()
}

// TestScanCancelLiftedColdScan: a query cancelled in the middle of the
// cold scan of a record-only plug-in stops at the next batch boundary with
// the context's error, and the partial harvest is not installed.
func TestScanCancelLiftedColdScan(t *testing.T) {
	for _, mode := range []ExecMode{ModeJIT, ModeReference} {
		ctx, cancel := context.WithCancel(context.Background())
		const n = 10 * vec.DefaultBatchSize
		src := &hookSource{n: n, at: n / 2, hook: cancel}
		e := NewEngine(Options{Mode: mode})
		registerPlugin(e, "H", src, sdg.Bag(sdg.Record(sdg.Attr{Name: "id", Type: sdg.Int})))
		_, err := e.QueryCtx(ctx, `for { h <- H } yield sum h.id`)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled cold scan returned %v", mode, err)
		}
		if _, ok := e.Caches().Peek("H", cache.LayoutColumns); ok {
			t.Fatalf("%s: a cancelled scan installed its partial harvest", mode)
		}
		if st := e.StatsSnapshot(); st.RawScans != 1 || st.CacheScans != 0 {
			t.Fatalf("%s: scans after a cancelled cold scan = %d raw, %d cache", mode, st.RawScans, st.CacheScans)
		}
		// The same engine answers, and caches, once nobody cancels.
		src.hook = func() {}
		got, err := e.Query(`for { h <- H } yield sum h.id`)
		if err != nil || got.Int() != n*(n-1)/2 {
			t.Fatalf("%s: after the cancelled scan: %v, %v", mode, got, err)
		}
		if _, ok := e.Caches().Peek("H", cache.LayoutColumns); !ok {
			t.Fatalf("%s: the completed scan did not harvest", mode)
		}
		cancel()
	}
}

// TestScanShedsLiftedHarvestUnderPressure: with tracked memory past the
// high-water mark — or the budget too small for the harvest itself — the
// scan of a lifted JSON source still answers, the cache does not grow and
// the shed harvest is counted once.
func TestScanShedsLiftedHarvestUnderPressure(t *testing.T) {
	kinds := matrixKinds(t)
	q := matrixQueries[0]
	const budget = 1 << 20
	for _, tc := range []struct {
		name   string
		budget int64
		held   int64 // reserved by "other queries" before the scan
	}{
		{"past the high-water mark", budget, budget * 4 / 5},
		{"harvest overruns the budget", 16 << 10, 0},
	} {
		e := NewEngine(Options{MemoryBudgetBytes: tc.budget})
		kinds[1].register(t, e) // json
		if err := e.mem.reserve(tc.held); err != nil {
			t.Fatal(err)
		}
		got, err := e.Query(q.text)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ref := NewEngine(Options{})
		kinds[1].register(t, ref)
		want, err := ref.Query(q.text)
		if err != nil || !values.Equal(got, want) {
			t.Fatalf("%s: shed scan answered %v, want %v (%v)", tc.name, got, want, err)
		}
		st := e.StatsSnapshot()
		if st.Memory.HarvestSkips != 1 || st.RawScans != 1 {
			t.Fatalf("%s: harvest skips = %d, raw scans = %d", tc.name, st.Memory.HarvestSkips, st.RawScans)
		}
		if _, ok := e.Caches().Peek("T", cache.LayoutColumns); ok {
			t.Fatalf("%s: a shed harvest still installed an entry", tc.name)
		}
		if st.Memory.TrackedBytes != tc.held {
			t.Fatalf("%s: %d bytes still tracked after the scan, want %d", tc.name, st.Memory.TrackedBytes, tc.held)
		}
	}
}

// TestScanReferenceModeHarvestsTypedColumns: the record view is the batch
// scan lowered, so a reference-mode engine leaves the typed entry a JIT
// engine would — not boxed values.
func TestScanReferenceModeHarvestsTypedColumns(t *testing.T) {
	e := newEngine(t, Options{Mode: ModeReference})
	if _, err := e.Query(`for { p <- Patients, p.age > 30 } yield sum p.score`); err != nil {
		t.Fatal(err)
	}
	entry, ok := e.Caches().Peek("Patients", cache.LayoutColumns)
	if !ok {
		t.Fatal("reference-mode scan harvested nothing")
	}
	if age, score := entry.Cols["age"], entry.Cols["score"]; age.Tag != vec.Int64 || score.Tag != vec.Float64 {
		t.Fatalf("reference-mode harvest: age %v, score %v — want typed vectors", age.Tag, score.Tag)
	}
}

// TestAttachCleanerBesideScans: AttachCleaner publishes a fresh catalog
// entry instead of rewriting the one in-flight scans hold. Run with -race.
func TestAttachCleanerBesideScans(t *testing.T) {
	e := newEngine(t, Options{})
	// The attaching goroutine paces itself with a query over the other
	// source, so its attaches drift across every phase of the scans below.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 60; i++ {
			if err := e.AttachCleaner("Patients", clean.New()); err != nil {
				t.Error(err)
				return
			}
			if _, err := e.Query(`for { r <- Regions } yield count r`); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for attaching := true; attaching; {
		select {
		case <-done:
			attaching = false
		default:
		}
		e.Caches().Invalidate("Patients") // a miss: the scan reads the entry's plug-in
		got, err := e.Query(`for { p <- Patients } yield count p`)
		if err != nil || got.Int() != 50 {
			t.Fatalf("query beside AttachCleaner: %v, %v", got, err)
		}
	}
}
