package jit

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"vida/internal/algebra"
	"vida/internal/mcl"
	"vida/internal/sdg"
	"vida/internal/trace"
	"vida/internal/values"
	"vida/internal/vec"
)

// countingSource wraps a SliceSource and counts Iterate passes and rows
// yielded, so tests can assert the single-scan property of grouped
// aggregation.
type countingSource struct {
	algebra.SliceSource
	iterations int
	rowsRead   int
}

func (s *countingSource) Iterate(fields []string, yield func(values.Value) error) error {
	s.iterations++
	return s.SliceSource.Iterate(fields, func(v values.Value) error {
		s.rowsRead++
		return yield(v)
	})
}

func groupTestCatalog() algebra.MapCatalog {
	sales := []values.Value{
		rec("region", "east", "amount", 100.0, "units", 3),
		rec("region", "west", "amount", 50.0, "units", 1),
		rec("region", "east", "amount", 25.0, "units", 2),
		rec("region", "north", "amount", 70.0, "units", 4),
		rec("region", "west", "amount", 30.0, "units", 5),
		rec("region", "east", "amount", 10.0, "units", 1),
		rec("region", values.Null, "amount", 5.0, "units", 2),
		rec("region", values.Null, "amount", 7.0, "units", 3),
		rec("region", "north", "amount", values.Null, "units", 2),
	}
	return algebra.MapCatalog{
		"Sales": &algebra.SliceSource{SrcName: "Sales", Rows: sales},
		"Empty": &algebra.SliceSource{SrcName: "Empty"},
	}
}

func groupPlanFor(t *testing.T, src string, cat algebra.MapCatalog) *algebra.Reduce {
	t.Helper()
	e, err := mcl.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	sources := map[string]bool{}
	for k := range cat {
		sources[k] = true
	}
	plan, err := algebra.Translate(mcl.Normalize(e), sources)
	if err != nil {
		t.Fatalf("translate %q: %v", src, err)
	}
	return plan
}

var groupedQueries = []string{
	// Count / sum / avg / min / max, including a null aggregate input
	// (north has one null amount: skipped by sum/avg/min/max, counted by
	// count) and null group keys (two null regions share one group).
	`for { s <- Sales } group by { r := s.region } agg { n := count s } yield bag (r := r, n := n)`,
	`for { s <- Sales } group by { r := s.region } agg { t := sum s.amount } yield bag (r := r, t := t)`,
	`for { s <- Sales } group by { r := s.region } agg { a := avg s.amount } yield bag (r := r, a := a)`,
	`for { s <- Sales } group by { r := s.region } agg { lo := min s.amount, hi := max s.amount } yield bag (r := r, lo := lo, hi := hi)`,
	// Multi-key grouping with a computed key.
	`for { s <- Sales } group by { r := s.region, big := s.units > 2 } agg { n := count s } yield bag (r := r, big := big, n := n)`,
	// Integer sums stay integers; mixed int+null groups.
	`for { s <- Sales } group by { r := s.region } agg { u := sum s.units } yield bag (r := r, u := u)`,
	// HAVING filters groups, head computes over group scope.
	`for { s <- Sales } group by { r := s.region } agg { t := sum s.amount, n := count s } having n > 1 yield bag (r := r, per := t / n)`,
	// Qualifier filter before grouping (single-scan filter + fold).
	`for { s <- Sales, s.units > 1 } group by { r := s.region } agg { t := sum s.amount } yield bag (r := r, t := t)`,
	// Collection-monoid aggregate (boxed Collector fallback).
	`for { s <- Sales } group by { r := s.region } agg { xs := list s.units } yield bag (r := r, xs := xs)`,
	// Grouped ORDER BY / LIMIT over group-scope names.
	`for { s <- Sales } group by { r := s.region } agg { t := sum s.amount } yield list (r := r, t := t) order by t desc limit 2`,
	// Single group (constant key) and whole-table aggregate.
	`for { s <- Sales } group by { one := 1 } agg { n := count s, t := sum s.amount } yield list (n := n, t := t)`,
	// Empty input: no groups, empty result.
	`for { s <- Empty } group by { r := s.region } agg { n := count s } yield bag (r := r, n := n)`,
	// Set head over groups.
	`for { s <- Sales } group by { r := s.region } agg { n := count s } yield set (n := n)`,
}

// TestGroupedExecutorEquivalence pins all three executors to the
// interpreter's grouped semantics: same groups (nulls equal as keys),
// same per-monoid null handling, same first-occurrence order.
func TestGroupedExecutorEquivalence(t *testing.T) {
	cat := groupTestCatalog()
	for _, q := range groupedQueries {
		plan := groupPlanFor(t, q, cat)
		want, err := algebra.Reference{}.Run(plan, cat)
		if err != nil {
			t.Fatalf("reference %q: %v", q, err)
		}
		gotJIT, err := Executor{}.Run(plan, cat)
		if err != nil {
			t.Fatalf("jit %q: %v", q, err)
		}
		if !values.Equal(gotJIT, want) {
			t.Fatalf("jit diverged on %q:\njit: %v\nref: %v", q, gotJIT, want)
		}
	}
}

// TestGroupedSingleScan is the core acceptance property: a grouped
// aggregate reads its source exactly once, no matter how many groups
// come out.
func TestGroupedSingleScan(t *testing.T) {
	rows := make([]values.Value, 0, 1000)
	for i := 0; i < 1000; i++ {
		rows = append(rows, rec("k", i%37, "v", i))
	}
	src := &countingSource{SliceSource: algebra.SliceSource{SrcName: "T", Rows: rows}}
	cat := algebra.MapCatalog{"T": src}
	plan := groupPlanFor(t, `for { t <- T } group by { k := t.k } agg { s := sum t.v } yield bag (k := k, s := s)`, cat)
	got, err := Executor{Opts: Options{Workers: 1}}.Run(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Elems()) != 37 {
		t.Fatalf("got %d groups, want 37", len(got.Elems()))
	}
	if src.iterations != 1 {
		t.Fatalf("grouped aggregate iterated the source %d times, want exactly 1", src.iterations)
	}
	if src.rowsRead != 1000 {
		t.Fatalf("read %d rows, want 1000", src.rowsRead)
	}
}

// TestGroupedManyGroups pushes past 64k distinct keys so the
// open-addressing table grows through several doublings, and checks
// count totals survive the rehashes.
func TestGroupedManyGroups(t *testing.T) {
	const n = 70000
	rows := make([]values.Value, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, rec("k", i, "v", 1))
	}
	cat := algebra.MapCatalog{"T": &algebra.SliceSource{SrcName: "T", Rows: rows}}
	plan := groupPlanFor(t, `for { t <- T } group by { k := t.k } agg { n := count t } yield bag (n := n)`, cat)
	got, err := Executor{}.Run(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Elems()) != n {
		t.Fatalf("got %d groups, want %d", len(got.Elems()), n)
	}
	for _, e := range got.Elems() {
		if c, ok := e.Get("n"); !ok || c.Int() != 1 {
			t.Fatalf("group count %v, want 1", c)
		}
	}
}

// TestGroupedParallelDeterminism runs the same grouped list query at
// several worker counts over a range-capable scan large enough to go
// morsel-parallel and requires bit-identical results: partials merge in
// morsel order, so group order (and the collected list) is the serial
// first-occurrence order regardless of scheduling. The aggregates cover
// every accumulator kind — count, sum, avg, min/max and the collecting
// fallback — and the run must really merge partials.
func TestGroupedParallelDeterminism(t *testing.T) {
	const n = 50000
	k := vec.Col{Tag: vec.Int64}
	v := vec.Col{Tag: vec.Float64, Nulls: make([]bool, n)}
	for i := 0; i < n; i++ {
		k.Ints = append(k.Ints, int64((i*7919)%101))
		v.Floats = append(v.Floats, float64(i%997))
		v.Nulls[i] = i%13 == 0
	}
	rowType := sdg.Bag(sdg.Record(sdg.Attr{Name: "k", Type: sdg.Int}, sdg.Attr{Name: "v", Type: sdg.Float}))
	cat := &schemaCat{
		MapCatalog: algebra.MapCatalog{"T": &diffTable{name: "T", fields: []string{"k", "v"}, cols: []vec.Col{k, v}, n: n}},
		descs:      map[string]*sdg.Description{"T": {Name: "T", Format: sdg.FormatTable, Schema: rowType}},
	}
	q := `for { t <- T } group by { k := t.k }
	      agg { c := count t, s := sum t.v, a := avg t.v, lo := min t.v, hi := max t.v, vs := list t.v }
	      yield list (k := k, c := c, s := s, a := a, lo := lo, hi := hi, vs := vs)`
	plan := planFor2(t, q, cat)
	want, err := algebra.Reference{}.Run(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := (Executor{Opts: Options{Workers: 1}}).Run(plan, cat); err != nil || !values.Equal(got, want) {
		t.Fatalf("serial jit diverged from the reference (%v)", err)
	}
	for _, workers := range []int{2, 4, 8} {
		var ct Counters
		got, err := Executor{Opts: Options{Workers: workers, ParallelThreshold: 1, Counters: &ct}}.Run(plan, cat)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !values.Equal(got, want) {
			t.Fatalf("workers=%d diverged:\ngot:  %v\nwant: %v", workers, got, want)
		}
		if ct.GroupPartialMerges.Load() == 0 {
			t.Fatalf("workers=%d: no partial merges; the fold ran serially", workers)
		}
	}
}

// TestGroupedMemoryBudget checks the group table charges the query
// budget and a high-cardinality GROUP BY aborts with the caller's
// budget error instead of growing without bound.
func TestGroupedMemoryBudget(t *testing.T) {
	const n = 100000
	rows := make([]values.Value, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, rec("k", i, "v", i))
	}
	cat := algebra.MapCatalog{"T": &algebra.SliceSource{SrcName: "T", Rows: rows}}
	plan := groupPlanFor(t, `for { t <- T } group by { k := t.k } agg { s := sum t.v } yield bag (k := k, s := s)`, cat)
	budgetErr := errors.New("budget exceeded")
	var used int64
	opts := Options{
		Workers: 1,
		MemReserve: func(delta int64) error {
			used += delta
			if used > 1<<19 { // 512 KiB
				return budgetErr
			}
			return nil
		},
	}
	_, err := Executor{Opts: opts}.Run(plan, cat)
	if !errors.Is(err, budgetErr) {
		t.Fatalf("got err %v, want budget error", err)
	}
}

// TestFoldChargesRetainedInputs: an ungrouped fold charges the query
// budget for the inputs it retains — every value an array or a median
// keeps, serially and from morsel partials — and nothing for a fold
// whose state stays O(1).
func TestFoldChargesRetainedInputs(t *testing.T) {
	const rows = 1200
	cat := foldDiffCatalog(rows)
	for _, workers := range []int{1, 4} {
		for q, retains := range map[string]bool{
			`for { r <- R } yield array r.i`:  true,
			`for { r <- R } yield median r.g`: true,
			`for { r <- R } yield sum r.i`:    false,
			`for { r <- R } yield avg r.g`:    false,
			`for { r <- R } yield count r.n`:  false,
		} {
			var used atomic.Int64
			opts := Options{Workers: workers, ParallelThreshold: 1, BatchSize: 64,
				MemReserve: func(delta int64) error { used.Add(delta); return nil }}
			if _, err := (Executor{Opts: opts}).Run(planFor2(t, q, cat), cat); err != nil {
				t.Fatalf("workers=%d %s: %v", workers, q, err)
			}
			if got := used.Load(); retains && got < rows*approxValueBytes(values.NewInt(0)) || !retains && got != 0 {
				t.Fatalf("workers=%d %s charged %d bytes (retains its inputs: %v)", workers, q, got, retains)
			}
		}
	}
}

// TestGroupedStream runs a grouped plan into a sink (RunStream) and
// checks it matches the collected result.
func TestGroupedStream(t *testing.T) {
	cat := groupTestCatalog()
	q := `for { s <- Sales } group by { r := s.region } agg { t := sum s.amount, n := count s } having n > 1 yield list (r := r, t := t)`
	plan := groupPlanFor(t, q, cat)
	want, err := algebra.Reference{}.Run(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	var got []values.Value
	if err := (Executor{}).RunStream(context.Background(), plan, cat, func(chunk []values.Value) error {
		got = append(got, chunk...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !values.Equal(values.NewList(got...), want) {
		t.Fatalf("stream diverged:\ngot:  %v\nwant: %v", values.NewList(got...), want)
	}
}

// TestGroupedTraceSpan asserts the grouped fold emits its span with the
// group-table attributes the explain/metrics surfaces consume.
func TestGroupedTraceSpan(t *testing.T) {
	cat := groupTestCatalog()
	plan := groupPlanFor(t, `for { s <- Sales } group by { r := s.region } agg { n := count s } yield bag (r := r, n := n)`, cat)
	tr := trace.New("q1", "query")
	_, err := Executor{Opts: Options{Trace: tr.Root()}}.Run(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	var fold *trace.SpanNode
	var walk func(n *trace.SpanNode)
	walk = func(n *trace.SpanNode) {
		if n == nil {
			return
		}
		if n.Name == "fold" && n.Attrs["kind"] == "groupagg" {
			fold = n
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tr.Snapshot())
	if fold == nil {
		t.Fatalf("no fold span with kind=groupagg recorded")
	}
	if g := fold.Attrs["groups"]; fmt.Sprint(g) != "4" {
		t.Fatalf("groups attr = %v, want 4", g)
	}
	if _, ok := fold.Attrs["table_bytes"]; !ok {
		t.Fatalf("missing table_bytes attr")
	}
}
