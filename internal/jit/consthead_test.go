package jit

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vida/internal/algebra"
	"vida/internal/mcl"
	"vida/internal/rawcsv"
	"vida/internal/sdg"
	"vida/internal/values"
	"vida/internal/vec"
)

// constHeads are the constant aggregate inputs under monoid m: int and
// float literals — 0.1 is inexact in binary, so its sums round once per
// row — bound parameters of both kinds, arithmetic on a bound parameter
// and, except under sum and avg (a type error there), a string.
func constHeads(m string) []string {
	heads := []string{"1", "3", "2.5", "0.1", "$1", "$2", "$3", "($1 + 1)"}
	if m != "sum" && m != "avg" {
		heads = append(heads, `"x"`)
	}
	return heads
}

var constParams = map[string]values.Value{
	"1": values.NewInt(-7), "2": values.NewFloat(0.375), "3": values.NewFloat(0.1),
}

// identical reports whether a and b are the same value bit for bit: same
// kinds all the way down (int 2 is not float 2), floats with equal bits,
// collections element by element in order.
func identical(a, b values.Value) bool {
	return sameShape(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// mergeRounded is identical up to float rounding: a morsel-parallel fold
// adds its per-morsel partial sums in morsel order, so an inexact float
// sum rounds differently from the serial one — as any float column's
// does. Floats agree within a relative 1e-9.
func mergeRounded(a, b values.Value) bool {
	return sameShape(a, b, func(x, y float64) bool {
		return x == y || math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
	})
}

func sameShape(a, b values.Value, floatEq func(x, y float64) bool) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case values.KindFloat:
		return floatEq(a.Float(), b.Float())
	case values.KindRecord:
		af, bf := a.Fields(), b.Fields()
		if len(af) != len(bf) {
			return false
		}
		for i := range af {
			if af[i].Name != bf[i].Name || !sameShape(af[i].Val, bf[i].Val, floatEq) {
				return false
			}
		}
		return true
	case values.KindList, values.KindBag, values.KindSet:
		ae, be := a.Elems(), b.Elems()
		if len(ae) != len(be) {
			return false
		}
		for i := range ae {
			if !sameShape(ae[i], be[i], floatEq) {
				return false
			}
		}
		return true
	}
	return values.Equal(a, b)
}

// constExecutor is one executor a differential query runs on, and how
// its answer must relate to the reference executor's.
type constExecutor struct {
	name string
	ex   Executor
	same func(got, want values.Value) bool
}

// constExecutors are the executors every constant-aggregate query runs
// on; the serial one must be identical to the reference executor, the
// parallel one (partial folds merged in morsel order) mergeRounded.
var constExecutors = []constExecutor{
	{"serial", Executor{Opts: Options{Workers: 1}}, identical},
	{"parallel", Executor{Opts: Options{Workers: 4, ParallelThreshold: 1, BatchSize: 64}}, mergeRounded},
}

// checkConstQueries runs every query over cat on each executor (the
// constExecutors unless others are given), twice each (the cold and the
// posmap-served scan), against the reference.
func checkConstQueries(t *testing.T, cat *schemaCat, rows int, queries []string, executors ...constExecutor) {
	t.Helper()
	if executors == nil {
		executors = constExecutors
	}
	for _, q := range queries {
		plan := algebra.BindParams(planFor2(t, q, cat), constParams)
		want, err := algebra.Reference{}.Run(plan, cat)
		if err != nil {
			t.Fatalf("reference %q over %d rows: %v", q, rows, err)
		}
		for _, ce := range executors {
			for pass := 0; pass < 2; pass++ {
				got, err := ce.ex.Run(plan, cat)
				if err != nil {
					t.Fatalf("%s %q over %d rows: %v", ce.name, q, rows, err)
				}
				if !ce.same(got, want) {
					t.Fatalf("%s pass %d diverged on %q over %d rows:\ngot: %v\nref: %v", ce.name, pass, q, rows, got, want)
				}
			}
		}
	}
}

// TestConstantHeadFolds pins the constant-head scalar folds (COUNT(*)
// lowers to `sum 1`): for the constHeads under every scalar monoid, with and without a filter, the per-batch
// arithmetic agrees with the row-wise reference executor — bit for bit
// serially, `sum 0.1` included, and up to merge rounding
// morsel-parallel — over the cold and the posmap-served scan, and on an
// empty input.
func TestConstantHeadFolds(t *testing.T) {
	var queries []string
	for _, m := range []string{"count", "sum", "avg", "min", "max"} {
		for _, head := range constHeads(m) {
			queries = append(queries,
				fmt.Sprintf(`for { r <- R } yield %s %s`, m, head),
				fmt.Sprintf(`for { r <- R, r.score > 4 } yield %s %s`, m, head),
				fmt.Sprintf(`for { r <- R, r.score > 99 } yield %s %s`, m, head)) // no row survives
		}
	}
	for _, rows := range []int{0, 1, 5000} {
		cat, _ := csvCatalog(t, rows)
		checkConstQueries(t, cat, rows, queries)
	}
}

// parallelSame is mergeRounded where it can judge: an answer holding a
// NaN, which IEEE equality — and so mergeRounded — never accepts, must be
// identical instead.
func parallelSame(got, want values.Value) bool {
	if !mergeRounded(want, want) {
		return identical(got, want)
	}
	return mergeRounded(got, want)
}

// foldDiffCatalog serves R(i, g, n, f, s, t, m, b, z, zb) over rows rows,
// every other window boxed and a boxed window of one numeric kind typed:
// i an Int64 and g a Float64 column of inexact tenths, neither with
// nulls; n an Int64 and f a Float64 column with nulls; s a
// Float64 column with NaN and +Inf, t one with −0 and −Inf (one NaN
// source each, so a parallel NaN is the serial one bit for bit); m boxed
// ints and floats with nulls; b boxed bools with nulls; z and zb null
// throughout, typed and boxed.
func foldDiffCatalog(rows int) *schemaCat {
	names := []string{"i", "g", "n", "f", "s", "t", "m", "b", "z", "zb"}
	cols := []vec.Col{{Tag: vec.Int64}, {Tag: vec.Float64}, {Tag: vec.Int64}, {Tag: vec.Float64}, {Tag: vec.Float64},
		{Tag: vec.Float64}, {Tag: vec.Boxed}, {Tag: vec.Boxed}, {Tag: vec.Int64}, {Tag: vec.Boxed}}
	for r := 0; r < rows; r++ {
		unit := []float64{1, -1, 2, 0.5}[r%4]
		s, t := unit, unit
		switch {
		case r%97 == 0:
			s = math.NaN()
		case r%89 == 0:
			s = math.Inf(1)
		}
		switch {
		case r%83 == 0:
			t = math.Copysign(0, -1)
		case r%79 == 0:
			t = math.Inf(-1)
		}
		m := values.NewFloat(float64(r%40) + 0.5)
		if r%2 == 0 {
			m = values.NewInt(int64(2*(r%40) + 2))
		}
		if r%5 == 0 {
			m = values.Null
		}
		b := values.NewBool(r%7 != 3)
		if r%6 == 0 {
			b = values.Null
		}
		cols[0].AppendInt(int64((r*7919)%201 - 100))
		cols[1].AppendFloat(0.1 * float64(r%13+1))
		if r%3 == 0 {
			cols[2].AppendNull()
		} else {
			cols[2].AppendInt(int64(r%50 + 1))
		}
		if r%4 == 0 {
			cols[3].AppendNull()
		} else {
			cols[3].AppendFloat(1 + float64(r%7)*0.001)
		}
		cols[4].AppendFloat(s)
		cols[5].AppendFloat(t)
		cols[6].AppendValue(m)
		cols[7].AppendValue(b)
		cols[8].AppendNull()
		cols[9].AppendValue(values.Null)
	}
	types := []*sdg.Type{sdg.Int, sdg.Float, sdg.Int, sdg.Float, sdg.Float, sdg.Float, sdg.Float, sdg.Bool, sdg.Int, sdg.Int}
	attrs := make([]sdg.Attr, len(names))
	for c := range attrs {
		attrs[c] = sdg.Attr{Name: names[c], Type: types[c]}
	}
	return &schemaCat{
		MapCatalog: algebra.MapCatalog{"R": &diffTable{name: "R", fields: names, cols: cols, n: rows, boxOdd: true, narrow: true}},
		descs:      map[string]*sdg.Description{"R": {Name: "R", Format: sdg.FormatTable, Schema: sdg.Bag(sdg.Record(attrs...))}},
	}
}

// TestFoldDifferential runs every fold monoid over every head shape —
// typed Int64; typed Float64 with NaN, −0 and ±Inf; typed with nulls;
// boxed ints and floats mixed; numeric constants; an all-null input; a
// count over a head that can fail — with no filter, a filter and a
// filter no row passes, over 0 and 1200 rows, at batch sizes 1, 7 and
// 1024; sum, avg, min and max also in three groups. Serially every
// answer is the reference executor's bit for bit; morsel-parallel it
// agrees up to merge rounding. An ungrouped fold is the group table's
// one group, so this pins its typed, constant and boxed passes and its
// morsel-order merge.
func TestFoldDifferential(t *testing.T) {
	var queries []string
	add := func(m string, heads ...string) {
		for _, head := range heads {
			for _, filter := range []string{"", ", r.i > 0", ", r.i > 999"} {
				queries = append(queries, fmt.Sprintf(`for { r <- R%s } yield %s %s`, filter, m, head))
			}
		}
	}
	for _, m := range []string{"count", "sum", "avg", "min", "max", "prod", "median", "array"} {
		add(m, "r.i", "r.g", "r.n", "r.f", "r.s", "r.t", "r.m", "r.z", "r.zb", "3", "0.1")
	}
	add("and", "r.b", "r.zb", "true")
	add("or", "r.b", "r.zb", "false")
	add("count", "(r.i + 1)", "(r.n * 2)")
	// The same accumulators with several groups: typed windows of either
	// kind meet one group's best or sum.
	for _, m := range []string{"sum", "avg", "min", "max"} {
		for _, head := range []string{"r.i", "r.g", "r.n", "r.s", "r.t", "r.m"} {
			queries = append(queries, fmt.Sprintf(`for { r <- R, r.i > -60 } group by { k := r.i %% 3 } agg { a := %s %s } yield list (k := k, a := a)`, m, head))
		}
	}
	var executors []constExecutor
	for _, bs := range []int{1, 7, 1024} {
		executors = append(executors,
			constExecutor{fmt.Sprintf("serial/bs=%d", bs), Executor{Opts: Options{Workers: 1, BatchSize: bs}}, identical},
			constExecutor{fmt.Sprintf("parallel/bs=%d", bs), Executor{Opts: Options{Workers: 4, ParallelThreshold: 1, BatchSize: bs}}, parallelSame})
	}
	for _, rows := range []int{0, 1200} {
		checkConstQueries(t, foldDiffCatalog(rows), rows, queries, executors...)
	}
}

// TestConstantHeadStagesNoBoxedFold: `sum 1` must not fall back to the
// row-at-a-time boxed collector (the 14 ms warm COUNT(*) over 300k rows).
func TestConstantHeadStagesNoBoxedFold(t *testing.T) {
	cat, _ := csvCatalog(t, 100)
	var ct Counters
	opts := Options{Workers: 1, Counters: &ct}
	got, err := Executor{Opts: opts}.Run(planFor2(t, `for { r <- R } yield sum 1`, cat), cat)
	if err != nil || got.Int() != 100 {
		t.Fatalf("sum 1 = %v, %v", got, err)
	}
	if vectorized, boxed := ct.KernelsVectorized.Load(), ct.KernelsBoxed.Load(); vectorized == 0 || boxed != 0 {
		t.Fatalf("stages: %d vectorized, %d boxed; the constant head must stage as a kernel", vectorized, boxed)
	}
}

// groupCSVCatalog serves R(id int, k string, score int) from a raw CSV:
// 60 string keys, with every 17th key empty (null), so one group
// gathers the null keys.
func groupCSVCatalog(t *testing.T, n int) *schemaCat {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("id,k,score\n")
	for i := 0; i < n; i++ {
		k := ""
		if i%17 != 0 {
			k = fmt.Sprintf("k%02d", i%60)
		}
		fmt.Fprintf(&sb, "%d,%s,%d\n", i, k, i%7)
	}
	path := filepath.Join(t.TempDir(), "groups.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	schema := sdg.Bag(sdg.Record(
		sdg.Attr{Name: "id", Type: sdg.Int},
		sdg.Attr{Name: "k", Type: sdg.String},
		sdg.Attr{Name: "score", Type: sdg.Int},
	))
	desc := sdg.DefaultDescription("R", sdg.FormatCSV, path, schema)
	rd, err := rawcsv.Open(desc)
	if err != nil {
		t.Fatal(err)
	}
	return &schemaCat{
		MapCatalog: algebra.MapCatalog{"R": rd},
		descs:      map[string]*sdg.Description{"R": desc},
	}
}

// TestGroupedConstantAggs is the grouped counterpart of
// TestConstantHeadFolds: constant aggregate inputs — which the group
// fold adds per row without a column — under every typed accumulator, with
// and without a filter, with a null group key, over 0, 1 and 5000 rows.
// Serially the groups are the reference executor's bit for bit (`sum
// 0.1` adds 0.1 once per row there as here); morsel-parallel they agree
// up to merge rounding.
func TestGroupedConstantAggs(t *testing.T) {
	var queries []string
	for _, m := range []string{"count", "sum", "avg", "min", "max"} {
		for _, head := range constHeads(m) {
			queries = append(queries,
				fmt.Sprintf(`for { r <- R } group by { g := r.k } agg { a := %s %s } yield list (g := g, a := a)`, m, head),
				fmt.Sprintf(`for { r <- R, r.score > 4 } group by { g := r.k } agg { a := %s %s, n := count r.id } yield list (g := g, a := a, n := n)`, m, head))
		}
	}
	for _, rows := range []int{0, 1, 5000} {
		checkConstQueries(t, groupCSVCatalog(t, rows), rows, queries)
	}
}

// TestGroupedConstantStagesNoBoxedGetter: a grouped `sum 1` stages no
// column for its input, so it adds no boxed stage over the same plan
// folding `count r.id` (a slot).
func TestGroupedConstantStagesNoBoxedGetter(t *testing.T) {
	cat := groupCSVCatalog(t, 100)
	stages := func(agg string) (vectorized, boxed int64) {
		t.Helper()
		var ct Counters
		q := fmt.Sprintf(`for { r <- R } group by { g := r.k } agg { n := %s } yield list (g := g, n := n)`, agg)
		if _, err := (Executor{Opts: Options{Workers: 1, Counters: &ct}}).Run(planFor2(t, q, cat), cat); err != nil {
			t.Fatalf("%s: %v", agg, err)
		}
		return ct.KernelsVectorized.Load(), ct.KernelsBoxed.Load()
	}
	sv, sb := stages("sum 1")
	cv, cb := stages("count r.id")
	if sb != cb || sv != cv {
		t.Fatalf("sum 1 staged %d vectorized, %d boxed; count r.id %d, %d", sv, sb, cv, cb)
	}
}

// BenchmarkGroupAggConstant times the grouped fold of COUNT(*) (`sum 1`)
// against `count r.id` over 300k typed rows in 60 string-keyed groups,
// serially: the constant is added per row without staging a column, as
// count adds 1 per row without reading one, so the two should cost
// about the same.
//
//	go test -run '^$' -bench BenchmarkGroupAggConstant ./internal/jit
func BenchmarkGroupAggConstant(b *testing.B) {
	const n = 300_000
	k := vec.Col{Tag: vec.Str, Strs: make([]string, n)}
	id := vec.Col{Tag: vec.Int64, Ints: make([]int64, n)}
	for i := 0; i < n; i++ {
		k.Strs[i] = fmt.Sprintf("city%02d", (i*7919)%60)
		id.Ints[i] = int64(i)
	}
	rowType := sdg.Bag(sdg.Record(sdg.Attr{Name: "id", Type: sdg.Int}, sdg.Attr{Name: "k", Type: sdg.String}))
	cat := &schemaCat{
		MapCatalog: algebra.MapCatalog{"R": &diffTable{name: "R", fields: []string{"id", "k"}, cols: []vec.Col{id, k}, n: n}},
		descs:      map[string]*sdg.Description{"R": {Name: "R", Format: sdg.FormatTable, Schema: rowType}},
	}
	for _, agg := range []string{"sum 1", "count r.id"} {
		b.Run(strings.ReplaceAll(agg, " ", "_"), func(b *testing.B) {
			q := fmt.Sprintf(`for { r <- R } group by { g := r.k } agg { n := %s } yield list (g := g, n := n)`, agg)
			e, err := mcl.Parse(q)
			if err != nil {
				b.Fatal(err)
			}
			plan, err := algebra.Translate(mcl.Normalize(e), map[string]bool{"R": true})
			if err != nil {
				b.Fatal(err)
			}
			ex := Executor{Opts: Options{Workers: 1}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ex.Run(plan, cat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
