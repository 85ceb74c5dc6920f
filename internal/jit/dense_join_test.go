package jit

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"vida/internal/algebra"
	"vida/internal/mcl"
	"vida/internal/sched"
	"vida/internal/trace"
	"vida/internal/values"
	"vida/internal/vec"
)

// intsCol is the Int64 column of key(i) for i < n.
func intsCol(n int, key func(i int) int64) vec.Col {
	col := vec.Col{Tag: vec.Int64, Ints: make([]int64, n)}
	for i := range col.Ints {
		col.Ints[i] = key(i)
	}
	return col
}

// joinFoldSpan runs plan with a span recorder armed and returns the
// result and the `fold kind=join` span.
func joinFoldSpan(t *testing.T, ex Executor, plan *algebra.Reduce, cat algebra.Catalog) (values.Value, *trace.SpanNode) {
	t.Helper()
	tr := trace.New("q", "query")
	ex.Opts.Trace = tr.Root()
	got, err := ex.Run(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	var fold *trace.SpanNode
	var walk func(n *trace.SpanNode)
	walk = func(n *trace.SpanNode) {
		if n.Name == "fold" && n.Attrs["kind"] == "join" {
			fold = n
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tr.Snapshot())
	if fold == nil {
		t.Fatal("no fold span with kind=join recorded")
	}
	return got, fold
}

// TestDenseJoinIndexChoice pins which index each build shape seals —
// the key-indexed directory for one Int64 key inside ±2^53 whose
// directory is no larger than the chain table, the chain table for
// everything else — read from the fold span's index and key_span, and
// holds every result to algebra.Reference as a list at 1, 2, 4 and 8
// workers and batch sizes 1, 7 and 1024.
func TestDenseJoinIndexChoice(t *testing.T) {
	const n = 3000
	probeKeys := intsCol(n, func(i int) int64 { return int64(i*7%n - 20) })
	seq := func(i int) int64 { return int64(i) }
	shifted := func(col vec.Col, by int64) vec.Col {
		return intsCol(n, func(i int) int64 { return col.Ints[i] + by })
	}
	nulls := func(col vec.Col, every int) vec.Col {
		col.Nulls = make([]bool, col.Len())
		for i := 0; i < len(col.Nulls); i += every {
			col.Nulls[i] = true
		}
		return col
	}
	floatProbe := vec.Col{Tag: vec.Float64, Floats: make([]float64, n)}
	boxedProbe := vec.Col{Tag: vec.Boxed, Boxed: make([]values.Value, n)}
	strProbe := vec.Col{Tag: vec.Str, Strs: make([]string, n)}
	for i := 0; i < n; i++ {
		k := float64(i % 40)
		floatProbe.Floats[i] = []float64{k, k + 0.5, math.NaN(), math.Copysign(0, -1), math.Inf(1), -k}[i%6]
		boxedProbe.Boxed[i] = []values.Value{values.NewInt(int64(i % 40)), values.NewFloat(k), values.NewFloat(k + 0.25),
			values.NewString(strconv.Itoa(i % 40)), values.Null, values.NewBool(true), values.NewFloat(math.Copysign(0, -1))}[i%7]
		strProbe.Strs[i] = strconv.Itoa(i % 40)
	}
	strKeys, strProbeKeys := vec.Col{Tag: vec.Str, Strs: make([]string, n)}, vec.Col{Tag: vec.Str, Strs: make([]string, n)}
	floatKeys := vec.Col{Tag: vec.Float64, Floats: make([]float64, n)}
	for i := 0; i < n; i++ {
		strKeys.Strs[i] = "k" + strconv.Itoa(i)
		strProbeKeys.Strs[i] = "k" + strconv.FormatInt(probeKeys.Ints[i], 10)
		floatKeys.Floats[i] = float64(i)
	}
	cases := []struct {
		name       string
		probe      vec.Col // L.k
		build      vec.Col // R.k
		boxOdd     bool    // serve every other build window boxed
		filter     string  // on the build side
		twoKeys    bool    // also join x.k + 1 = y.k + 1
		index      string
		keySpan    string // "" when the span records none
		wantsMatch bool
	}{
		{name: "pk-fk", probe: probeKeys, build: intsCol(n, seq), index: "dense", keySpan: "3000", wantsMatch: true},
		{name: "negative-offset", probe: probeKeys, build: intsCol(n, func(i int) int64 { return int64(i - 1500) }), index: "dense", keySpan: "3000", wantsMatch: true},
		{name: "duplicates", probe: probeKeys, build: intsCol(n, func(i int) int64 { return int64(i % 50) }), index: "dense", keySpan: "50", wantsMatch: true},
		{name: "build-nulls", probe: probeKeys, build: nulls(intsCol(n, seq), 7), index: "dense", keySpan: "2999", wantsMatch: true},
		{name: "filtered-build", probe: probeKeys, build: intsCol(n, seq), filter: "y.b % 4 = 1", index: "dense", keySpan: "2998", wantsMatch: true},
		{name: "float-probe", probe: floatProbe, build: intsCol(n, func(i int) int64 { return int64(i - 40) }), index: "dense", keySpan: "3000", wantsMatch: true},
		{name: "boxed-probe", probe: boxedProbe, build: intsCol(n, seq), index: "dense", keySpan: "3000", wantsMatch: true},
		{name: "string-probe", probe: strProbe, build: intsCol(n, seq), index: "dense", keySpan: "3000"},
		{name: "lower-bound", probe: shifted(probeKeys, -(1<<53)+20), build: intsCol(n, func(i int) int64 { return -(1 << 53) + int64(i) }), index: "dense", keySpan: "3000", wantsMatch: true},
		{name: "upper-bound", probe: shifted(probeKeys, 1<<53-n+1), build: intsCol(n, func(i int) int64 { return 1<<53 - int64(i) }), index: "dense", keySpan: "3000", wantsMatch: true},
		{name: "across-upper-bound", probe: shifted(probeKeys, 1<<53-n/2), build: intsCol(n, func(i int) int64 { return 1<<53 - n/2 + int64(i) }), index: "hash", wantsMatch: true},
		{name: "sparse", probe: intsCol(n, func(i int) int64 { return int64(i*7%n) * 1000 }), build: intsCol(n, func(i int) int64 { return int64(i) * 1000 }), index: "hash", keySpan: "2999001", wantsMatch: true},
		{name: "float-build", probe: probeKeys, build: floatKeys, index: "hash", wantsMatch: true},
		{name: "string-build", probe: strProbeKeys, build: strKeys, index: "hash", wantsMatch: true},
		{name: "boxed-build-windows", probe: probeKeys, build: intsCol(n, seq), boxOdd: true, index: "hash", wantsMatch: true},
		{name: "two-keys", probe: probeKeys, build: intsCol(n, seq), twoKeys: true, index: "hash", wantsMatch: true},
		{name: "empty-build", probe: probeKeys, build: intsCol(n, seq), filter: "y.b < 0", index: "hash"},
	}
	pool := sched.NewPool(4)
	defer pool.Close()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fields := []string{"k", "a"}
			left := &diffTable{name: "L", fields: fields, n: n, cols: []vec.Col{c.probe, intsCol(n, func(i int) int64 { return int64(i % 3) })}}
			right := &diffTable{name: "R", fields: []string{"k", "b"}, n: n, boxOdd: c.boxOdd, cols: []vec.Col{c.build, intsCol(n, func(i int) int64 { return int64(i % 3) })}}
			join := &algebra.Join{
				L:  &algebra.Scan{Source: "L", Var: "x", Fields: fields},
				R:  &algebra.Scan{Source: "R", Var: "y", Fields: []string{"k", "b"}},
				On: []algebra.EquiPair{{LExpr: mcl.MustParse("x.k"), RExpr: mcl.MustParse("y.k")}},
			}
			if c.filter != "" {
				join.R.(*algebra.Scan).Filter = mcl.MustParse(c.filter)
			}
			if c.twoKeys {
				join.On = append(join.On, algebra.EquiPair{LExpr: mcl.MustParse("x.k + 1"), RExpr: mcl.MustParse("y.k + 1")})
			}
			plan := &algebra.Reduce{M: mustMonoid("list"), Head: mcl.MustParse("(k := x.k, a := x.a, u := y.k, b := y.b)"), Input: join}
			cat := algebra.MapCatalog{"L": left, "R": right}
			want, err := algebra.Reference{}.Run(plan, cat)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(want.Elems()) > 0; got != c.wantsMatch {
				t.Fatalf("reference matched rows: %v, want %v", got, c.wantsMatch)
			}
			for _, w := range []int{1, 2, 4, 8} {
				for _, bs := range []int{1, 7, 1024} {
					ex := Executor{Opts: Options{Workers: w, BatchSize: bs, ParallelThreshold: 1, Pool: pool}}
					got, fold := joinFoldSpan(t, ex, plan, cat)
					if !values.Equal(got, want) {
						t.Fatalf("w=%d bs=%d diverged from the reference:\n got %v\nwant %v", w, bs, got, want)
					}
					if idx := fmt.Sprint(fold.Attrs["index"]); idx != c.index {
						t.Fatalf("w=%d bs=%d: index = %s, want %s", w, bs, idx, c.index)
					}
					span, ok := fold.Attrs["key_span"]
					if got := fmt.Sprint(span); ok != (c.keySpan != "") || ok && got != c.keySpan {
						t.Fatalf("w=%d bs=%d: key_span = %v (recorded %v), want %q", w, bs, span, ok, c.keySpan)
					}
				}
			}
		})
	}
}
