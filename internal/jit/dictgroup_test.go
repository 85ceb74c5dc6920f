package jit

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"vida/internal/algebra"
	"vida/internal/sched"
	"vida/internal/sdg"
	"vida/internal/values"
	"vida/internal/vec"
)

// dictGroupTable is an n-row table (s, t, k, f) for the code-indexed
// group path: s is a 12-value string key with nulls, t a 3-value one, k
// an int and f a float in quarters (exact sums in any order).
func dictGroupTable(n int, seed int64) *diffTable {
	rng := rand.New(rand.NewSource(seed))
	s := vec.Col{Tag: vec.Str, Nulls: make([]bool, n)}
	t := vec.Col{Tag: vec.Str}
	k := vec.Col{Tag: vec.Int64}
	f := vec.Col{Tag: vec.Float64}
	for i := 0; i < n; i++ {
		s.Strs = append(s.Strs, fmt.Sprintf("c%02d", rng.Intn(12)))
		s.Nulls[i] = rng.Intn(7) == 0
		if s.Nulls[i] {
			s.Strs[i] = ""
		}
		t.Strs = append(t.Strs, []string{"x", "y", "z"}[rng.Intn(3)])
		k.Ints = append(k.Ints, int64(rng.Intn(100)))
		f.Floats = append(f.Floats, float64(rng.Intn(400))/4)
	}
	return &diffTable{name: "T", fields: []string{"s", "t", "k", "f"}, cols: []vec.Col{s, t, k, f}, n: n}
}

// TestDictGroupDifferential runs GROUP BY over StrDict keys — one
// dictionary for the whole scan, one per window, one that changes in the
// middle of the scan, and windows alternating coded and boxed (so the
// code-indexed and the hashing path fill one table) — at 1, 2 and 4
// workers and batch sizes 1, 7 and 1024, and requires every result to
// equal algebra.Reference as a list: the same groups, aggregates and
// first-occurrence group order. Two-key groupings take the hash path over
// the coded column.
func TestDictGroupDifferential(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	queries := []string{
		`for { x <- T } group by { s := x.s } agg { n := count x, a := avg x.f, lo := min x.k } yield list (s := s, n := n, a := a, lo := lo)`,
		`for { x <- T, x.k > 30 } group by { s := x.s } agg { n := sum 1, v := sum x.f } having n > 5 yield list (s := s, n := n, v := v)`,
		`for { x <- T } group by { s := x.s, u := x.t } agg { n := count x, v := sum x.k } yield list (s := s, u := u, n := n, v := v)`,
		`for { x <- T } group by { u := x.t } agg { ss := list x.s } yield list (u := u, ss := ss)`,
	}
	rowType := sdg.Bag(sdg.Record(sdg.Attr{Name: "s", Type: sdg.String}, sdg.Attr{Name: "t", Type: sdg.String},
		sdg.Attr{Name: "k", Type: sdg.Int}, sdg.Attr{Name: "f", Type: sdg.Float}))
	modes := []struct {
		name   string
		strs   int
		boxOdd bool
	}{
		{"plain", strPlain, false},
		{"shared-dict", strSharedDict, false},
		{"window-dicts", strWindowDict, false},
		{"split-dict", strSplitDict, false},
		{"shared-dict-box-odd", strSharedDict, true},
	}
	for _, mode := range modes {
		tab := dictGroupTable(3000, 44).serveStrs(mode.strs)
		tab.boxOdd = mode.boxOdd
		cat := &schemaCat{
			MapCatalog: algebra.MapCatalog{"T": tab},
			descs:      map[string]*sdg.Description{"T": {Name: "T", Format: sdg.FormatTable, Schema: rowType}},
		}
		for qi, q := range queries {
			plan := planFor2(t, q, cat)
			want, err := algebra.Reference{}.Run(plan, cat)
			if err != nil {
				t.Fatal(err)
			}
			if qi == 0 && len(want.Elems()) != 13 {
				t.Fatalf("%d groups, want 12 strings and null", len(want.Elems()))
			}
			for _, workers := range []int{1, 2, 4} {
				for _, bs := range []int{1, 7, 1024} {
					opts := Options{Workers: workers, BatchSize: bs, Pool: pool}
					if workers > 1 {
						opts.ParallelThreshold = 1
					}
					got, err := Executor{Opts: opts}.Run(plan, cat)
					if err != nil {
						t.Fatalf("%s, query %d, workers=%d, batch %d: %v", mode.name, qi, workers, bs, err)
					}
					if !values.Equal(got, want) {
						t.Fatalf("%s, query %d, workers=%d, batch %d diverged:\n got %v\nwant %v", mode.name, qi, workers, bs, got, want)
					}
				}
			}
		}
	}
}

// TestDictGroupCodeIndexed drives one group consumer directly: batches
// of one StrDict key — over a dictionary, then another that shifts every
// code, then the first again, with nulls and a selection vector — must
// give the groups, counts and group order that the same rows served as
// plain strings give the hashing path, and the code-indexed memo must be
// what served them.
func TestDictGroupCodeIndexed(t *testing.T) {
	first := []string{"a", "b", "c"}
	second := []string{"!", "a", "b", "c"}
	type batch struct {
		dict  []string
		rows  []string // "" = null
		sel   []int
		fresh bool // a dictionary with the same strings, at another address
	}
	batches := []batch{
		{dict: first, rows: []string{"b", "", "b", "c"}},
		{dict: second, rows: []string{"a", "!", "b", ""}, sel: []int{0, 1, 3}},
		{dict: first, rows: []string{"a", "c", "a"}},
		{dict: first, rows: []string{"c", "b"}, fresh: true},
	}
	consumer := func() *groupConsumer {
		gc := &groupConsumer{nKeys: 1, keyCols: make([]*vec.Col, 1), aggs: []groupAcc{&countAcc{}}}
		gc.keyGet = []vecExpr{func(b *vec.Batch) (*vec.Col, error) { return &b.Cols[0], nil }}
		gc.aggGet = []vecExpr{nil}
		return gc
	}
	coded, plain := consumer(), consumer()
	for bi, in := range batches {
		dict := in.dict
		if in.fresh {
			dict = slices.Clone(dict)
		}
		c := vec.Col{Tag: vec.StrDict, Dict: dict, Nulls: make([]bool, len(in.rows))}
		p := vec.Col{Tag: vec.Str, Nulls: make([]bool, len(in.rows))}
		for i, s := range in.rows {
			code, _ := slices.BinarySearch(dict, s)
			c.Codes = append(c.Codes, uint32(code))
			p.Strs = append(p.Strs, s)
			c.Nulls[i], p.Nulls[i] = s == "", s == ""
		}
		for _, fold := range []struct {
			gc  *groupConsumer
			col vec.Col
		}{{coded, c}, {plain, p}} {
			if err := fold.gc.consume(&vec.Batch{Cols: []vec.Col{fold.col}, N: len(in.rows), Sel: in.sel}); err != nil {
				t.Fatal(err)
			}
		}
		if !sameDict(coded.dict, dict) || len(coded.byCode) != len(dict) {
			t.Fatalf("batch %d: the code-indexed memo did not serve it", bi)
		}
	}
	if plain.byCode != nil {
		t.Fatal("a plain string key took the code-indexed path")
	}
	codedKeys, plainKeys := groupKeys(coded), groupKeys(plain)
	if !slices.EqualFunc(codedKeys, plainKeys, values.Equal) || !slices.Equal(coded.hashes, plain.hashes) ||
		!slices.Equal(coded.aggs[0].(*countAcc).cnt, plain.aggs[0].(*countAcc).cnt) {
		t.Fatalf("coded groups %v %v, hashed groups %v %v",
			codedKeys, coded.aggs[0].(*countAcc).cnt, plainKeys, plain.aggs[0].(*countAcc).cnt)
	}
	want := []values.Value{values.NewString("b"), values.Null, values.NewString("c"), values.NewString("a"), values.NewString("!")}
	if !slices.EqualFunc(codedKeys, want, values.Equal) || !slices.Equal(coded.aggs[0].(*countAcc).cnt, []int64{3, 2, 3, 3, 1}) {
		t.Fatalf("groups %v counted %v", codedKeys, coded.aggs[0].(*countAcc).cnt)
	}
}

// groupKeys boxes the key of every group of a one-key table, in group
// order.
func groupKeys(gc *groupConsumer) []values.Value {
	keys := make([]values.Value, gc.numGroups())
	for g := range keys {
		keys[g] = gc.keys[0].Value(g)
	}
	return keys
}
