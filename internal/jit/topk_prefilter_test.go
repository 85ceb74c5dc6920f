package jit

import (
	"math"
	"testing"

	"vida/internal/algebra"
	"vida/internal/monoid"
	"vida/internal/sched"
	"vida/internal/values"
	"vida/internal/vec"
)

// concatTable serves table a, then table b, as one source: a column can
// change representation, and kind, at a batch boundary.
type concatTable struct{ a, b *diffTable }

func (t *concatTable) Name() string { return t.a.name }

func (t *concatTable) Iterate(fields []string, yield func(values.Value) error) error {
	if err := t.a.Iterate(fields, yield); err != nil {
		return err
	}
	return t.b.Iterate(fields, yield)
}

func (t *concatTable) IterateBatches(fields []string, batchSize int, yield func(*vec.Batch) error) error {
	scan, n, _ := t.OpenRange(fields)
	return scan(0, n, batchSize, yield)
}

func (t *concatTable) OpenRange(fields []string) (func(lo, hi, batchSize int, yield func(*vec.Batch) error) error, int, bool) {
	sa, na, _ := t.a.OpenRange(fields)
	sb, nb, _ := t.b.OpenRange(fields)
	return func(lo, hi, batchSize int, yield func(*vec.Batch) error) error {
		if lo < na {
			if err := sa(lo, min(hi, na), batchSize, yield); err != nil {
				return err
			}
		}
		if hi > na {
			return sb(max(lo, na)-na, hi-na, batchSize, yield)
		}
		return nil
	}, na + nb, true
}

// keyTable builds a two-column table (k, id) of n rows: k from key, id
// the row number.
func keyTable(name string, n int, key func(i int) values.Value, boxed bool) *diffTable {
	rows := make([]values.Value, n)
	ids := make([]int64, n)
	for i := range rows {
		rows[i] = key(i)
		ids[i] = int64(i)
	}
	cols := typedCols(rows)
	return &diffTable{name: name, fields: []string{"k", "id"}, n: n, boxed: boxed,
		cols: []vec.Col{cols[len(cols)-1].col, {Tag: vec.Int64, Ints: ids}}}
}

// TestTopKPrefilterMatchesReference runs keyed top-k roots whose first
// key column is typed — so once a heap fills, each batch is prefiltered
// against its worst first key — and pins them to the reference
// executor at 1, 2 and 4 workers, in 8-row batches.
func TestTopKPrefilterMatchesReference(t *testing.T) {
	nan := math.NaN()
	const n = 300
	ties := keyTable("T", n, func(i int) values.Value { return values.NewInt(int64(i % 4)) }, false)
	nulls := keyTable("T", n, func(i int) values.Value {
		if i%5 == 0 {
			return values.Null
		}
		return values.NewInt(int64(i * 7 % 50))
	}, false)
	nans := keyTable("T", n, func(i int) values.Value {
		switch i % 6 {
		case 0:
			return values.NewFloat(nan)
		case 1:
			return values.NewFloat(math.Copysign(0, -1))
		case 2:
			return values.NewFloat(math.Inf(-1))
		}
		return values.NewFloat(float64(i*13%40) / 4)
	}, false)
	// Float keys served boxed, then Int64 keys: the Int64 batches are
	// prefiltered against a float worst key.
	intAfterFloat := &concatTable{
		a: keyTable("T", 64, func(i int) values.Value { return values.NewFloat(float64(i%16) + 0.5) }, true),
		b: keyTable("T", n, func(i int) values.Value { return values.NewInt(int64(i * 11 % 23)) }, false),
	}
	boxed := keyTable("T", n, func(i int) values.Value { return values.NewInt(int64(i * 7 % 50)) }, true)
	cases := []struct {
		name string
		src  algebra.Source
	}{
		{"ties", ties}, {"nulls", nulls}, {"nans", nans}, {"int-after-float", intAfterFloat}, {"boxed", boxed},
	}
	queries := []string{
		`for { x <- T } yield list (k := x.k, id := x.id) order by x.k desc, x.id limit 5`,
		`for { x <- T } yield list (k := x.k, id := x.id) order by x.k, x.id desc limit 5`,
		`for { x <- T } yield list x.id order by x.k desc, x.id desc limit 7 offset 6`,
		`for { x <- T } yield list x.id order by x.k, x.id limit 4 offset 9`,
		`for { x <- T } yield list x.id order by x.k desc limit 3`,
	}
	pool := sched.NewPool(4)
	defer pool.Close()
	for _, c := range cases {
		cat := &schemaCat{MapCatalog: algebra.MapCatalog{"T": c.src}}
		for _, q := range queries {
			plan := planFor(t, q, cat)
			plan.Input.(*algebra.Scan).Fields = []string{"k", "id"}
			want, err := algebra.Reference{}.Run(plan, cat)
			if err != nil {
				t.Fatalf("%s %q: reference: %v", c.name, q, err)
			}
			for _, w := range []int{1, 2, 4} {
				ex := Executor{Opts: Options{Workers: w, BatchSize: 8, ParallelThreshold: 1, Pool: pool}}
				got, err := ex.Run(plan, cat)
				if err != nil {
					t.Fatalf("%s %q w=%d: %v", c.name, q, w, err)
				}
				if !values.Equal(got, want) {
					t.Fatalf("%s %q w=%d:\n got %v\nwant %v", c.name, q, w, got, want)
				}
			}
		}
	}
}

// TestTopKPrefilterSkips pins when the prefilter stands aside, leaving
// every live row to Competitive: a boxed first-key column, a null worst
// key, an ascending key over a column with nulls, a heap not yet full.
func TestTopKPrefilterSkips(t *testing.T) {
	full := func(desc bool, worst values.Value) *monoid.TopKAcc {
		acc := monoid.NewTopKAcc([]bool{desc}, 1)
		acc.Add([]values.Value{worst}, values.NewInt(0))
		return acc
	}
	ints := vec.Col{Tag: vec.Int64, Ints: []int64{1, 5, 9}}
	withNulls := vec.Col{Tag: vec.Int64, Ints: []int64{1, 5, 9}, Nulls: []bool{false, true, false}}
	boxedCol := vec.Col{Tag: vec.Boxed, Boxed: []values.Value{values.NewInt(1), values.NewInt(5), values.NewInt(9)}}
	five := values.NewInt(5)
	cases := []struct {
		name string
		col  vec.Col
		acc  *monoid.TopKAcc
		desc bool
		want []int // nil: the prefilter stood aside
	}{
		{"boxed column", boxedCol, full(true, five), true, nil},
		{"null worst key", ints, full(true, values.Null), true, nil},
		{"ascending over nulls", withNulls, full(false, five), false, nil},
		{"heap not full", ints, monoid.NewTopKAcc([]bool{true}, 2), true, nil},
		{"descending over nulls", withNulls, full(true, five), true, []int{2}},
		{"ascending", ints, full(false, five), false, []int{0, 1}},
	}
	for _, c := range cases {
		oc := &orderedConsumer{acc: c.acc, keyCols: []*vec.Col{&c.col}, desc0: c.desc}
		got := oc.candidates(&vec.Batch{Cols: []vec.Col{c.col}, N: 3})
		if (got == nil) != (c.want == nil) || len(got) != len(c.want) {
			t.Fatalf("%s: candidates %v, want %v", c.name, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("%s: candidates %v, want %v", c.name, got, c.want)
			}
		}
	}
}
