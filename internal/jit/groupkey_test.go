package jit

import (
	"math"
	"math/rand"
	"testing"

	"vida/internal/algebra"
	"vida/internal/sched"
	"vida/internal/sdg"
	"vida/internal/values"
	"vida/internal/vec"
)

// groupKeyTable is an n-row table (f, m, a, s) for the group table's
// typed key store: f is a Float64 key over a few values, NaN, −0, 0, ±Inf
// and nulls; m a boxed number column holding runs of ints and of floats,
// equal across kinds (3 and 3.0) and not (2.5); a an Int64 and s a Str
// column, both with nulls.
func groupKeyTable(n int, seed int64) *diffTable {
	rng := rand.New(rand.NewSource(seed))
	edges := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1, 2.5}
	f := vec.Col{Tag: vec.Float64, Nulls: make([]bool, n)}
	m := vec.Col{Tag: vec.Boxed}
	a := vec.Col{Tag: vec.Int64, Nulls: make([]bool, n)}
	s := vec.Col{Tag: vec.Str, Nulls: make([]bool, n)}
	for i := 0; i < n; i++ {
		f.Floats = append(f.Floats, edges[rng.Intn(len(edges))])
		f.Nulls[i] = rng.Intn(9) == 0
		k := rng.Intn(8)
		switch run := i / 40 % 3; {
		case rng.Intn(11) == 0:
			m.Boxed = append(m.Boxed, values.Null)
		case run == 0:
			m.Boxed = append(m.Boxed, values.NewInt(int64(k)))
		case run == 1:
			m.Boxed = append(m.Boxed, values.NewFloat(float64(k)))
		default:
			m.Boxed = append(m.Boxed, values.NewFloat(float64(k)+0.5))
		}
		a.Ints = append(a.Ints, int64(rng.Intn(4)))
		a.Nulls[i] = rng.Intn(5) == 0
		s.Strs = append(s.Strs, []string{"p", "q", "r"}[rng.Intn(3)])
		s.Nulls[i] = rng.Intn(6) == 0
		if s.Nulls[i] {
			s.Strs[i] = ""
		}
	}
	return &diffTable{name: "G", fields: []string{"f", "m", "a", "s"}, cols: []vec.Col{f, m, a, s}, n: n}
}

// TestGroupKeyDifferential runs GROUP BY over the key shapes the typed
// key store and its one key equality must get right — Float64 keys with
// NaN, −0 and ±Inf, one key served in Int64, Float64 and boxed windows
// (the stored column demoted to boxed part way), and two keys with
// nulls — at 1, 2 and 4 workers and batch sizes 1, 7 and 1024 with
// partial tables merging, and requires every result to equal
// algebra.Reference as a list, identical down to each value's kind and
// float bits (values.Equal would take 3 for 3.0 and −0 for 0): the same
// groups, keyed by their first occurrences, the
// same aggregates and first-occurrence group order.
func TestGroupKeyDifferential(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	queries := []string{
		`for { x <- G } group by { f := x.f } agg { n := count x, lo := min x.a } yield list (f := f, n := n, lo := lo)`,
		`for { x <- G } group by { m := x.m } agg { n := count x, v := sum x.a } yield list (m := m, n := n, v := v)`,
		`for { x <- G } group by { a := x.a, s := x.s } agg { n := count x, ms := list x.m } yield list (a := a, s := s, n := n, ms := ms)`,
		`for { x <- G, x.a != 3 } group by { f := x.f, a := x.a } agg { n := sum 1 } having n > 3 yield list (f := f, a := a, n := n)`,
	}
	// m is typed Float: the schema only names the slots.
	rowType := sdg.Bag(sdg.Record(sdg.Attr{Name: "f", Type: sdg.Float}, sdg.Attr{Name: "m", Type: sdg.Float},
		sdg.Attr{Name: "a", Type: sdg.Int}, sdg.Attr{Name: "s", Type: sdg.String}))
	modes := []struct {
		name           string
		boxOdd, narrow bool
	}{
		{"typed", false, true},
		{"box-odd", true, true},
		{"boxed-numbers", false, false},
	}
	for _, mode := range modes {
		tab := groupKeyTable(2000, 47)
		tab.boxOdd, tab.narrow = mode.boxOdd, mode.narrow
		cat := &schemaCat{
			MapCatalog: algebra.MapCatalog{"G": tab},
			descs:      map[string]*sdg.Description{"G": {Name: "G", Format: sdg.FormatTable, Schema: rowType}},
		}
		for qi, q := range queries {
			plan := planFor2(t, q, cat)
			want, err := algebra.Reference{}.Run(plan, cat)
			if err != nil {
				t.Fatal(err)
			}
			if qi == 0 && len(want.Elems()) != 7 {
				t.Fatalf("%d groups of f, want NaN, 0, ±Inf, 1, 2.5 and null", len(want.Elems()))
			}
			for _, workers := range []int{1, 2, 4} {
				for _, bs := range []int{1, 7, 1024} {
					opts := Options{Workers: workers, BatchSize: bs, ParallelThreshold: 1, Pool: pool}
					got, err := Executor{Opts: opts}.Run(plan, cat)
					if err != nil {
						t.Fatalf("%s, query %d, workers=%d, batch %d: %v", mode.name, qi, workers, bs, err)
					}
					if !identical(got, want) {
						t.Fatalf("%s, query %d, workers=%d, batch %d diverged:\n got %v\nwant %v", mode.name, qi, workers, bs, got, want)
					}
				}
			}
		}
	}
}
