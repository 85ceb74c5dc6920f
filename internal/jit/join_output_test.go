package jit

import (
	"fmt"
	"math/rand"
	"testing"

	"vida/internal/algebra"
	"vida/internal/mcl"
	"vida/internal/sched"
	"vida/internal/values"
	"vida/internal/vec"
)

// outputTable is a 40-row table (k, f, s) for TestJoinOutputTyped: k is
// an Int64 key over {0, 1}, so every probe row matches about 20 build
// rows and one 7-row probe batch overflows the 7-row output batch many
// times; f is Float64 and s is Str, both with nulls.
func outputTable(name string, seed int64) *diffTable {
	const n = 40
	rng := rand.New(rand.NewSource(seed))
	k := vec.Col{Tag: vec.Int64}
	f := vec.Col{Tag: vec.Float64, Nulls: make([]bool, n)}
	s := vec.Col{Tag: vec.Str, Nulls: make([]bool, n)}
	for i := 0; i < n; i++ {
		k.Ints = append(k.Ints, int64(rng.Intn(2)))
		f.Floats = append(f.Floats, float64(rng.Intn(100))/4)
		f.Nulls[i] = i%3 == 1
		s.Strs = append(s.Strs, fmt.Sprintf("s%d", rng.Intn(6)))
		s.Nulls[i] = i%4 == 2
	}
	return &diffTable{name: name, fields: []string{"k", "f", "s"}, cols: []vec.Col{k, f, s}, n: n}
}

// compileBinary compiles a join or product subtree, as the root would.
func compileBinary(t *testing.T, p algebra.Plan, cat algebra.Catalog, opts Options) *compiledPlan {
	t.Helper()
	c := &compiler{cat: cat, opts: opts.withDefaults()}
	var err error
	if c.baseEnv, err = algebra.BaseEnv(p, cat); err != nil {
		t.Fatal(err)
	}
	cp, err := c.compilePlan(p)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestJoinOutputTyped checks the representation of a binary operator's
// output: each column gathers typed as its source is — a probe column
// as the probe batch has it, a build column as every retained batch
// has it — with the validity masks of nullable columns, and a build
// column whose retained batches differ in tag or in dictionary falls
// back to boxed. Output batches never exceed BatchSize, also when one
// probe batch's matches fill several. Every case is also compared with
// algebra.Reference as a list at 1, 2 and 4 workers.
func TestJoinOutputTyped(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	const bs = 7
	scan := func(src, v string) *algebra.Scan {
		return &algebra.Scan{Source: src, Var: v, Fields: []string{"k", "f", "s"}}
	}
	join := &algebra.Join{L: scan("L", "x"), R: scan("R", "y"),
		On: []algebra.EquiPair{{LExpr: mcl.MustParse("x.k"), RExpr: mcl.MustParse("y.k")}}}
	typed := []vec.Tag{vec.Int64, vec.Float64, vec.Str}
	dict := []vec.Tag{vec.Int64, vec.Float64, vec.StrDict}
	cases := []struct {
		name       string
		plan       algebra.Plan
		l, r       *diffTable
		lTag, rTag []vec.Tag
	}{
		{"typed", join, outputTable("L", 1), outputTable("R", 2).serveStrs(strSharedDict), typed, dict},
		{"probe-window-dicts", join, outputTable("L", 3).serveStrs(strWindowDict), outputTable("R", 4), dict, typed},
		{"build-window-dicts", join, outputTable("L", 5), outputTable("R", 6).serveStrs(strWindowDict),
			typed, []vec.Tag{vec.Int64, vec.Float64, vec.Boxed}},
		{"build-mixed-tags", join, outputTable("L", 7), func() *diffTable { r := outputTable("R", 8); r.boxOdd = true; return r }(),
			typed, []vec.Tag{vec.Boxed, vec.Boxed, vec.Boxed}},
		{"product", &algebra.Product{L: scan("L", "x"), R: scan("R", "y")},
			outputTable("L", 9), outputTable("R", 10).serveStrs(strSharedDict), typed, dict},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cat := algebra.MapCatalog{"L": tc.l, "R": tc.r}
			want := append(append([]vec.Tag(nil), tc.lTag...), tc.rTag...)
			var batches, full int
			var masked bool
			check := func(b *vec.Batch) error {
				batches++
				if b.Len() > bs {
					t.Fatalf("output batch of %d rows, BatchSize %d", b.Len(), bs)
				}
				if b.Len() == bs {
					full++
				}
				for s, c := range b.Cols {
					if c.Tag != want[s] {
						t.Fatalf("column %d: tag %v, want %v", s, c.Tag, want[s])
					}
					masked = masked || c.Nulls != nil
				}
				return nil
			}
			serial := Options{Workers: 1, BatchSize: bs}
			if err := compileBinary(t, tc.plan, cat, serial).run(check); err != nil {
				t.Fatal(err)
			}
			// 40 probe rows make 6 probe batches; each holds about 140
			// matches, so most output batches are full.
			if batches <= 6 || full == 0 || !masked {
				t.Fatalf("%d output batches, %d full, masks %v: matches did not overflow a probe batch or lost their masks", batches, full, masked)
			}
			if _, ok := tc.plan.(*algebra.Join); ok {
				par := Options{Workers: 4, BatchSize: bs, ParallelThreshold: 1, Pool: pool}
				pscan, n, ok := parallelInput(compileBinary(t, tc.plan, cat, par), par.withDefaults(), 1)
				if !ok {
					t.Fatal("join probe declined a range scan")
				}
				for _, r := range [][2]int{{0, n / 2}, {n / 2, n}} {
					if err := pscan(r[0], r[1], check); err != nil {
						t.Fatal(err)
					}
				}
			}
			red := &algebra.Reduce{M: mustMonoid("list"), Input: tc.plan,
				Head: mcl.MustParse("(xk := x.k, xf := x.f, xs := x.s, yk := y.k, yf := y.f, ys := y.s)")}
			ref, err := algebra.Reference{}.Run(red, cat)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 2, 4} {
				got, err := Executor{Opts: Options{Workers: w, BatchSize: bs, ParallelThreshold: 1, Pool: pool}}.Run(red, cat)
				if err != nil {
					t.Fatalf("w=%d: %v", w, err)
				}
				if !values.Equal(got, ref) {
					t.Fatalf("w=%d diverged from the reference:\n got %v\nwant %v", w, got, ref)
				}
			}
		})
	}
}
