package jit

import (
	"fmt"
	"testing"

	"vida/internal/algebra"
	"vida/internal/values"
)

// TestConstantHeadFolds pins the constant-head scalar folds (COUNT(*)
// lowers to `sum 1`): for int, float and bound-parameter heads under
// every scalar monoid, with and without a filter, the per-batch
// arithmetic agrees with the row-wise reference executor — serially, morsel-parallel, over the cold and the
// posmap-served scan, and on an empty input. The float constants are
// exact in binary, so n additions and one multiplication round alike.
func TestConstantHeadFolds(t *testing.T) {
	var queries []string
	for _, m := range []string{"count", "sum", "avg", "min", "max"} {
		for _, head := range []string{"1", "3", "2.5", "$1", "$2"} {
			queries = append(queries,
				fmt.Sprintf(`for { r <- R } yield %s %s`, m, head),
				fmt.Sprintf(`for { r <- R, r.score > 4 } yield %s %s`, m, head),
				fmt.Sprintf(`for { r <- R, r.score > 99 } yield %s %s`, m, head)) // no row survives
		}
	}
	params := map[string]values.Value{"1": values.NewInt(-7), "2": values.NewFloat(0.375)}
	for _, rows := range []int{0, 1, 5000} {
		cat, _ := csvCatalog(t, rows)
		for _, q := range queries {
			plan := algebra.BindParams(planFor2(t, q, cat), params)
			want, err := algebra.Reference{}.Run(plan, cat)
			if err != nil {
				t.Fatalf("reference %q over %d rows: %v", q, rows, err)
			}
			for name, ex := range map[string]Executor{
				"serial":   {Opts: Options{Workers: 1}},
				"parallel": {Opts: Options{Workers: 4, ParallelThreshold: 1, BatchSize: 64}},
			} {
				for pass := 0; pass < 2; pass++ {
					got, err := ex.Run(plan, cat)
					if err != nil {
						t.Fatalf("%s %q over %d rows: %v", name, q, rows, err)
					}
					if !values.Equal(got, want) {
						t.Fatalf("%s pass %d diverged on %q over %d rows: %v, reference %v", name, pass, q, rows, got, want)
					}
				}
			}
		}
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
