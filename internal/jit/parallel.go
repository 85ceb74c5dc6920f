package jit

import (
	"context"

	"vida/internal/trace"
)

// parallelInput opens the morsel-parallel runner of a compiled subtree
// when the plan allows it: more than one worker, a partitionable
// producer (srcRange) and at least threshold rows. Each scan invocation
// runs its own instance of the plan's stages. ok false means run
// serially.
func parallelInput(cp *compiledPlan, opts Options, threshold int) (scan func(lo, hi int, sink batchSink) error, n int, ok bool) {
	if opts.Workers <= 1 || cp.srcRange == nil {
		return nil, 0, false
	}
	scan, n, ok = cp.srcRange()
	if !ok || n < threshold {
		return nil, 0, false
	}
	if cp.stage == nil {
		return scan, n, true
	}
	src, stage := scan, cp.stage
	return func(lo, hi int, sink batchSink) error {
		return drive(stage, func(next batchSink) error { return src(lo, hi, next) }, sink)
	}, n, true
}

// morsels is the one morsel driver (morsel-driven parallelism, Leis et
// al., adopted here for raw scans). It splits the row range [0,n) into a
// few morsels per worker — never below one batch each, so interleaving
// evens out skew without shredding batches — and submits them as one job
// to the shared scheduler pool (sched.Pool), whose fixed workers
// interleave the morsels of every in-flight query: concurrent queries
// share cores instead of each fanning out GOMAXPROCS goroutines. work
// runs once per morsel, concurrently over disjoint ranges, and the
// per-morsel results come back in morsel order — the order every merge
// that reproduces the serial result relies on. Dispatch stops once ctx
// is done; sp, when armed, records the split.
func morsels[T any](ctx context.Context, opts Options, sp *trace.Span, n int, work func(lo, hi int) (T, error)) ([]T, error) {
	workers := opts.Workers
	rows := max((n+workers*4-1)/(workers*4), opts.BatchSize)
	count := (n + rows - 1) / rows
	if sp != nil { // guard: avoid arg boxing when disarmed
		sp.SetAttr("morsels", count)
		sp.SetAttr("workers", workers)
	}
	out := make([]T, count)
	err := opts.Pool.Run(ctx, count, func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		lo := i * rows
		v, err := work(lo, min(lo+rows, n))
		out[i] = v
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
