package jit

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"vida/internal/algebra"
	"vida/internal/mcl"
	"vida/internal/monoid"
	"vida/internal/trace"
	"vida/internal/values"
	"vida/internal/vec"
)

// This file implements the machinery of ORDER BY / LIMIT / OFFSET
// pushdown behind the top-k and quota roots (root.go): the keyed top-k
// fold (bounded to offset+limit entries when a limit is present)
// executed serially or morsel-parallel with per-worker partial heaps
// merged at the root, and the row quota that cancels the remaining
// producers through the scheduler the moment enough rows have been
// emitted — a cold 300k-row scan with LIMIT 10 stops mid-file.

// errLimitReached is the internal control-flow sentinel a quota sink
// returns to stop its pipeline. It never escapes to callers: the
// execution roots translate it (and the cancellations it triggers in
// sibling morsel workers) into successful early completion.
var errLimitReached = errors.New("jit: row limit reached")

// orderedConsumer folds live rows into a keyed top-k accumulator: sort
// keys are mkGetter columns computed per batch, the head a mkGetter
// column computed lazily, row by row, only for rows whose keys are
// competitive. One consumer serves one serial run or one morsel; reset
// swaps the accumulator between morsels.
type orderedConsumer struct {
	acc     *monoid.TopKAcc
	keyGet  []vecExpr
	keyCols []*vec.Col
	desc0   bool // the first sort key is descending
	head    vecExpr
	keys    []values.Value // reusable key scratch (fresh after retention)
	one     [1]int         // the one-row selection the head is computed over
	cand    []int          // the rows the prefilter keeps
}

func (oc *orderedConsumer) reset(acc *monoid.TopKAcc) { oc.acc = acc }

func (oc *orderedConsumer) consume(b *vec.Batch) error {
	if b.Len() == 0 {
		return nil
	}
	if err := getCols(oc.keyGet, b, oc.keyCols); err != nil {
		return err
	}
	// The head runs over a one-row selection per competitive row; the
	// batch's own selection is restored once the rows are folded.
	sel := b.Sel
	rows := oc.candidates(b)
	for k, n := 0, liveLen(b.N, rows); k < n; k++ {
		i := rowAt(rows, k)
		if oc.keys == nil {
			oc.keys = make([]values.Value, len(oc.keyCols))
		}
		for j, col := range oc.keyCols {
			oc.keys[j] = col.Value(i)
		}
		// Keys-only pre-check: rows that cannot place skip head
		// evaluation (the record build is the per-row cost of wide
		// selects) and reuse the key buffer — the steady state of a
		// large scan under a small limit folds allocation-free.
		if !oc.acc.Competitive(oc.keys) {
			continue
		}
		oc.one[0] = i
		b.Sel = oc.one[:]
		hc, err := oc.head(b)
		if err != nil {
			return err
		}
		if oc.acc.Offer(oc.keys, hc.Value(i)) {
			oc.keys = nil
		}
	}
	b.Sel = sel
	return nil
}

// candidates returns the live rows of b that Competitive may accept
// (nil: all N). Once the accumulator is full, a row places only if its
// first key sorts before or ties with the worst retained one: on a typed
// first-key column the selection kernel keeps those rows (>= the worst
// key descending, <= ascending) before a key is boxed. The worst key
// only tightens while the batch folds, so the candidates are a superset
// of the rows that place. The prefilter is skipped on a boxed column,
// against a null worst key, and under ascending order over a column with
// nulls: a null key sorts first, so it stays a candidate, but a
// selection kernel never keeps a null.
func (oc *orderedConsumer) candidates(b *vec.Batch) []int {
	worst, ok := oc.acc.Worst()
	col := oc.keyCols[0]
	if !ok || worst[0].IsNull() || col.Tag == vec.Boxed || !oc.desc0 && col.Nulls != nil {
		return b.Sel
	}
	op := mcl.OpLe
	if oc.desc0 {
		op = mcl.OpGe
	}
	oc.cand = selConstCmp(col, b, worst[0], op, selBuf(oc.cand, b.N))
	return oc.cand
}

// compileOrderedConsumer stages the keyed top-k root's consumer: one
// mkGetter column per sort key and one for the head.
func (c *compiler) compileOrderedConsumer(p *algebra.Reduce, input *compiledPlan) (func() *orderedConsumer, []bool, error) {
	keys := p.Order.Keys
	desc := make([]bool, len(keys))
	mkKeys := make([]func() vecExpr, len(keys))
	for i, k := range keys {
		desc[i] = k.Desc
		var err error
		if mkKeys[i], err = c.mkGetter(k.E, input.frame); err != nil {
			return nil, nil, err
		}
	}
	mkHead, err := c.mkGetter(p.Head, input.frame)
	if err != nil {
		return nil, nil, err
	}
	return func() *orderedConsumer {
		return &orderedConsumer{keyGet: newGetters(mkKeys), keyCols: make([]*vec.Col, len(keys)), desc0: desc[0], head: mkHead()}
	}, desc, nil
}

// runTopK executes an ordered plan's fold: morsel-parallel over a
// partitionable input, serial otherwise. Each morsel folds its rows into
// a partial heap bounded to keep entries (so the parallel fold is
// O(workers × keep) resident) and partials merge at the root — sound for
// any collection monoid, since the final sort's total order is
// independent of input order. It returns the accumulator, ready to
// Finalize.
func runTopK(input *compiledPlan, mkCons func() *orderedConsumer, desc []bool, keep int, opts Options, sp *trace.Span) (*monoid.TopKAcc, error) {
	root := monoid.NewTopKAcc(desc, keep)
	scan, n, ok := parallelInput(input, opts, opts.ParallelThreshold)
	if !ok {
		oc := mkCons()
		oc.reset(root)
		return root, input.run(oc.consume)
	}
	sp.SetAttr("parallel", true)
	consumers := sync.Pool{New: func() any { return mkCons() }}
	partials, err := morsels(opts.Ctx, opts, sp, n, func(lo, hi int) (*monoid.TopKAcc, error) {
		oc := consumers.Get().(*orderedConsumer)
		defer consumers.Put(oc)
		acc := monoid.NewTopKAcc(desc, keep)
		oc.reset(acc)
		return acc, scan(lo, hi, oc.consume)
	})
	if err != nil {
		return nil, err
	}
	for _, part := range partials {
		root.MergeFrom(part)
	}
	return root, nil
}

// rowQuota is the shared countdown of a bare-LIMIT stream: concurrent
// sinks reserve rows from it, and whoever takes the last row cancels the
// producers. offset rows are swallowed before any reach the consumer
// (bag semantics: which rows survive is unspecified under parallelism).
type rowQuota struct {
	skip   atomic.Int64 // rows still to drop (offset)
	left   atomic.Int64 // rows still to emit; negative once exhausted
	bound  bool         // false: unlimited (offset-only quota)
	failed atomic.Bool  // a sink error surfaced: never report completion
	cancel context.CancelFunc
}

func newRowQuota(limit, offset int, cancel context.CancelFunc) *rowQuota {
	q := &rowQuota{bound: limit >= 0, cancel: cancel}
	q.skip.Store(int64(offset))
	if limit >= 0 {
		q.left.Store(int64(limit))
	}
	return q
}

// admit reserves up to n rows: it returns how many of the next n rows to
// drop from the front (offset) and how many to emit after that. done
// reports that the quota is now exhausted and producers should stop.
func (q *rowQuota) admit(n int) (drop, emit int, done bool) {
	// Reserve from skip with a CAS loop: a racy double-decrement would
	// over-drop and return fewer than limit rows when the source has no
	// surplus beyond offset+limit.
	for {
		s := q.skip.Load()
		if s <= 0 {
			drop = 0
			break
		}
		taken := int64(n)
		if taken > s {
			taken = s
		}
		if q.skip.CompareAndSwap(s, s-taken) {
			drop = int(taken)
			break
		}
	}
	n -= drop
	if !q.bound {
		return drop, n, false
	}
	if n == 0 {
		return drop, 0, q.left.Load() <= 0
	}
	got := q.left.Add(int64(-n))
	switch {
	case got > 0:
		return drop, n, false
	case got+int64(n) > 0:
		// This reservation crossed zero: emit the remainder, then stop.
		return drop, int(got) + n, true
	default:
		return drop, 0, true
	}
}

// exhausted reports whether the quota has been fully served.
func (q *rowQuota) exhausted() bool {
	return q.bound && q.left.Load() <= 0
}

// wrap decorates a stream sink with the quota: chunks are trimmed to the
// remaining budget and the pipeline is stopped (errLimitReached plus
// context cancellation, which halts morsel dispatch in the scheduler)
// once the budget is spent.
func (q *rowQuota) wrap(next StreamSink) StreamSink {
	return func(chunk []values.Value) error {
		drop, emit, done := q.admit(len(chunk))
		if emit > 0 {
			if err := next(chunk[drop : drop+emit]); err != nil {
				// The budget was reserved before delivery: mark the
				// quota failed so an already-exhausted budget cannot
				// masquerade as successful completion downstream.
				q.failed.Store(true)
				return err
			}
		}
		if done {
			if q.cancel != nil {
				q.cancel()
			}
			return errLimitReached
		}
		return nil
	}
}

// swallowLimit maps quota-triggered terminations to success: the sentinel
// directly, or a cancellation that the quota itself caused. outer is the
// caller's context — if IT was cancelled, the cancellation is real.
func swallowLimit(err error, q *rowQuota, outer context.Context) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, errLimitReached) {
		return nil
	}
	if q != nil && q.exhausted() && !q.failed.Load() && outer.Err() == nil {
		// A sibling worker observed the quota's cancel before the sentinel
		// could surface; the stream is complete.
		return nil
	}
	return err
}
