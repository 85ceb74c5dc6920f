package jit

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"vida/internal/algebra"
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

// orderedConsumer evaluates sort keys and the head per live row and
// folds them into a keyed top-k accumulator. One consumer serves one
// serial run or one morsel; reset swaps the accumulator between morsels.
type orderedConsumer struct {
	acc         *monoid.TopKAcc
	filter      batchFilter // may be nil
	keyIdxs     []int       // per key: >= 0 slot fast path, -1 via kernel/expr
	keyKernels  []vecExpr   // per key: non-nil vectorized kernel
	keyCols     []*vec.Col  // per-batch kernel outputs (scratch)
	keyEs       []compiledExpr
	headIdx     int // >= 0: head is this slot
	head        compiledExpr
	row         []values.Value
	keys        []values.Value // reusable key scratch (fresh after retention)
	needRowKeys bool
	needRowHead bool
}

func (oc *orderedConsumer) reset(acc *monoid.TopKAcc) { oc.acc = acc }

func (oc *orderedConsumer) consume(b *vec.Batch) error {
	if oc.filter != nil {
		if err := oc.filter(b); err != nil {
			return err
		}
	}
	n := b.Len()
	if n == 0 {
		return nil
	}
	// Kernel keys evaluate once per batch; rows then box only the key
	// values they feed into the competitiveness check.
	for j, kk := range oc.keyKernels {
		if kk == nil {
			continue
		}
		kc, err := kk(b)
		if err != nil {
			return err
		}
		oc.keyCols[j] = kc
	}
	for k := 0; k < n; k++ {
		i := b.Index(k)
		if oc.needRowKeys {
			fillRow(b, i, oc.row)
		}
		if oc.keys == nil {
			oc.keys = make([]values.Value, len(oc.keyIdxs))
		}
		keys := oc.keys
		for j, idx := range oc.keyIdxs {
			if idx >= 0 {
				keys[j] = b.Cols[idx].Value(i)
				continue
			}
			if oc.keyCols[j] != nil {
				keys[j] = oc.keyCols[j].Value(i)
				continue
			}
			kv, err := oc.keyEs[j](oc.row)
			if err != nil {
				return err
			}
			keys[j] = kv
		}
		// Keys-only pre-check: rows that cannot place skip row
		// materialization and head evaluation (the record build is the
		// per-row cost of wide selects) and reuse the key buffer — the
		// steady state of a large scan under a small limit folds
		// allocation-free.
		if !oc.acc.Competitive(keys) {
			continue
		}
		var h values.Value
		if oc.headIdx >= 0 {
			h = b.Cols[oc.headIdx].Value(i)
		} else {
			if oc.needRowHead && !oc.needRowKeys {
				fillRow(b, i, oc.row)
			}
			var err error
			h, err = oc.head(oc.row)
			if err != nil {
				return err
			}
		}
		if oc.acc.Offer(keys, h) {
			oc.keys = nil
		}
	}
	return nil
}

// compileOrderedConsumer stages the keyed top-k root: optional inline
// predicate, per-key slot fast paths, head evaluation.
func (c *compiler) compileOrderedConsumer(p *algebra.Reduce, input *compiledPlan) (func() *orderedConsumer, []bool, error) {
	var mkFilter func() batchFilter
	var err error
	if p.Pred != nil {
		mkFilter, err = c.compileFilter(p.Pred, input.frame)
		if err != nil {
			return nil, nil, err
		}
	}
	keys := p.Order.Keys
	desc := make([]bool, len(keys))
	keyIdxs := make([]int, len(keys))
	mkKeyKernels := make([]func() vecExpr, len(keys))
	keyEs := make([]compiledExpr, len(keys))
	needRowKeys := false
	for i, k := range keys {
		desc[i] = k.Desc
		keyIdxs[i] = slotOf(k.E, input.frame)
		if keyIdxs[i] < 0 {
			if mkKeyKernels[i] = compileVecExpr(k.E, input.frame); mkKeyKernels[i] != nil {
				continue
			}
			keyEs[i], err = c.compileExpr(k.E, input.frame)
			if err != nil {
				return nil, nil, err
			}
			needRowKeys = true
		}
	}
	headIdx := slotOf(p.Head, input.frame)
	var head compiledExpr
	needRowHead := false
	if headIdx < 0 {
		head, err = c.compileExpr(p.Head, input.frame)
		if err != nil {
			return nil, nil, err
		}
		needRowHead = true
	}
	width := input.frame.width()
	return func() *orderedConsumer {
		oc := &orderedConsumer{
			keyIdxs: keyIdxs, keyEs: keyEs, headIdx: headIdx, head: head,
			needRowKeys: needRowKeys, needRowHead: needRowHead,
			keyKernels: make([]vecExpr, len(keys)),
			keyCols:    make([]*vec.Col, len(keys)),
		}
		for i, mk := range mkKeyKernels {
			if mk != nil {
				oc.keyKernels[i] = mk()
			}
		}
		if needRowKeys || needRowHead {
			oc.row = make([]values.Value, width)
		}
		if mkFilter != nil {
			oc.filter = mkFilter()
		}
		return oc
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
