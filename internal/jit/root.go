package jit

import (
	"context"
	"fmt"
	"sync"

	"vida/internal/algebra"
	"vida/internal/mcl"
	"vida/internal/trace"
	"vida/internal/values"
	"vida/internal/vec"
)

// This file holds the execution roots. Every plan compiles once, through
// compile, into a program with exactly one root shape chosen from the
// plan alone: a fold (scalar and other non-collection monoids), elements
// (list/bag/set), a keyed top-k (ORDER BY) or a row quota (bare
// LIMIT/OFFSET). Where the result goes is the sink's business: a cursor
// passes a channel sink, the buffered result (CompileWith) is a
// collecting sink. See doc.go.

// StreamSink receives one chunk of result elements. Ownership of the
// slice transfers to the sink: producers never touch an emitted chunk
// again, so sinks may retain it or hand it to another goroutine without
// copying. Under morsel-parallel bag and set roots the sink is invoked
// concurrently from pool workers and must be safe for concurrent calls
// (a channel send qualifies).
type StreamSink func(chunk []values.Value) error

// program is one compiled plan. A fold root computes its result value
// directly (fold); every other root emits result elements into a sink
// (emit), from which the buffered result rebuilds coll.
type program struct {
	fold    func() (values.Value, error)
	emit    func(sink StreamSink) error
	coll    string // "list", "bag" or "set"
	reserve func(delta int64) error
}

// compile is the one compilation path: free sources, the staged input
// pipeline, the group-agg stage of grouped plans, then the root.
func compile(p *algebra.Reduce, cat algebra.Catalog, opts Options) (program, error) {
	opts = opts.withDefaults()
	c := &compiler{cat: cat, opts: opts}
	if sc, ok := cat.(SchemaCatalog); ok {
		c.schemas = sc
	}
	var err error
	if c.baseEnv, err = algebra.BaseEnv(p, cat); err != nil {
		return program{}, err
	}
	input, err := c.compilePlan(p.Input)
	if err != nil {
		return program{}, err
	}
	// Grouped reduces interpose the hash-aggregation stage: the input
	// subtree folds into the group table once (single scan), and the root
	// below runs over group rows with the grouping clause stripped — Pred
	// is HAVING, Order/Limit rank groups.
	if p.Grouped() {
		if input, err = c.compileGroupAgg(p, input); err != nil {
			return program{}, err
		}
		p = shadowGrouped(p)
	}
	// The root predicate (HAVING over group rows) is one more filter
	// stage: every root consumes already-filtered batches.
	if p.Pred != nil {
		if input, err = c.filterStage(input, p.Pred); err != nil {
			return program{}, err
		}
	}
	prog := program{coll: p.M.Name(), reserve: opts.MemReserve}
	switch {
	case p.Order.Ordered():
		prog.coll = "list"
		prog.emit, err = c.topKRoot(p, input)
	case p.Order != nil:
		prog.emit, err = c.quotaRoot(p, input)
	case prog.coll == "list" || prog.coll == "bag" || prog.coll == "set":
		prog.emit, err = c.elementsRoot(p, input)
	default:
		prog.fold, err = c.foldRoot(p, input)
	}
	if err != nil {
		return program{}, err
	}
	c.reportKernels()
	return prog, nil
}

// stream runs the program into sink. A fold root emits its value once,
// as EmitResult does.
func (pr program) stream(sink StreamSink) error {
	if pr.emit != nil {
		return pr.emit(sink)
	}
	v, err := pr.fold()
	if err != nil {
		return err
	}
	return EmitResult(v, sink)
}

// collect drains an element root into the buffered result through the
// collecting sink, which charges the memory budget for every element it
// retains (sized from each chunk's first element, as the fold root's
// boxed accumulation is).
func (pr program) collect() (values.Value, error) {
	var mu sync.Mutex
	var elems []values.Value
	err := pr.emit(func(chunk []values.Value) error {
		if err := reserveChunk(pr.reserve, chunk); err != nil {
			return err
		}
		mu.Lock()
		elems = append(elems, chunk...)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return values.Null, err
	}
	switch pr.coll {
	case "list":
		return values.NewList(elems...), nil
	case "set":
		return values.NewSet(elems...), nil
	}
	return values.NewBag(elems...), nil
}

// reserveChunk charges a retained chunk against the query budget.
func reserveChunk(reserve func(int64) error, chunk []values.Value) error {
	if reserve == nil || len(chunk) == 0 {
		return nil
	}
	return reserve(int64(len(chunk)) * approxValueBytes(chunk[0]))
}

// EmitResult emits a materialized result the way a fold root does: the
// elements of a collection or array, the value itself as one row
// otherwise. Executors that only produce whole values (the reference and
// static engines) feed cursors through it.
func EmitResult(v values.Value, sink StreamSink) error {
	if !v.IsCollection() && v.Kind() != values.KindArray {
		return sink([]values.Value{v})
	}
	if elems := v.Elems(); len(elems) > 0 {
		return sink(elems)
	}
	return nil
}

// foldRoot stages the fold root: the group table's one-group case. Live
// rows fold into group 0, serially or into per-morsel partials merged in
// morsel order, and the answer is that group's aggregate.
func (c *compiler) foldRoot(p *algebra.Reduce, input *compiledPlan) (func() (values.Value, error), error) {
	// Only monoids that retain their inputs owe the memory budget for
	// them; scalar folds keep O(1) state however many rows pass.
	var reserve func(int64) error
	if name := p.M.Name(); name == "array" || name == "median" {
		reserve = c.opts.MemReserve
	}
	mkCons, err := c.groupConsumers(nil, []mcl.AggSpec{{M: p.M, E: p.Head}}, input.frame, reserve)
	if err != nil {
		return nil, err
	}
	opts := c.opts
	return func() (values.Value, error) {
		// The fold span wraps the whole pipeline run (the scan feeds the
		// consumer in one closure chain), so its wall time is inclusive of
		// scan time — phase rollups subtract scan spans.
		sp := opts.Trace.Child("fold")
		sp.SetAttr("kind", "reduce")
		defer sp.End()
		root, err := foldTable(input, opts, sp, mkCons)
		if err != nil {
			return values.Null, err
		}
		return root.aggs[0].result(0), nil
	}, nil
}

// elementsRoot stages a list/bag/set root: the head of every live row is
// a result element. Set roots deduplicate here, first occurrence wins.
func (c *compiler) elementsRoot(p *algebra.Reduce, input *compiledPlan) (func(StreamSink) error, error) {
	mkCons, err := c.compileStreamConsumer(p, input)
	if err != nil {
		return nil, err
	}
	opts, name := c.opts, p.M.Name()
	return func(emit StreamSink) error {
		sp := opts.Trace.Child("fold")
		sp.SetAttr("kind", "reduce")
		defer sp.End()
		if name == "set" {
			emit = dedupSink(emit, opts.MemReserve)
		}
		return runElements(opts.Ctx, input, mkCons, name == "list", emit, opts, sp)
	}, nil
}

// topKRoot stages an ordered root: the keyed top-k fold runs to
// completion (morsel-parallel, O(offset+limit) retained per worker when a
// limit is present), then the sorted, deduplicated, offset/limit-applied
// elements are emitted in order.
func (c *compiler) topKRoot(p *algebra.Reduce, input *compiledPlan) (func(StreamSink) error, error) {
	mkCons, desc, err := c.compileOrderedConsumer(p, input)
	if err != nil {
		return nil, err
	}
	opts := c.opts
	return func(emit StreamSink) error {
		sp := opts.Trace.Child("fold")
		sp.SetAttr("kind", "topk")
		defer sp.End()
		limit, offset, keep, dedup, err := algebra.ResolveOrder(p)
		if err != nil {
			return err
		}
		acc, err := runTopK(input, mkCons, desc, keep, opts, sp)
		if err != nil {
			return err
		}
		elems := acc.Finalize(offset, limit, dedup)
		for len(elems) > 0 {
			n := min(opts.BatchSize, len(elems))
			if err := emit(elems[:n:n]); err != nil {
				return err
			}
			elems = elems[n:]
		}
		return nil
	}, nil
}

// quotaRoot stages a bare LIMIT/OFFSET root: offset rows are dropped, at
// most limit rows emitted, and the remaining producers are cancelled
// through the scheduler once the quota fills. Set roots dedup before the
// quota, so LIMIT bounds distinct elements; list roots scan serially and
// keep their in-order prefix.
func (c *compiler) quotaRoot(p *algebra.Reduce, input *compiledPlan) (func(StreamSink) error, error) {
	name := p.M.Name()
	if name != "list" && name != "bag" && name != "set" {
		return nil, fmt.Errorf("jit: limit/offset on %s-monoid results", name)
	}
	mkCons, err := c.compileStreamConsumer(p, input)
	if err != nil {
		return nil, err
	}
	if name == "list" {
		input = &compiledPlan{frame: input.frame, src: input.src, stage: input.stage}
	}
	opts := c.opts
	return func(emit StreamSink) error {
		sp := opts.Trace.Child("fold")
		sp.SetAttr("kind", "limit")
		defer sp.End()
		limit, offset, err := algebra.ResolveExtents(p.Order)
		if err != nil {
			return err
		}
		qctx, cancel := context.WithCancel(opts.Ctx)
		defer cancel()
		q := newRowQuota(limit, offset, cancel)
		sink := q.wrap(emit)
		if name == "set" {
			sink = dedupSink(sink, opts.MemReserve)
		}
		return swallowLimit(runElements(qctx, input, mkCons, false, sink, opts, sp), q, opts.Ctx)
	}, nil
}

// runElements drives an element-emitting pipeline, serially or morsel-
// parallel when the input partitions. Bag and set morsels emit straight
// into the shared sink in completion order — a slow consumer blocks the
// workers in emit, which stalls morsel dispatch: bounded memory end to
// end. List morsels (ordered) hold their chunks until the fold completes
// and are then emitted in morsel order, the serial element order.
func runElements(ctx context.Context, input *compiledPlan, mkCons func(StreamSink) *streamConsumer, ordered bool, emit StreamSink, opts Options, sp *trace.Span) error {
	scan, n, ok := parallelInput(input, opts, opts.ParallelThreshold)
	if !ok {
		sc := mkCons(emit)
		if err := input.run(sc.consume); err != nil {
			return err
		}
		return sc.flush()
	}
	sp.SetAttr("parallel", true)
	held, err := morsels(ctx, opts, sp, n, func(lo, hi int) ([][]values.Value, error) {
		var chunks [][]values.Value
		sink := emit
		if ordered {
			sink = func(chunk []values.Value) error {
				chunks = append(chunks, chunk)
				return reserveChunk(opts.MemReserve, chunk)
			}
		}
		sc := mkCons(sink)
		if err := scan(lo, hi, sc.consume); err != nil {
			return nil, err
		}
		err := sc.flush()
		return chunks, err
	})
	if err != nil || !ordered {
		return err
	}
	msp := sp.Child("merge")
	defer msp.End()
	for _, chunks := range held {
		for _, chunk := range chunks {
			if err := emit(chunk); err != nil {
				return err
			}
		}
	}
	return nil
}

// dedupSink decorates a sink with set-monoid deduplication: each element
// is forwarded at most once across all producers, first occurrence wins
// (hash index with equality chains, mutex-guarded because morsel workers
// emit concurrently). Remembering every distinct element makes a set
// root O(distinct result) resident, so reserve (the query's budget
// charge, when non-nil) is charged for every element the table keeps.
func dedupSink(next StreamSink, reserve func(delta int64) error) StreamSink {
	var mu sync.Mutex
	seen := map[uint64][]values.Value{}
	return func(chunk []values.Value) error {
		mu.Lock()
		fresh := make([]values.Value, 0, len(chunk))
		for _, v := range chunk {
			h := v.Hash()
			dup := false
			for _, o := range seen[h] {
				if values.Equal(v, o) {
					dup = true
					break
				}
			}
			if !dup {
				seen[h] = append(seen[h], v)
				fresh = append(fresh, v)
			}
		}
		mu.Unlock()
		if len(fresh) == 0 {
			return nil
		}
		if reserve != nil {
			var bytes int64
			for _, v := range fresh {
				bytes += approxValueBytes(v)
			}
			if err := reserve(bytes); err != nil {
				return err
			}
		}
		return next(fresh)
	}
}

// streamConsumer turns pipeline batches into chunks of head values (the
// head's staged column, read at the live rows). One consumer serves one
// serial run or one morsel.
type streamConsumer struct {
	head  vecExpr
	chunk []values.Value
	size  int
	emit  StreamSink
}

func (sc *streamConsumer) consume(b *vec.Batch) error {
	n := b.Len()
	if n == 0 {
		return nil
	}
	col, err := sc.head(b)
	if err != nil {
		return err
	}
	for k := 0; k < n; k++ {
		sc.chunk = append(sc.chunk, col.Value(b.Index(k)))
		if len(sc.chunk) >= sc.size {
			if err := sc.flush(); err != nil {
				return err
			}
		}
	}
	// Flush at every input-batch boundary: a slow or sparse producer must
	// not sit on buffered rows until the chunk fills — first-row latency
	// tracks the scan, not the result density.
	return sc.flush()
}

// flush emits the buffered chunk (ownership transfers) and starts a new
// one. Safe to call with an empty buffer.
func (sc *streamConsumer) flush() error {
	if len(sc.chunk) == 0 {
		return nil
	}
	chunk := sc.chunk
	sc.chunk = make([]values.Value, 0, sc.size)
	return sc.emit(chunk)
}

// compileStreamConsumer stages the consumer of an element-emitting root:
// the head as a mkGetter column, and chunk assembly.
func (c *compiler) compileStreamConsumer(p *algebra.Reduce, input *compiledPlan) (func(StreamSink) *streamConsumer, error) {
	mkHead, err := c.mkGetter(p.Head, input.frame)
	if err != nil {
		return nil, err
	}
	size := c.opts.BatchSize
	return func(emit StreamSink) *streamConsumer {
		return &streamConsumer{head: mkHead(), chunk: make([]values.Value, 0, size), size: size, emit: emit}
	}, nil
}
