package jit

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"vida/internal/algebra"
	"vida/internal/mcl"
	"vida/internal/monoid"
	"vida/internal/sched"
	"vida/internal/sdg"
	"vida/internal/trace"
	"vida/internal/values"
	"vida/internal/vec"
)

var (
	listM = monoid.List
	bagM  = monoid.Bag
	setM  = monoid.Set
)

// SchemaCatalog extends the executor catalog with the source descriptions
// the JIT compiler needs to flatten scans into typed slots.
type SchemaCatalog interface {
	algebra.Catalog
	Description(name string) (*sdg.Description, bool)
}

// BatchSource is the one scan contract the generated pipelines read:
// column-vector batches — typed (unboxed) columns where the schema
// allows. The CSV plugin fills whole column vectors per positional-map
// jump and columnar cache entries serve their slices zero-copy; plug-ins
// written against algebra.Source.Iterate alone are lifted into it (Lift).
// Batches are reused between yields.
type BatchSource interface {
	IterateBatches(fields []string, batchSize int, yield func(*vec.Batch) error) error
}

// Lift returns the batch view of a source: the source itself when it
// already implements BatchSource (so a RangeBatchSource stays one), else
// an adapter packing its records into boxed batches.
func Lift(src algebra.Source) BatchSource {
	if bs, ok := src.(BatchSource); ok {
		return bs
	}
	return recordBatches{src}
}

type recordBatches struct{ src algebra.Source }

func (r recordBatches) IterateBatches(fields []string, batchSize int, yield func(*vec.Batch) error) error {
	return vec.PackRecords(r.src.Iterate, fields, batchSize, yield)
}

// RangeBatchSource is implemented by access paths that can serve an
// arbitrary row range of the source — the contract morsel-driven parallel
// scans build on. OpenRange resolves fields and snapshots auxiliary
// structures once; ok is false when the source cannot serve ranges right
// now (e.g. the positional map is not built yet). The returned scan
// function must be safe for concurrent calls over disjoint ranges.
type RangeBatchSource interface {
	OpenRange(fields []string) (scan func(lo, hi, batchSize int, yield func(*vec.Batch) error) error, n int, ok bool)
}

// batchSink receives pipeline batches. Batches are REUSED by the
// producer: a sink that retains data must copy it. A sink may refine
// b.Sel but must not mutate column storage.
type batchSink func(b *vec.Batch) error

// batchFilter refines b.Sel to the rows satisfying a predicate. A filter
// value carries per-run scratch (its selection buffer) and must not be
// shared between concurrent runs; factories (mkFilter) produce one per
// run or per morsel worker.
type batchFilter func(b *vec.Batch) error

// compiledPlan is one operator subtree staged into a closure pipeline: a
// producer — a scan, a join probe, a product, the group table — and the
// per-batch stages (filters, binds, generates) fused in front of
// whatever consumes it.
type compiledPlan struct {
	frame *frame
	src   func(sink batchSink) error
	// srcRange, when non-nil, attempts to open a partitioned runner over
	// the producer: scan may be invoked concurrently over disjoint
	// [lo,hi) row ranges (each invocation allocates its own scratch).
	// It is set only for producers over a RangeBatchSource — the morsel
	// scheduler's contract; stages are per-row independent, so they
	// never take it away (see parallelInput).
	srcRange func() (scan func(lo, hi int, sink batchSink) error, n int, ok bool)
	stage    stageFn // nil: none
}

// stageFn instantiates the plan's per-batch stages in front of sink —
// once per serial run and once per morsel, so every instance owns its
// scratch — returning the batch function the producer feeds and, when a
// stage buffers (generate), a flush to call once the producer is drained.
type stageFn func(sink batchSink) (next batchSink, flush func() error)

// run drives the plan serially into sink.
func (cp *compiledPlan) run(sink batchSink) error { return drive(cp.stage, cp.src, sink) }

// drive runs one instance of stage over one input src into sink.
func drive(stage stageFn, src func(batchSink) error, sink batchSink) error {
	if stage == nil {
		return src(sink)
	}
	next, flush := stage(sink)
	if err := src(next); err != nil || flush == nil {
		return err
	}
	return flush()
}

// then appends one per-batch stage, producing frame f.
func (cp *compiledPlan) then(f *frame, st stageFn) *compiledPlan {
	cp.frame = f
	up := cp.stage
	if up == nil {
		cp.stage = st
		return cp
	}
	cp.stage = func(sink batchSink) (batchSink, func() error) {
		next, flush := st(sink)
		unext, uflush := up(next)
		switch {
		case uflush == nil:
			return unext, flush
		case flush == nil:
			return unext, uflush
		}
		// Upstream flushes first: its buffered rows pass through st.
		return unext, func() error {
			if err := uflush(); err != nil {
				return err
			}
			return flush()
		}
	}
	return cp
}

// Options tunes the generated pipelines.
type Options struct {
	// BatchSize is the row capacity of pipeline batches (default
	// vec.DefaultBatchSize).
	BatchSize int
	// Workers bounds the morsel-parallel scan workers (default
	// runtime.GOMAXPROCS(0); 1 disables parallelism).
	Workers int
	// ParallelThreshold is the minimum partitionable row count before a
	// scan — a fold, a group-by, a join build or probe — goes parallel
	// (default DefaultParallelThreshold). Small scans are not worth the
	// goroutine fan-out.
	ParallelThreshold int
	// Pool is the morsel scheduler executing parallel scans (default
	// sched.Default(), the process-wide shared pool). A query server
	// injects its own pool so every query draws from the same workers.
	Pool *sched.Pool
	// Ctx cancels execution: parallel scans stop dispatching morsels
	// when it is done (default context.Background()). Serial pipelines
	// observe cancellation through the catalog's context-checking
	// sources, not through this field.
	Ctx context.Context
	// MemReserve, when non-nil, charges estimated bytes against the
	// query's memory budget at the sites that accumulate unbounded state
	// (retained join build sides, boxed collection results, dedup
	// tables). A non-nil error aborts the query with the caller's
	// budget error. Must be safe for concurrent calls.
	MemReserve func(delta int64) error
	// Trace, when non-nil, is the parent span for the operator spans the
	// generated pipeline records (fold, join build/probe, parallel
	// merge) and carries the kernel-staging attributes. Nil (disarmed)
	// costs a pointer test per operator.
	Trace *trace.Span
	// Counters, when non-nil, receives the always-on tallies of the
	// generated pipelines regardless of tracing (the engine's metrics).
	Counters *Counters
}

// Counters are the JIT's always-on tallies: kernel staging decisions,
// grouped folds and hash joins, as atomics updated by parallel morsels
// and concurrent queries alike. The *MaxBytes fields are high-water
// marks of one fold's table.
type Counters struct {
	// KernelsVectorized/KernelsBoxed tally pipeline stages staged as
	// vectorized kernels vs. row-wise boxed fallbacks.
	KernelsVectorized, KernelsBoxed atomic.Int64
	// GroupFolds counts completed hash aggregations, GroupsBuilt their
	// distinct groups and GroupPartialMerges the morsel partials merged
	// (0 for a serial fold).
	GroupFolds, GroupsBuilt, GroupPartialMerges, GroupTableMaxBytes atomic.Int64
	// JoinFolds counts sealed join builds, JoinDenseFolds those sealed as
	// a key-indexed directory, JoinBuildRows their entries and
	// JoinProbeRows the matches the probes emitted.
	JoinFolds, JoinDenseFolds, JoinBuildRows, JoinProbeRows, JoinTableMaxBytes atomic.Int64
}

// raiseMax lifts the high-water mark hw to v.
func raiseMax(hw *atomic.Int64, v int64) {
	for cur := hw.Load(); v > cur && !hw.CompareAndSwap(cur, v); cur = hw.Load() {
	}
}

// DefaultParallelThreshold is the default minimum row count for
// morsel-parallel scans.
const DefaultParallelThreshold = 8192

func (o Options) withDefaults() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = vec.DefaultBatchSize
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.ParallelThreshold <= 0 {
		o.ParallelThreshold = DefaultParallelThreshold
	}
	if o.Pool == nil {
		o.Pool = sched.Default()
	}
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
	return o
}

// compiler holds per-query compilation state.
type compiler struct {
	cat     algebra.Catalog
	schemas SchemaCatalog // may be nil
	baseEnv *mcl.Env
	opts    Options
	// vecStages/boxedStages tally each staging decision (filter, bind,
	// reduce head): vectorized kernel vs. row-wise boxed fallback.
	vecStages   int64
	boxedStages int64
}

// reportKernels publishes the staging tally to the counters and the
// trace once compilation succeeded.
func (c *compiler) reportKernels() {
	if ct := c.opts.Counters; ct != nil {
		ct.KernelsVectorized.Add(c.vecStages)
		ct.KernelsBoxed.Add(c.boxedStages)
	}
	if sp := c.opts.Trace; sp != nil {
		sp.SetAttr("kernels_vectorized", c.vecStages)
		sp.SetAttr("kernels_boxed", c.boxedStages)
		sp.SetAttr("boxed_fallback", c.boxedStages > 0)
	}
}

// Executor is the just-in-time engine. The zero value is ready to use
// (default batch size and worker count).
type Executor struct {
	Opts Options
}

// Run evaluates the plan against the catalog, as algebra.Reference does:
// it generates the specialized pipeline for this exact plan ("database as
// a query") and runs it.
func (e Executor) Run(p *algebra.Reduce, cat algebra.Catalog) (values.Value, error) {
	prog, err := CompileWith(p, cat, e.Opts)
	if err != nil {
		return values.Null, err
	}
	return prog()
}

// RunCtx is Run with a cancellation context: the morsel scheduler stops
// dispatching this query's morsels once ctx is done.
func (e Executor) RunCtx(ctx context.Context, p *algebra.Reduce, cat algebra.Catalog) (values.Value, error) {
	e.Opts.Ctx = ctx
	return e.Run(p, cat)
}

// RunStream runs the same program as Run into emit instead of buffering
// it: element roots emit chunks of result elements as the pipeline
// produces them (bag and set morsels in completion order, list morsels
// in morsel order once the fold completes), a fold root emits its result
// once (see EmitResult).
func (e Executor) RunStream(ctx context.Context, p *algebra.Reduce, cat algebra.Catalog, emit StreamSink) error {
	e.Opts.Ctx = ctx
	prog, err := compile(p, cat, e.Opts)
	if err != nil {
		return err
	}
	return prog.stream(emit)
}

// CompileWith stages the plan into an executable program returning the
// buffered result. Compilation is the reproduction's analogue of the
// paper's per-query code generation: all schema resolution, slot layout,
// plugin selection and operator fusion happen here, once, leaving a
// closure chain with no per-row decisions. The staged pipeline moves data
// batch-at-a-time (column vectors with typed fast paths) and, when the
// access path supports row ranges, executes the scan morsel-parallel. A
// fold root returns its value; every other root drains into the
// collecting sink.
func CompileWith(p *algebra.Reduce, cat algebra.Catalog, opts Options) (func() (values.Value, error), error) {
	prog, err := compile(p, cat, opts)
	if err != nil {
		return nil, err
	}
	if prog.fold != nil {
		return prog.fold, nil
	}
	return prog.collect, nil
}

// filterStage fuses a predicate into the batch stream as a selection-
// vector refinement between producer and sink — no operator boundary;
// batches the filter empties stop here. Scan filters, selections and the
// root predicate (HAVING over groups) are all this stage. The comparison
// shapes compileVecFilter recognizes run as typed kernels; any other
// predicate is a staged column (mkGetter) whose true rows survive.
func (c *compiler) filterStage(in *compiledPlan, pred mcl.Expr) (*compiledPlan, error) {
	mkFilter := compileVecFilter(pred, in.frame)
	if mkFilter != nil {
		c.vecStages++
	} else {
		mk, err := c.mkGetter(pred, in.frame)
		if err != nil {
			return nil, err
		}
		mkFilter = truthFilter(mk)
	}
	return in.then(in.frame, func(sink batchSink) (batchSink, func() error) {
		flt := mkFilter()
		return func(b *vec.Batch) error {
			if err := flt(b); err != nil {
				return err
			}
			if b.Len() == 0 {
				return nil
			}
			return sink(b)
		}, nil
	}), nil
}

// truthFilter keeps the rows whose staged predicate column is true.
func truthFilter(mk func() vecExpr) func() batchFilter {
	return func() batchFilter {
		get := mk()
		// Non-nil even when empty: a nil Sel means "all rows live".
		sel := make([]int, 0, 64)
		return func(b *vec.Batch) error {
			col, err := get(b)
			if err != nil {
				return err
			}
			sel = sel[:0]
			n := b.Len()
			for k := 0; k < n; k++ {
				i := b.Index(k)
				if v := col.Value(i); v.Kind() == values.KindBool && v.Bool() {
					sel = append(sel, i)
				}
			}
			b.Sel = sel
			return nil
		}
	}
}

// fillRow boxes physical row i of b into row, one entry per slot.
func fillRow(b *vec.Batch, i int, row []values.Value) {
	for s := range b.Cols {
		row[s] = b.Cols[s].Value(i)
	}
}

func (c *compiler) compilePlan(p algebra.Plan) (*compiledPlan, error) {
	if p == nil {
		// Unit input: one empty row.
		f := newFrame()
		return &compiledPlan{frame: f, src: func(sink batchSink) error {
			return sink(&vec.Batch{N: 1})
		}}, nil
	}
	switch n := p.(type) {
	case *algebra.Scan:
		return c.compileScan(n)
	case *algebra.Select:
		return c.compileSelect(n)
	case *algebra.Bind:
		return c.compileBind(n)
	case *algebra.Generate:
		return c.compileGenerate(n)
	case *algebra.Product:
		return c.compileProduct(n)
	case *algebra.Join:
		return c.compileJoin(n)
	case *algebra.Reduce:
		return nil, fmt.Errorf("jit: nested Reduce plans are not supported")
	}
	return nil, fmt.Errorf("jit: unknown plan node %T", p)
}

// compileScan stages the scan loop over the source's batch view: one
// slot per attribute when the schema (or the plan) names them, whole
// values otherwise. A pushed-down filter is a filterStage over it.
func (c *compiler) compileScan(n *algebra.Scan) (*compiledPlan, error) {
	src, ok := c.cat.Source(n.Source)
	if !ok {
		return nil, fmt.Errorf("jit: unknown source %q", n.Source)
	}

	// Determine the attribute list: explicit plan fields, else the full
	// schema when known, else whole-value binding.
	fields := n.Fields
	var rowType *sdg.Type
	if c.schemas != nil {
		if desc, ok := c.schemas.Description(n.Source); ok {
			rowType = desc.IterationType()
		}
	}
	if len(fields) == 0 && rowType != nil && rowType.Kind == sdg.TRecord {
		fields = rowType.AttrNames()
	}
	bs := c.opts.BatchSize

	cp := &compiledPlan{frame: newFrame()}
	if len(fields) == 0 {
		// Open schema: one whole-value slot per datum (JSON objects).
		cp.frame.add(n.Var, "")
		cp.src = func(sink batchSink) error {
			p := vec.NewPacker(1, bs, nil, sink)
			row := make([]values.Value, 1)
			if err := src.Iterate(nil, func(v values.Value) error {
				row[0] = v
				return p.Add(row)
			}); err != nil {
				return err
			}
			return p.Flush()
		}
	} else {
		// Flattened scan: one slot per attribute.
		for _, fld := range fields {
			cp.frame.add(n.Var, fld)
		}
		bsrc := Lift(src)
		cp.src = func(sink batchSink) error {
			return bsrc.IterateBatches(fields, bs, sink)
		}
		if rsrc, ok := bsrc.(RangeBatchSource); ok {
			cp.srcRange = func() (func(lo, hi int, sink batchSink) error, int, bool) {
				scan, total, ok := rsrc.OpenRange(fields)
				if !ok {
					return nil, 0, false
				}
				return func(lo, hi int, sink batchSink) error {
					return scan(lo, hi, bs, sink)
				}, total, true
			}
		}
	}
	if n.Filter == nil {
		return cp, nil
	}
	return c.filterStage(cp, n.Filter)
}

// compileSelect fuses a filter into the batch stream (filterStage).
func (c *compiler) compileSelect(n *algebra.Select) (*compiledPlan, error) {
	in, err := c.compilePlan(n.Input)
	if err != nil {
		return nil, err
	}
	return c.filterStage(in, n.Pred)
}

// compileBind extends each batch with one computed column, staged by
// mkGetter: typed (int64/float64 payloads when the inputs are) for kernel
// shapes, so downstream filters and aggregates over the bound variable
// stay on the unboxed fast paths, boxed otherwise. Column storage of the
// input batch is shared (headers copied, payloads untouched); the
// extension column is the getter's own, so the extended batch is never
// zero-copy-stable.
func (c *compiler) compileBind(n *algebra.Bind) (*compiledPlan, error) {
	in, err := c.compilePlan(n.Input)
	if err != nil {
		return nil, err
	}
	f := in.frame.clone()
	f.add(n.Var, "")
	mk, err := c.mkGetter(n.E, in.frame)
	if err != nil {
		return nil, err
	}
	return in.then(f, func(sink batchSink) (batchSink, func() error) {
		get := mk()
		var out vec.Batch
		return func(b *vec.Batch) error {
			col, err := get(b)
			if err != nil {
				return err
			}
			out.Cols = append(out.Cols[:0], b.Cols...)
			out.Cols = append(out.Cols, *col)
			out.N = b.N
			out.Sel = b.Sel
			return sink(&out)
		}, nil
	}), nil
}

// compileGenerate explodes a collection-valued expression: each input row
// repeats once per element, with the element bound in the new slot. The
// output is repacked into boxed batches (explosion changes cardinality).
func (c *compiler) compileGenerate(n *algebra.Generate) (*compiledPlan, error) {
	in, err := c.compilePlan(n.Input)
	if err != nil {
		return nil, err
	}
	f := in.frame.clone()
	f.add(n.Var, "")
	e, err := c.compileExpr(n.E, in.frame)
	if err != nil {
		return nil, err
	}
	inWidth := in.frame.width()
	outWidth := f.width()
	bs := c.opts.BatchSize
	return in.then(f, func(sink batchSink) (batchSink, func() error) {
		p := vec.NewPacker(outWidth, bs, nil, sink)
		buf := make([]values.Value, outWidth)
		row := buf[:inWidth]
		return func(b *vec.Batch) error {
			n := b.Len()
			for k := 0; k < n; k++ {
				i := b.Index(k)
				fillRow(b, i, row)
				coll, err := e(row)
				if err != nil {
					return err
				}
				if coll.IsNull() {
					continue
				}
				if !coll.IsCollection() && coll.Kind() != values.KindArray {
					return fmt.Errorf("jit: generate over %s", coll.Kind())
				}
				for _, el := range coll.Elems() {
					buf[inWidth] = el
					if err := p.Add(buf); err != nil {
						return err
					}
				}
			}
			return nil
		}, p.Flush
	}), nil
}

// buildCompactFactor is the selection-density threshold below which a
// transient build-side batch is compacted before retention: when the
// filter kept at most 1/buildCompactFactor of the batch's physical rows,
// copying just the survivors beats retaining the whole batch. Stable
// (cache-owned) batches are never compacted — their retention is a
// zero-copy header and compaction would allocate.
const buildCompactFactor = 4

// retainForBuild retains one build-side batch, compacting sparse
// transient batches so a heavily filtered build side holds its survivors
// only, not every physical row. compacted reports that the result is
// re-indexed (physical row k = k-th live row of b).
func retainForBuild(b *vec.Batch) (stored vec.Batch, compacted bool) {
	if !b.Stable && b.Sel != nil && b.Len()*buildCompactFactor <= b.N {
		return b.Compact(), true
	}
	return b.Retain(), false
}

// compileJoin stages a hash join: the right side is the build side (its
// materialization is the operator's "output plugin" state), the left
// side probes. Null keys never match. The staged machinery lives in
// join.go — a build (morsel-parallel over partitionable build sides)
// sealed into an immutable shared chain table, probed serially by run
// and morsel-parallel through srcRange when the probe side is
// partitionable.
func (c *compiler) compileJoin(n *algebra.Join) (*compiledPlan, error) {
	l, err := c.compilePlan(n.L)
	if err != nil {
		return nil, err
	}
	r, err := c.compilePlan(n.R)
	if err != nil {
		return nil, err
	}
	f := l.frame.clone()
	for _, s := range r.frame.slots {
		f.add(s.key.varName, s.key.attr)
	}
	js := &joinState{l: l, r: r, lw: l.frame.width(), rw: r.frame.width(), opts: c.opts}
	extra := js.rw
	for _, on := range n.On {
		lk, err := c.mkGetter(on.LExpr, l.frame)
		if err != nil {
			return nil, err
		}
		rk, err := c.mkGetter(on.RExpr, r.frame)
		if err != nil {
			return nil, err
		}
		at := slotOf(on.RExpr, r.frame)
		if at < 0 {
			at, extra = extra, extra+1
		}
		js.lKeys, js.rKeys, js.rKeyAt = append(js.lKeys, lk), append(js.rKeys, rk), append(js.rKeyAt, at)
	}
	return js.plan(f), nil
}
