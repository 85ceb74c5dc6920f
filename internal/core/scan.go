package core

import (
	"context"
	"sync"
	"time"

	"vida/internal/algebra"
	"vida/internal/cache"
	"vida/internal/clean"
	"vida/internal/faultinject"
	"vida/internal/jit"
	"vida/internal/sdg"
	"vida/internal/trace"
	"vida/internal/values"
	"vida/internal/vec"
)

// This file is the cache interposition layer: every scan an executor runs
// goes through one scanSource, which decides between serving the columnar
// cache and reading the raw plug-in (harvesting what it reads), and owns
// what surrounds that decision — the generation check on every harvest,
// cancellation, the scan span and the raw/cache scan counters.

// catalog adapts the engine to algebra.Catalog + jit.SchemaCatalog for a
// query that is neither traced nor cancellable. It is a one-pointer value
// so its interface conversion is allocation-free on the warm query path;
// everything else gets a queryCatalog.
type catalog struct {
	e *Engine
}

// Source implements algebra.Catalog.
func (c catalog) Source(name string) (algebra.Source, bool) {
	return c.e.sourceFor(nil, name, nil)
}

// Description implements jit.SchemaCatalog.
func (c catalog) Description(name string) (*sdg.Description, bool) {
	return c.e.Description(name)
}

// queryCatalog hands out sources that record scan spans under sp and
// abort when ctx is done (either may be nil).
type queryCatalog struct {
	e   *Engine
	ctx context.Context
	sp  *trace.Span
}

// Source implements algebra.Catalog.
func (c *queryCatalog) Source(name string) (algebra.Source, bool) {
	return c.e.sourceFor(c.ctx, name, c.sp)
}

// Description implements jit.SchemaCatalog.
func (c *queryCatalog) Description(name string) (*sdg.Description, bool) {
	return c.e.Description(name)
}

// catalogFor picks the catalog for one query run: sp is the span scans
// record under (nil when disarmed); a ctx that can never be done is
// dropped so background queries skip the per-batch check.
func (e *Engine) catalogFor(ctx context.Context, sp *trace.Span) jit.SchemaCatalog {
	if ctx.Done() == nil {
		if sp == nil {
			return catalog{e: e}
		}
		ctx = nil
	}
	return &queryCatalog{e: e, ctx: ctx, sp: sp}
}

// sourceFor resolves a catalog source for one scan. Published entries are
// immutable, so the entry read under the lock — and the raw plug-in it
// carries — stays valid for the whole scan whatever the catalog does
// meanwhile.
func (e *Engine) sourceFor(ctx context.Context, name string, sp *trace.Span) (algebra.Source, bool) {
	s, ok := e.entry(name)
	if !ok {
		return nil, false
	}
	return &scanSource{e: e, entry: s, ctx: ctx, sp: sp, noCache: e.opts.DisableCaching || s.view != nil}, true
}

// scanSource is the engine's side of the scan contract. IterateBatches
// and OpenRange serve a scan from the columnar cache when it covers the
// requested fields; otherwise they read the raw plug-in and — on the
// sequential path — promote the touched fields into the cache (the
// paper's access-driven cache growth). A raw read runs the source's
// cleaner as a batch stage (cleanStage) before the harvest, so the cache
// holds cleaned columns and a hit cleans nothing. Iterate is the record
// view of the same scan for the reference executor.
type scanSource struct {
	e     *Engine
	entry *sourceEntry
	ctx   context.Context // nil when the query cannot be cancelled
	sp    *trace.Span     // parent for scan spans; nil when disarmed
	// noCache scans (cache-disabled engines, views over caller-owned
	// data) always read raw and never harvest.
	noCache bool
}

// Name implements algebra.Source.
func (s *scanSource) Name() string { return s.entry.desc.Name }

func (s *scanSource) ctxErr() error {
	if s.ctx == nil {
		return nil
	}
	return s.ctx.Err()
}

// scanSpan opens a scan span for this source (nil when disarmed). The
// explicit nil check matters: SetAttr's arguments would box to `any` at
// the call site even for a nil receiver, allocating on the disarmed path.
func (s *scanSource) scanSpan(mode string) *trace.Span {
	if s.sp == nil {
		return nil
	}
	sp := s.sp.Child("scan")
	sp.SetAttr("source", s.entry.desc.Name)
	sp.SetAttr("mode", mode)
	return sp
}

// cacheScanMode labels a cache-hit scan span by the entry's tier.
func cacheScanMode(e *cache.Entry) string {
	if e.Encoded() {
		return "cache-encoded"
	}
	return "cache"
}

// observe puts the per-batch duties of every scan in front of yield: the
// cancellation check and the span's rows/bytes/batches accounting. With
// neither a context nor a span it returns yield unchanged, so the
// disarmed background path allocates no closure.
func (s *scanSource) observe(sp *trace.Span, yield func(*vec.Batch) error) func(*vec.Batch) error {
	ctx := s.ctx
	if ctx == nil && sp == nil {
		return yield
	}
	return func(b *vec.Batch) error {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if sp != nil {
			sp.AddBatches(1)
			sp.AddRows(int64(b.Len()))
			sp.AddBytes(b.MemoryBytes())
		}
		return yield(b)
	}
}

func (s *scanSource) cached(entry *cache.Entry) *cache.ColumnsSource {
	return &cache.ColumnsSource{Entry: entry, Dataset: s.entry.desc.Name, Mgr: s.e.caches, Mem: &s.e.mem}
}

// shouldHarvest decides whether a raw scan promotes what it reads. Under
// memory pressure the scan still answers but the cache does not grow
// (harvest shedding, the graceful step before any query hits the budget
// ceiling); a scan that could never have harvested is not a shed one.
func (s *scanSource) shouldHarvest(cacheable bool) bool {
	if !cacheable {
		return false
	}
	if s.e.mem.underPressure() {
		s.e.harvestSkips.Add(1)
		return false
	}
	return true
}

// buildStats reads the raw reader's cumulative auxiliary-build counters
// (positional map / semi-index). The tracer diffs them around a raw scan
// to attribute a build to the query that paid for it.
func (s *scanSource) buildStats() (builds, nanos int64, event string) {
	if ix, ok := s.entry.file.(indexer); ok {
		b, n := ix.BuildStats()
		return b, n, ix.AuxName() + "_build"
	}
	return 0, 0, ""
}

// loadSidecar loads the positional-map sidecar Register recorded on a
// CSV reader unless something already has (rawcsv.Reader.LoadPosMap), and
// puts the load on sp as a sidecar_load event when this call ran it: the
// query whose scan or plan first needs the map pays for it, and a query
// the cache serves never does.
func loadSidecar(s *sourceEntry, sp *trace.Span) {
	r := s.csv()
	if r == nil {
		return
	}
	if took, ok := r.LoadPosMap(); ok && sp != nil {
		sp.Event("sidecar_load", took, trace.Attr{Key: "source", Val: r.Name()})
	}
}

// install runs a harvest's cache write only while the generation the
// scan read is current (Engine.whileCurrent).
func (s *scanSource) install(put func() error) error {
	return s.e.whileCurrent([]Generation{{Source: s.entry.desc.Name, Gen: s.entry.gen}}, put)
}

// IterateBatches implements jit.BatchSource: a cache hit serves zero-copy
// column windows; a miss streams the plug-in's batches — typed for
// rawcsv, boxed for lifted record plug-ins — while harvesting them into
// typed cache columns.
func (s *scanSource) IterateBatches(fields []string, batchSize int, yield func(*vec.Batch) error) error {
	if err := s.ctxErr(); err != nil {
		return err
	}
	name := s.entry.desc.Name
	cacheable := !s.noCache && len(fields) > 0
	if cacheable {
		if entry, ok := s.e.caches.GetColumns(name, fields); ok {
			s.e.cacheScans.Add(1)
			sp := s.scanSpan(cacheScanMode(entry))
			defer sp.End()
			return s.cached(entry).IterateBatches(fields, batchSize, s.observe(sp, yield))
		}
	}
	s.e.rawScans.Add(1)
	sp := s.scanSpan("raw")
	loadSidecar(s.entry, sp)
	if sp != nil {
		b0, n0, event := s.buildStats()
		defer func() {
			if b1, n1, _ := s.buildStats(); b1 > b0 {
				sp.Event(event, time.Duration(n1-n0), trace.Attr{Key: "builds", Val: b1 - b0})
			}
			sp.End()
		}()
	}
	yield = s.observe(sp, yield)
	// Harvesting is the engine's first victim under memory pressure: each
	// harvested batch reserves its estimated bytes against the global
	// budget, and past the high-water mark (or at the ceiling) the harvest
	// is shed before any query is killed.
	harvest := s.shouldHarvest(cacheable)
	sp.SetAttr("harvest", harvest)
	stage, read := newCleanStage(s.entry.cleaner, fields)
	var builders []*vec.ColBuilder
	if harvest {
		// Pre-size harvest columns when the reader already knows its row
		// count — repeated scans then build cache columns with a single
		// allocation each.
		hint := 0
		if r := s.entry.csv(); r != nil {
			if pm := r.PosMap(); pm.HasRows() {
				hint = pm.NumRows()
			}
		}
		builders = make([]*vec.ColBuilder, len(read))
		for i := range builders {
			builders[i] = vec.NewColBuilder(hint)
		}
	}
	var reserved int64
	defer func() { s.e.mem.release(reserved) }()
	n := 0
	err := s.entry.raw.IterateBatches(read, batchSize, func(b *vec.Batch) error {
		if ferr := faultinject.Hit(faultinject.RefreshDuringScan); ferr != nil {
			return ferr
		}
		all, b := stage.apply(b)
		if harvest {
			// Harvest before the JIT refines the selection: the cache
			// stores every scanned row the cleaner keeps, filters apply
			// per query. The plug-in's vectors are retained in their
			// representation, so the entry serves the next scan unboxed;
			// mixed-type columns demote to boxed inside the builder.
			delta := all.MemoryBytes() + faultinject.Value(faultinject.AllocSpike)
			if rerr := s.e.mem.reserve(delta); rerr != nil {
				harvest, builders = false, nil
				s.e.harvestSkips.Add(1)
			} else {
				reserved += delta
				for c := range read {
					builders[c].Append(&all.Cols[c], all)
				}
			}
		}
		n += b.Len()
		return yield(b)
	})
	if err != nil || !harvest {
		return err
	}
	cols := make(map[string]vec.Col, len(read))
	for i, f := range read {
		cols[f] = builders[i].Finish()
	}
	return s.install(func() error {
		if err := s.e.caches.PutColumnVectors(name, n, cols); err != nil {
			return err
		}
		// The harvesting scan just built (or extended) the positional map
		// as a side effect; persist it so a restart skips the first-touch
		// rebuild.
		s.e.saveAux(s.entry)
		return nil
	})
}

// OpenRange implements jit.RangeBatchSource for morsel-parallel scans:
// from the columnar cache when it covers the fields (zero-copy, with
// deferred hit accounting), else from the raw plug-in's own range scan.
// Raw range scans skip cache promotion — ranges arrive out of order — but
// a source only becomes range-capable after a sequential first touch,
// which does promote.
func (s *scanSource) OpenRange(fields []string) (func(lo, hi, batchSize int, yield func(*vec.Batch) error) error, int, bool) {
	if len(fields) == 0 {
		return nil, 0, false
	}
	name := s.entry.desc.Name
	var scan func(lo, hi, batchSize int, yield func(*vec.Batch) error) error
	var n int
	mode := "raw"
	if !s.noCache {
		if entry, ok := s.e.caches.Peek(name, cache.LayoutColumns); ok && entry.HasColumns(fields) {
			if scan, n, ok = s.cached(entry).OpenRange(fields); ok {
				mode = cacheScanMode(entry)
			}
		}
	}
	if mode == "raw" {
		rs, ok := s.entry.raw.(jit.RangeBatchSource)
		if !ok {
			return nil, 0, false
		}
		// No scan span is open yet, and the JIT may still fall back to
		// IterateBatches: the load lands on the query's span.
		loadSidecar(s.entry, s.sp)
		stage, read := newCleanStage(s.entry.cleaner, fields)
		if scan, n, ok = rs.OpenRange(read); !ok {
			return nil, 0, false
		}
		if stage != nil {
			raw, free := scan, &stageFree{proto: stage}
			scan = func(lo, hi, batchSize int, yield func(*vec.Batch) error) error {
				var morsel *cleanStage
				defer func() { free.put(morsel) }()
				return raw(lo, hi, batchSize, func(b *vec.Batch) error {
					if morsel == nil {
						morsel = free.take()
					}
					_, b = morsel.apply(b)
					return yield(b)
				})
			}
		}
	}
	// The range scan span has no single end point (morsels finish with the
	// job); it is opened on the first morsel and closed by Tracer.Finish.
	// once.Do's memory barrier publishes sp to every morsel worker.
	var sp *trace.Span
	var once sync.Once
	return func(lo, hi, batchSize int, yield func(*vec.Batch) error) error {
		once.Do(func() {
			if mode == "raw" {
				s.e.rawScans.Add(1)
			} else {
				s.e.caches.Touch(name)
				s.e.cacheScans.Add(1)
			}
			sp = s.scanSpan(mode)
			sp.SetAttr("range", true)
		})
		return scan(lo, hi, batchSize, s.observe(sp, yield))
	}, n, true
}

// ctxRowStride bounds how many whole records stream between context
// checks (batch scans check per batch).
const ctxRowStride = 256

// Iterate implements algebra.Source: the batch scan lowered to records,
// so every executor reads — and builds — the one columnar entry. A
// whole-record scan of a record-typed source is the scan of every
// attribute, as in the JIT. An open-schema source (JSON without a
// schema) has no columnar form: its whole objects stream from the raw
// reader and are not harvested.
func (s *scanSource) Iterate(fields []string, yield func(values.Value) error) error {
	if len(fields) == 0 {
		if t := s.entry.desc.IterationType(); t != nil && t.Kind == sdg.TRecord {
			fields = t.AttrNames()
		}
	}
	if len(fields) > 0 {
		return s.IterateBatches(fields, vec.DefaultBatchSize, func(b *vec.Batch) error {
			return vec.BoxRecords(b, fields, yield)
		})
	}
	if err := s.ctxErr(); err != nil {
		return err
	}
	s.e.rawScans.Add(1)
	sp := s.scanSpan("raw")
	sp.SetAttr("harvest", false)
	defer sp.End()
	n := 0
	c := s.entry.cleaner
	return s.entry.src.Iterate(nil, func(v values.Value) error {
		if n++; s.ctx != nil && n%ctxRowStride == 0 {
			if err := s.ctx.Err(); err != nil {
				return err
			}
		}
		if c != nil {
			var keep bool
			if v, keep = c.Apply(v); !keep {
				return nil
			}
		}
		sp.AddRows(1)
		return yield(v)
	})
}

// cleanStage is a source's cleaner (paper §7) as a stage of one raw scan,
// run on each batch the plug-in yields before the harvest or the query
// sees it. The scan reads what the cleaner needs — the requested fields,
// then the attributes of its SkipRow rules (clean.Cleaner.Reads) — and
// the query sees the requested columns. A stage holds one batch's
// headers, so each serial scan and each morsel runs its own; a nil stage
// (no cleaner) passes batches through.
type cleanStage struct {
	c        *clean.Cleaner
	read     []string
	width    int       // the requested fields, read's prefix
	all, out vec.Batch // the cleaned batch: every column read, the requested ones
	// bufs is the repair storage of each column read, reused batch after
	// batch; the first batch allocates it. Concurrent morsels each hold
	// their own copy of the stage (stageFree).
	bufs []vec.Col
}

// stageFree is one range scan's free list of stage copies: a morsel
// takes a copy at its first batch and puts it back when it ends, so
// concurrent morsels never share repair storage while later morsels
// reuse what earlier ones allocated.
type stageFree struct {
	proto *cleanStage
	mu    sync.Mutex
	free  []*cleanStage
}

func (f *stageFree) take() *cleanStage {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.free); n > 0 {
		st := f.free[n-1]
		f.free = f.free[:n-1]
		return st
	}
	st := *f.proto
	return &st
}

// put returns a morsel's copy; nil (a morsel that saw no batch) is a
// no-op.
func (f *stageFree) put(st *cleanStage) {
	if st == nil {
		return
	}
	f.mu.Lock()
	f.free = append(f.free, st)
	f.mu.Unlock()
}

// newCleanStage returns the stage of a raw scan of fields under c and
// the columns the scan asks the plug-in for.
func newCleanStage(c *clean.Cleaner, fields []string) (*cleanStage, []string) {
	if c == nil {
		return nil, fields
	}
	st := &cleanStage{c: c, read: c.Reads(fields), width: len(fields)}
	return st, st.read
}

// apply cleans the raw batch b and returns it as the harvest keeps it
// (every column read) and as the query sees it (the requested columns).
// Both share b's storage except the columns a repair copied.
func (st *cleanStage) apply(b *vec.Batch) (all, out *vec.Batch) {
	if st == nil {
		return b, b
	}
	if st.bufs == nil {
		st.bufs = make([]vec.Col, len(st.read))
	}
	st.all = vec.Batch{Cols: append(st.all.Cols[:0], b.Cols...), N: b.N, Sel: b.Sel, Stable: b.Stable}
	st.c.Clean(&st.all, st.read, st.bufs)
	st.out = st.all
	st.out.Cols = st.all.Cols[:st.width:st.width]
	return &st.all, &st.out
}
