// Package core implements the ViDa engine: the catalog of raw data
// sources, the query lifecycle (parse → type-check → normalize →
// translate → optimize → generate/execute), the cache interposition layer
// that makes previously-touched fields nearly free, and the live cost
// model the optimizer consults. This is where the paper's pieces meet:
// "data analysts build databases just-in-time by launching queries as
// opposed to building databases to launch queries" (§2).
package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"vida/internal/algebra"
	"vida/internal/cache"
	"vida/internal/clean"
	"vida/internal/faultinject"
	"vida/internal/jit"
	"vida/internal/mcl"
	"vida/internal/optimizer"
	"vida/internal/rawarr"
	"vida/internal/rawcsv"
	"vida/internal/rawfile"
	"vida/internal/rawjson"
	"vida/internal/rawxls"
	"vida/internal/sched"
	"vida/internal/sdg"
	"vida/internal/trace"
	"vida/internal/values"
)

// ErrClosed is returned by queries against a closed engine.
var ErrClosed = errors.New("core: engine closed")

// ExecMode selects the execution engine.
type ExecMode uint8

// The execution modes.
const (
	ModeJIT       ExecMode = iota // generated operators (default)
	ModeReference                 // the interpreter, the JIT's oracle
)

// String returns the mode name.
func (m ExecMode) String() string {
	switch m {
	case ModeJIT:
		return "jit"
	case ModeReference:
		return "reference"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Options configures an Engine.
type Options struct {
	// Mode selects the executor (default ModeJIT), fixed for the
	// engine's lifetime.
	Mode ExecMode
	// CacheBudgetBytes bounds the data caches (<=0: unlimited).
	CacheBudgetBytes int64
	// CacheHotBytes bounds the cache's hot (decoded vector) tier; past
	// it, least-recently-used columnar entries are held encoded in
	// memory and decoded per block on demand (<=0: never encode).
	CacheHotBytes int64
	// CacheDir, when set, persists encoded cache blocks and positional
	// maps there so a restarted engine serves its first query from
	// rehydrated cache state instead of re-scanning the raw files.
	CacheDir string
	// Adaptive enables the sampling re-optimization round (paper §5).
	Adaptive bool
	// DisableCaching turns the cache layer off (for experiments).
	DisableCaching bool
	// Pool is the shared morsel scheduler for parallel scans and for the
	// helpers of a raw CSV's chunked first touch (default
	// sched.Default()). A query server injects one pool so concurrent
	// queries share workers instead of oversubscribing cores.
	Pool *sched.Pool
	// Workers bounds each query's morsel fan-out and the goroutines
	// tokenizing a cold CSV (0 = GOMAXPROCS; 1 forces serial execution
	// and a one-chunk first touch). The pool's own size bounds actual
	// concurrency — Workers controls how finely a query's scans split,
	// which is how benchmarks pin serial and parallel plans to the same
	// pool.
	Workers int
	// MemoryBudgetBytes bounds the engine's tracked execution memory
	// (collection results, join build sides, dedup tables, in-flight
	// cache harvests) across all queries (<=0: unlimited). Under
	// pressure the engine sheds cache harvesting first; at the ceiling
	// queries abort with ErrMemoryBudget instead of OOM-ing the process.
	MemoryBudgetBytes int64
	// QueryMemoryBudgetBytes bounds each single query's tracked bytes
	// (<=0: unlimited).
	QueryMemoryBudgetBytes int64
}

// Stats is a snapshot of engine activity.
type Stats struct {
	Queries           int64
	QueriesFromCache  int64 // every scan served by the cache layer
	QueriesTouchedRaw int64
	RawScans          int64
	CacheScans        int64
	Cache             cache.Stats
	AuxiliaryBytes    int64 // positional maps (as loaded or built so far) + semi-indexes
	RawFileBytes      int64 // distinct file generations the catalog holds, each once
	Memory            MemoryStats
	PanicsRecovered   int64 // execution panics contained as query errors
	// Kernel staging tallies from the JIT compiler: how many pipeline
	// stages (filters, binds, reduce heads) were staged as vectorized
	// kernels vs. row-wise boxed fallbacks, across all queries.
	KernelStagesVectorized int64
	KernelStagesBoxed      int64
	// Grouped-aggregation tallies from the JIT's hash fold: completed
	// grouped folds, total distinct groups built, the largest single
	// group table observed (bytes), and morsel partials merged.
	GroupFolds         int64
	GroupsBuilt        int64
	GroupTableMaxBytes int64
	GroupPartialMerges int64
	// Hash-join tallies from the JIT's parallel join: sealed build
	// tables, those sealed as a key-indexed directory, build-side
	// entries indexed, probe matches emitted, and the largest single
	// sealed join table observed (bytes).
	JoinFolds         int64
	JoinDenseFolds    int64
	JoinBuildRows     int64
	JoinProbeRows     int64
	JoinTableMaxBytes int64
	// Refresh tallies, per changed source: files that only grew and kept
	// their positional map and cached columns (extended by the tail rows
	// and bytes counted here), and files whose derived state was dropped
	// wholesale.
	RefreshAppends      int64
	RefreshReplacements int64
	RefreshTailRows     int64
	RefreshTailBytes    int64
	// Plan-cache hits and misses and catalog changes published; a query
	// service reports them as its own counters.
	PlanHits, PlanMisses, Publishes int64 `json:"-"`
}

// sourceEntry is one generation of a registered source. Entries are
// immutable once published in Engine.sources — every catalog change
// publishes a fresh one (see publish) — so a scan keeps reading the entry
// it resolved without holding the catalog lock, and whatever it derives
// from that entry is valid exactly while the entry is still published.
// A file reader is one generation of its file, so the entry pins the
// bytes its scans read too.
type sourceEntry struct {
	gen  int64 // this generation's number, given by publish
	desc *sdg.Description
	// The plug-in — a file reader, or a caller's view (RegisterSource) —
	// and the cleaner attached to it (paper §7).
	file    plugin
	view    algebra.Source
	cleaner *clean.Cleaner
	// src is the plug-in and raw its batch view (jit.Lift), which scans
	// read and clean (scanSource).
	src algebra.Source
	raw jit.BatchSource
}

// plugin is a file reader: a source over one generation of its file,
// which it never reads again. Refresh builds the next one over the
// file's successor (Engine.Refresh).
type plugin interface {
	algebra.Source
	File() *rawfile.Generation
}

// readers builds each file format's plug-in over one generation of its
// file.
var readers = map[sdg.Format]func(*sdg.Description, *rawfile.Generation) (plugin, error){
	sdg.FormatCSV:   reader(rawcsv.New),
	sdg.FormatJSON:  reader(rawjson.New),
	sdg.FormatArray: reader(rawarr.New),
	sdg.FormatXLS:   reader(rawxls.New),
}

// reader returns a format's constructor as a plug-in constructor, whose
// plug-in is not to be used when it fails.
func reader[R plugin](build func(*sdg.Description, *rawfile.Generation) (R, error)) func(*sdg.Description, *rawfile.Generation) (plugin, error) {
	return func(desc *sdg.Description, file *rawfile.Generation) (plugin, error) { return build(desc, file) }
}

// csv returns the entry's reader when it is a CSV file's (nil for no
// entry): the one format with a posmap sidecar, a scheduler, spilled cache
// blocks and a refresh that keeps what it built (rawcsv.Reader.Follow).
func (s *sourceEntry) csv() *rawcsv.Reader {
	if s == nil {
		return nil
	}
	r, _ := s.file.(*rawcsv.Reader)
	return r
}

// indexer is a plug-in that builds an auxiliary index over its file as
// queries touch it (paper §5): a CSV positional map, a JSON semi-index. It
// reports the index's name, its size, and the count and wall time of its
// builds.
type indexer interface {
	AuxName() string
	AuxBytes() int64
	BuildStats() (builds, nanos int64)
}

// known returns the file generations published entries over path hold: a
// reader registered or refreshed over path shares the one that describes
// the file (rawfile.Load), so aliases of a file hold one copy.
func (e *Engine) known(path string) []*rawfile.Generation {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []*rawfile.Generation
	for _, s := range e.sources {
		if s.file != nil && s.desc.Path == path {
			out = append(out, s.file.File())
		}
	}
	return out
}

// derive sets src and raw from the plug-in, and returns s.
func (s *sourceEntry) derive() *sourceEntry {
	s.src = s.view
	if s.file != nil {
		s.src = s.file
	}
	s.raw = jit.Lift(s.src)
	return s
}

// Generation names one generation of one source by the number publish
// gave it. Harvests, plans and cached results record the generations they
// read and are valid while all are still published (Engine.Current);
// numbers are never reused, so one published before and after some work
// was published throughout it.
type Generation struct {
	Source string
	Gen    int64
}

// The plan cache is sharded so concurrent warm Prepare calls don't
// serialize on one mutex (reads take a shard RLock); the shard count must
// be a power of two. A full shard evicts a random entry per insert.
const (
	planShardCount = 16
	planShardCap   = 512 / planShardCount
)

// planShard is one stripe of the plan cache.
type planShard struct {
	mu sync.RWMutex
	m  map[string]*planEntry
}

// planEntry caches the outcome of the query frontend for one query text.
// Parameterized queries cache like any other: the key is the query text
// with its $n placeholders, so same-shape queries with different
// constants share one frontend run. It is served while the generations
// of the sources it read are current.
type planEntry struct {
	plan   *algebra.Reduce
	Type   *sdg.Type // the result type
	params []string
	reads  []Generation
}

// Engine is one just-in-time database instance over raw files.
type Engine struct {
	mu      sync.RWMutex
	opts    Options
	sources map[string]*sourceEntry
	caches  *cache.Manager

	queries      atomic.Int64
	cacheQueries atomic.Int64
	rawQueries   atomic.Int64
	rawScans     atomic.Int64
	cacheScans   atomic.Int64

	mem          memGovernor
	memKills     atomic.Int64
	harvestSkips atomic.Int64
	panics       atomic.Int64

	// counters holds the always-on kernel, group-by and join tallies the
	// generated pipelines record (jit.Options.Counters).
	counters jit.Counters

	// refreshMu serializes Refresh: each call sees the cache state its
	// predecessor left, so an append is extended from exactly the row
	// count the reader reports.
	refreshMu           sync.Mutex
	refreshAppends      atomic.Int64
	refreshReplacements atomic.Int64
	refreshTailRows     atomic.Int64
	refreshTailBytes    atomic.Int64

	planShards [planShardCount]planShard
	planHits   atomic.Int64
	planMisses atomic.Int64

	published int64 // catalog changes so far; numbers generations (under mu)

	// closeMu gates the query lifecycle for graceful shutdown: queries
	// hold it shared for their whole run, Close takes it exclusively, so
	// Close returns only after in-flight queries drain.
	closeMu sync.RWMutex
	closed  bool
}

// NewEngine creates an engine.
func NewEngine(opts Options) *Engine {
	e := &Engine{
		opts:    opts,
		sources: map[string]*sourceEntry{},
		caches: cache.NewWithConfig(cache.Config{
			BudgetBytes: opts.CacheBudgetBytes,
			HotBytes:    opts.CacheHotBytes,
			SpillDir:    opts.CacheDir,
		}),
	}
	e.mem.limit = opts.MemoryBudgetBytes
	if opts.CacheDir != "" {
		if err := os.MkdirAll(opts.CacheDir, 0o755); err != nil {
			slog.Warn("core: cache dir unusable", "dir", opts.CacheDir, "err", err)
		}
	}
	for i := range e.planShards {
		e.planShards[i].m = map[string]*planEntry{}
	}
	return e
}

// Caches exposes the cache manager (CLI, experiments).
func (e *Engine) Caches() *cache.Manager { return e.caches }

// Register adds a raw source from its description, opening the
// format-appropriate reader.
func (e *Engine) Register(desc *sdg.Description) error {
	if err := desc.Validate(); err != nil {
		return err
	}
	build, ok := readers[desc.Format]
	if !ok {
		return fmt.Errorf("core: format %s needs RegisterSource", desc.Format)
	}
	file, err := rawfile.Load(desc.Path, e.known(desc.Path)...)
	if err != nil {
		return fmt.Errorf("core: %s: %w", desc.Name, err)
	}
	entry := &sourceEntry{desc: desc}
	if entry.file, err = build(desc, file); err != nil {
		return err
	}
	r := entry.csv()
	warm := r != nil && e.opts.CacheDir != ""
	if r != nil {
		r.UseScheduler(e.opts.Pool, e.opts.Workers)
	}
	// Warm restart: the reader records the posmap sidecar while it is
	// private and loads it (trusted for the mtime+size read) when a scan,
	// the cost model or a Refresh first needs the map, so a restart the
	// cache answers never decodes it; the spill (keyed by the content
	// read) lands only while the generation is still current.
	if warm {
		r.UseAux(e.auxPath(desc.Name))
	}
	if err := e.publish(desc.Name, add(entry.derive())); err != nil {
		return err
	}
	_ = faultinject.Hit(faultinject.RegisterPublished) // a pause point: see its doc
	if warm {
		_ = e.whileCurrent([]Generation{{Source: desc.Name, Gen: entry.gen}}, func() error {
			e.caches.Rehydrate(desc.Name, r.Generation())
			return nil
		})
	}
	return nil
}

// change derives a dataset's next catalog entry from the current one (nil
// when absent): the next entry (nil removes the source) and whether the
// cache entries derived so far stay valid — or an error, and nothing
// moves.
type change func(cur *sourceEntry) (next *sourceEntry, keep bool, err error)

// publish is the one way the catalog changes. Under the exclusive catalog
// lock it derives the dataset's next entry from the current one, numbers
// it as a new generation, swaps it in, drops the dataset's cache entries
// unless the change keeps them and points the spill key at the next
// entry. A harvest installs under the shared lock and only onto the
// generation it scanned (scanSource.install), so it lands wholly before a
// change — which then drops or extends it — or not at all.
func (e *Engine) publish(name string, ch change) error {
	_ = faultinject.Hit(faultinject.Publish) // a pause point: see its doc
	e.mu.Lock()
	next, keep, err := ch(e.sources[name])
	if err != nil {
		e.mu.Unlock()
		return err
	}
	e.published++
	if next == nil {
		delete(e.sources, name)
	} else {
		next.gen = e.published
		e.sources[name] = next
	}
	if !keep {
		e.caches.Invalidate(name)
	}
	// Only an uncleaned CSV generation spills: a cleaned one's columns are
	// not the file's, and a removed source's reader must not stay reachable.
	var gen func() string
	if r := next.csv(); r != nil && next.cleaner == nil {
		gen = r.Generation
	}
	e.caches.SetSpillKey(name, gen)
	e.mu.Unlock()
	return nil
}

// add registers entry under a new name, keeping state: the cache holds
// nothing of an absent name but what Rehydrate is about to load for it.
func add(entry *sourceEntry) change {
	return func(cur *sourceEntry) (*sourceEntry, bool, error) {
		if cur != nil {
			return nil, false, fmt.Errorf("core: source %q already registered", entry.desc.Name)
		}
		return entry, true, nil
	}
}

// auxPath is where a dataset's positional-map sidecar lives inside the
// cache directory (hashed name, like the spill files).
func (e *Engine) auxPath(name string) string {
	h := fnv.New64a()
	h.Write([]byte(name))
	return fmt.Sprintf("%s/p-%016x.posmap", e.opts.CacheDir, h.Sum64())
}

// saveAux persists a CSV source's positional map into the cache
// directory while the entry is current (whileCurrent), so an older
// generation's map never overwrites a newer one's. Failures only cost
// the next restart's first touch.
func (e *Engine) saveAux(entry *sourceEntry) {
	r := entry.csv()
	if e.opts.CacheDir == "" || r == nil {
		return
	}
	if err := r.SaveAux(e.auxPath(entry.desc.Name)); err != nil {
		slog.Warn("core: saving posmap sidecar failed", "dataset", entry.desc.Name, "err", err)
	}
}

// RegisterSource adds an arbitrary source (in-memory data, a baseline
// store wrapper, ...) with its description.
func (e *Engine) RegisterSource(desc *sdg.Description, src algebra.Source) error {
	return e.publish(desc.Name, add((&sourceEntry{desc: desc, view: src}).derive()))
}

// AttachCleaner installs a data cleaner on a registered source, in place
// of any attached before. Caches for the source are dropped:
// previously-promoted values may contain uncleaned data.
func (e *Engine) AttachCleaner(name string, c *clean.Cleaner) error {
	return e.publish(name, func(cur *sourceEntry) (*sourceEntry, bool, error) {
		if cur == nil {
			return nil, false, fmt.Errorf("core: unknown source %q", name)
		}
		next := *cur
		next.cleaner = c
		return next.derive(), false, nil
	})
}

// Deregister removes a source and its cached data.
func (e *Engine) Deregister(name string) {
	_ = e.publish(name, func(*sourceEntry) (*sourceEntry, bool, error) { return nil, false, nil }) // cannot fail
}

// Sources lists registered source names.
func (e *Engine) Sources() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.sources))
	for n := range e.sources {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// entry returns the published generation of a source.
func (e *Engine) entry(name string) (*sourceEntry, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	s, ok := e.sources[name]
	return s, ok
}

// Description returns the catalog entry of a source (jit.SchemaCatalog).
func (e *Engine) Description(name string) (*sdg.Description, bool) {
	if s, ok := e.entry(name); ok {
		return s.desc, true
	}
	return nil, false
}

// Current reports whether every generation in gens is still published:
// the one validity test of what was derived from the catalog.
func (e *Engine) Current(gens []Generation) bool {
	current := false
	_ = e.whileCurrent(gens, func() error { current = true; return nil })
	return current
}

// whileCurrent runs put only if every generation in gens is published,
// under the shared catalog lock: what put installs (a harvest, a
// rehydrated spill, a sidecar) lands wholly before a catalog change or
// not at all, silently, as stale.
func (e *Engine) whileCurrent(gens []Generation, put func() error) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, g := range gens {
		if s := e.sources[g.Source]; s == nil || s.gen != g.Gen {
			return nil
		}
	}
	return put()
}

// Close marks the engine closed and waits for in-flight queries to
// drain. Subsequent queries fail with ErrClosed; sources and caches stay
// readable for inspection.
func (e *Engine) Close() error {
	e.closeMu.Lock()
	e.closed = true
	e.closeMu.Unlock()
	return nil
}

// Ping reports whether the engine accepts queries (ErrClosed after
// Close).
func (e *Engine) Ping() error {
	if err := e.beginQuery(); err != nil {
		return err
	}
	e.endQuery()
	return nil
}

// beginQuery takes a shared slot in the close gate; endQuery releases it.
func (e *Engine) beginQuery() error {
	e.closeMu.RLock()
	if e.closed {
		e.closeMu.RUnlock()
		return ErrClosed
	}
	return nil
}

func (e *Engine) endQuery() { e.closeMu.RUnlock() }

func (e *Engine) planShard(src string) *planShard {
	h := uint32(2166136261)
	for i := 0; i < len(src); i++ {
		h ^= uint32(src[i])
		h *= 16777619
	}
	return &e.planShards[h&(planShardCount-1)]
}

// StatsSnapshot returns engine counters.
func (e *Engine) StatsSnapshot() Stats {
	var aux, raw int64
	e.mu.RLock()
	published := e.published
	held := map[*rawfile.Generation]bool{}
	for _, s := range e.sources {
		if s.file != nil && !held[s.file.File()] {
			held[s.file.File()] = true
			raw += int64(len(s.file.File().Bytes()))
		}
		if ix, ok := s.file.(indexer); ok {
			aux += ix.AuxBytes()
		}
	}
	e.mu.RUnlock()
	return Stats{
		Queries:           e.queries.Load(),
		QueriesFromCache:  e.cacheQueries.Load(),
		QueriesTouchedRaw: e.rawQueries.Load(),
		RawScans:          e.rawScans.Load(),
		CacheScans:        e.cacheScans.Load(),
		Cache:             e.caches.Stats(),
		AuxiliaryBytes:    aux,
		RawFileBytes:      raw,
		Memory: MemoryStats{
			TrackedBytes:  e.mem.used.Load(),
			BudgetBytes:   e.mem.limit,
			QueryKills:    e.memKills.Load(),
			HarvestSkips:  e.harvestSkips.Load(),
			UnderPressure: e.mem.underPressure(),
		},
		PanicsRecovered:        e.panics.Load(),
		KernelStagesVectorized: e.counters.KernelsVectorized.Load(),
		KernelStagesBoxed:      e.counters.KernelsBoxed.Load(),
		GroupFolds:             e.counters.GroupFolds.Load(),
		GroupsBuilt:            e.counters.GroupsBuilt.Load(),
		GroupTableMaxBytes:     e.counters.GroupTableMaxBytes.Load(),
		GroupPartialMerges:     e.counters.GroupPartialMerges.Load(),
		JoinFolds:              e.counters.JoinFolds.Load(),
		JoinDenseFolds:         e.counters.JoinDenseFolds.Load(),
		JoinBuildRows:          e.counters.JoinBuildRows.Load(),
		JoinProbeRows:          e.counters.JoinProbeRows.Load(),
		JoinTableMaxBytes:      e.counters.JoinTableMaxBytes.Load(),
		RefreshAppends:         e.refreshAppends.Load(),
		RefreshReplacements:    e.refreshReplacements.Load(),
		RefreshTailRows:        e.refreshTailRows.Load(),
		RefreshTailBytes:       e.refreshTailBytes.Load(),
		PlanHits:               e.planHits.Load(),
		PlanMisses:             e.planMisses.Load(),
		Publishes:              published,
	}
}

// ---------------------------------------------------------------------------
// Live cost model
// ---------------------------------------------------------------------------

// liveCostModel consults reader state: cache residency, positional-map and
// semi-index coverage (paper §5: the wrapper "takes into account any
// auxiliary structures present, and normalizes access costs").
type liveCostModel struct {
	e  *Engine
	sp *trace.Span // the optimize span, which a sidecar load the model pays for lands on
}

// SourceRows implements optimizer.CostModel.
func (m liveCostModel) SourceRows(name string) int64 {
	s, ok := m.e.entry(name)
	if !ok {
		return 1000
	}
	switch r := s.file.(type) {
	case *rawcsv.Reader:
		if pm := r.LoadedPosMap(); pm.HasRows() {
			return int64(pm.NumRows())
		}
		// Estimate from file size: ~64 bytes per row.
		return r.SizeBytes()/64 + 1
	case *rawjson.Reader:
		if r.SemiIndex().HasObjects() {
			return int64(r.SemiIndex().NumObjects())
		}
		return r.SizeBytes()/256 + 1
	case *rawarr.Reader:
		hdr := r.Header()
		return int64(hdr.Cells())
	case *rawxls.Reader:
		return int64(r.NumRows())
	default:
		return 1000
	}
}

// PerTupleCost implements optimizer.CostModel.
func (m liveCostModel) PerTupleCost(name string, fields []string) float64 {
	nf := len(fields)
	if nf == 0 {
		nf = 4 // whole-record scans: assume a handful of attributes
	}
	if !m.e.opts.DisableCaching && len(fields) > 0 && m.e.caches.PeekColumns(name, fields) {
		return optimizer.CostCache * float64(nf)
	}
	s, ok := m.e.entry(name)
	if !ok {
		return float64(nf)
	}
	switch r := s.file.(type) {
	case *rawcsv.Reader:
		loadSidecar(s, m.sp)
		if len(fields) > 0 && r.Mapped(fields) {
			return optimizer.CostCSVMapped * float64(nf)
		}
		return optimizer.CostCSVCold * float64(nf)
	case *rawjson.Reader:
		if ix := r.SemiIndex(); len(fields) > 0 && ix.HasObjects() && ix.HasFields(fields) {
			return optimizer.CostJSONMapped * float64(nf)
		}
		return optimizer.CostJSONCold * float64(nf)
	case *rawarr.Reader:
		return optimizer.CostArray * float64(nf)
	case *rawxls.Reader:
		return optimizer.CostXLS * float64(nf)
	default:
		return optimizer.CostTable * float64(nf)
	}
}

// CheapestField implements optimizer.CostModel.
func (m liveCostModel) CheapestField(name string) (string, bool) {
	s, ok := m.e.entry(name)
	if !ok {
		return "", false
	}
	rt := s.desc.RowType()
	if rt.Kind == sdg.TRecord && len(rt.Attrs) > 0 {
		return rt.Attrs[0].Name, true
	}
	return "", false
}

// ---------------------------------------------------------------------------
// Query lifecycle
// ---------------------------------------------------------------------------

// Prepared is a compiled query ready for (repeated) execution. Queries
// may contain bind parameters ($name, or $1..$n positionally); they are
// type-checked as holes at prepare time and substituted into a copy of
// the plan at execution time, so one prepared statement serves
// concurrent runs with different bindings without re-running the
// frontend.
type Prepared struct {
	engine *Engine
	*planEntry
}

// Generations returns the generations the plan read (see Generation). The
// slice is shared and must not be modified.
func (p *Prepared) Generations() []Generation { return p.reads }

// ParamNames returns the query's bind-parameter names in
// first-occurrence order (positional parameters are named "1".."n").
func (p *Prepared) ParamNames() []string {
	return append([]string(nil), p.params...)
}

// ParamError reports invalid bind-parameter usage — a missing or
// undeclared value. It is the caller's fault, not the engine's, and
// serving layers map it to a client error.
type ParamError struct{ Msg string }

func (e *ParamError) Error() string { return "core: " + e.Msg }

// boundPlan validates the bindings and substitutes them into a copy of
// the plan. With no parameters declared and none given, the cached plan
// is returned as-is.
func (p *Prepared) boundPlan(params map[string]values.Value) (*algebra.Reduce, error) {
	for _, name := range p.params {
		if _, ok := params[name]; !ok {
			return nil, &ParamError{Msg: fmt.Sprintf("missing value for parameter $%s", name)}
		}
	}
	if len(params) == 0 {
		return p.plan, nil
	}
	declared := map[string]bool{}
	for _, name := range p.params {
		declared[name] = true
	}
	for name := range params {
		if !declared[name] {
			return nil, &ParamError{Msg: fmt.Sprintf("query has no parameter $%s", name)}
		}
	}
	return algebra.BindParams(p.plan, params), nil
}

// Prepare runs the full frontend: parse, type-check, normalize, translate
// and optimize.
func (e *Engine) Prepare(src string) (*Prepared, error) {
	return e.PrepareCtx(context.Background(), src)
}

// PrepareCtx is Prepare with a cancellation context.
func (e *Engine) PrepareCtx(ctx context.Context, src string) (*Prepared, error) {
	fsp := trace.FromContext(ctx).Root().Child("frontend")
	defer fsp.End()
	sh := e.planShard(src)
	sh.mu.RLock()
	cached := sh.m[src]
	sh.mu.RUnlock()
	if cached != nil && e.Current(cached.reads) {
		e.planHits.Add(1)
		fsp.SetAttr("plan_cache", "hit")
		return &Prepared{engine: e, planEntry: cached}, nil
	}
	e.planMisses.Add(1)
	fsp.SetAttr("plan_cache", "miss")
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	psp := fsp.Child("parse")
	expr, err := mcl.Parse(src)
	psp.End()
	if err != nil {
		return nil, err
	}
	// Declared parameters come from the source text (pre-normalization),
	// so the contract the user sees is stable even when a rewrite folds a
	// placeholder away.
	params := mcl.Params(expr)
	// One catalog critical section yields the type environment (sources
	// type as bags of what their scans yield), the source set and the
	// generations of the sources among the query's free names.
	tsp := fsp.Child("typecheck")
	env, sources := map[string]*sdg.Type{}, map[string]bool{}
	var reads []Generation
	e.mu.RLock()
	for n, s := range e.sources {
		sources[n] = true
		env[n] = sdg.Unknown
		if s.desc.Schema != nil {
			env[n] = sdg.Bag(s.desc.IterationType())
		}
	}
	for _, n := range mcl.FreeVars(expr) {
		if s, ok := e.sources[n]; ok {
			reads = append(reads, Generation{Source: n, Gen: s.gen})
		}
	}
	e.mu.RUnlock()
	typ, err := mcl.Check(expr, mcl.NewTypeEnv(env))
	tsp.End()
	if err != nil {
		return nil, err
	}
	osp := fsp.Child("optimize")
	defer osp.End()
	plan, err := algebra.Translate(mcl.Normalize(expr), sources)
	if err != nil {
		return nil, err
	}
	cm := liveCostModel{e: e, sp: osp}
	var opt *algebra.Reduce
	if e.opts.Adaptive {
		opt, err = optimizer.AdaptiveOptimize(plan, catalog{e: e}, cm)
		if err != nil {
			return nil, err
		}
	} else {
		opt = optimizer.Optimize(plan, cm)
	}
	_ = faultinject.Hit(faultinject.PlanInstall) // a pause point: see its doc
	sh.mu.Lock()
	for victim := range sh.m { // map order: a random victim
		if len(sh.m) < planShardCap {
			break
		}
		delete(sh.m, victim)
	}
	entry := &planEntry{plan: opt, Type: typ, params: params, reads: reads}
	sh.m[src] = entry
	sh.mu.Unlock()
	return &Prepared{engine: e, planEntry: entry}, nil
}

// Run executes the prepared plan.
func (p *Prepared) Run() (values.Value, error) {
	return p.RunCtx(context.Background())
}

// RunCtx executes the prepared plan under a cancellation context: a done
// ctx stops morsel dispatch in the scheduler and aborts serial scans at
// batch/row-group granularity, so a cancelled query releases its workers
// mid-file instead of running to completion.
func (p *Prepared) RunCtx(ctx context.Context) (values.Value, error) {
	return p.RunParamsCtx(ctx, nil)
}

// RunParamsCtx is RunCtx with bind-parameter values substituted into a
// copy of the plan before execution.
func (p *Prepared) RunParamsCtx(ctx context.Context, params map[string]values.Value) (values.Value, error) {
	plan, err := p.boundPlan(params)
	if err != nil {
		return values.Null, err
	}
	return p.engine.execute(ctx, plan, nil)
}

// execute is the one way a plan runs. A buffered run calls it on the
// caller's goroutine with a nil sink and gets the result value; a cursor
// calls it on its producer goroutine with the channel sink, and the
// result's rows go there instead (every executor: the JIT streams its
// root into the sink, the reference executor emits its materialized
// result through jit.EmitResult). It owns, once each, the
// close gate, the query counters and raw/cache classification, the
// execute span, the query's memory ledger and the mapping of failures:
// budget kills are counted, cancellation surfaces as the ctx error, and
// a panic anywhere outside the scheduler's own per-morsel barrier
// becomes this query's error (a *sched.PanicError) instead of crashing
// the process.
func (e *Engine) execute(ctx context.Context, plan *algebra.Reduce, sink jit.StreamSink) (v values.Value, err error) {
	if err := e.beginQuery(); err != nil {
		return values.Null, err
	}
	defer e.endQuery()
	e.queries.Add(1)
	rawBefore := e.rawScans.Load()
	sp := trace.FromContext(ctx).Root().Child("execute")
	defer sp.End()
	qm := e.newQueryMem()
	defer qm.release()
	defer func() {
		if r := recover(); r != nil {
			perr, ok := r.(*sched.PanicError)
			if !ok {
				// First recovery of this panic: count and log it once.
				e.panics.Add(1)
				perr = &sched.PanicError{Value: r, Stack: debug.Stack()}
				slog.Error("recovered panic in query execution",
					"component", "core", "panic", fmt.Sprint(r), "stack", string(perr.Stack))
			}
			err = perr
		}
		switch {
		case err == nil && e.rawScans.Load() == rawBefore:
			e.cacheQueries.Add(1)
		case err == nil:
			e.rawQueries.Add(1)
		case errors.Is(err, ErrMemoryBudget):
			e.memKills.Add(1)
		case ctx.Err() != nil:
			// Surface cancellation as the ctx error, not a wrapped scan error.
			err = ctx.Err()
		}
		if err != nil {
			v = values.Null
		}
	}()
	cat := e.catalogFor(ctx, sp)
	switch e.opts.Mode {
	case ModeReference:
		v, err = algebra.Reference{}.Run(plan, cat)
	default:
		ex := jit.Executor{Opts: e.jitOptions(qm, sp)}
		if sink == nil {
			return ex.RunCtx(ctx, plan, cat)
		}
		return values.Null, ex.RunStream(ctx, plan, cat, sink)
	}
	if err == nil && sink != nil {
		v, err = values.Null, jit.EmitResult(v, sink)
	}
	return v, err
}

// jitOptions assembles the JIT executor's options for one query run:
// the engine's pool and fan-out, the query's memory ledger and span, and
// the engine's always-on counters.
func (e *Engine) jitOptions(qm *queryMem, sp *trace.Span) jit.Options {
	return jit.Options{Pool: e.opts.Pool, Workers: e.opts.Workers,
		MemReserve: qm.reserveFunc(), Trace: sp, Counters: &e.counters}
}

// Plan returns the optimized plan (EXPLAIN).
func (p *Prepared) Plan() *algebra.Reduce { return p.plan }

// Query parses, plans and executes in one call.
func (e *Engine) Query(src string) (values.Value, error) {
	return e.QueryCtx(context.Background(), src)
}

// QueryCtx parses, plans and executes in one call under a cancellation
// context.
func (e *Engine) QueryCtx(ctx context.Context, src string) (values.Value, error) {
	return e.QueryParamsCtx(ctx, src, nil)
}

// QueryParamsCtx is QueryCtx with bind-parameter values.
func (e *Engine) QueryParamsCtx(ctx context.Context, src string, params map[string]values.Value) (values.Value, error) {
	p, err := e.PrepareCtx(ctx, src)
	if err != nil {
		return values.Null, err
	}
	return p.RunParamsCtx(ctx, params)
}

// Explain returns the optimized plan rendering.
func (e *Engine) Explain(src string) (string, error) {
	p, err := e.Prepare(src)
	if err != nil {
		return "", err
	}
	return algebra.Format(p.plan), nil
}

// DescribeCatalog renders the catalog for the CLI.
func (e *Engine) DescribeCatalog() string {
	var sb strings.Builder
	for _, n := range e.Sources() {
		if d, ok := e.Description(n); ok {
			sb.WriteString(d.String())
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
