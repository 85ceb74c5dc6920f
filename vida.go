// Package vida is a just-in-time data virtualization engine: it runs
// queries directly over raw heterogeneous data files — CSV, JSON, binary
// arrays, spreadsheets — with no loading step, adapting its access paths,
// caches and operators to each query. It is a from-scratch reproduction of
// "Just-In-Time Data Virtualization: Lightweight Data Management with
// ViDa" (Karpathiotakis et al., CIDR 2015).
//
// Queries are written in the monoid comprehension language the paper
// introduces (SQL translation is available via QuerySQL):
//
//	eng := vida.New()
//	eng.RegisterCSV("Patients", "patients.csv",
//	    "Record(Att(id, int), Att(age, int), Att(city, string))", nil)
//	res, err := eng.Query(`for { p <- Patients, p.age > 40 } yield count p`)
//
// The first query against a file pays for raw access and, as a side
// effect, builds positional structures and caches; subsequent queries
// touching the same fields run at loaded-database speed.
package vida

import (
	"context"
	"fmt"
	"sync"

	"vida/internal/algebra"
	"vida/internal/clean"
	"vida/internal/core"
	"vida/internal/mcl"
	"vida/internal/sched"
	"vida/internal/sdg"
	"vida/internal/sqlfront"
	"vida/internal/values"
)

// Engine is one virtual database instance over registered raw sources.
type Engine struct {
	inner *core.Engine
}

// Option configures an Engine.
type Option func(*core.Options)

// WithReferenceExecutor selects the slow reference executor — the
// interpreter's generic operators — instead of the default just-in-time
// generated one (testing, and the baseline the JIT is measured against).
func WithReferenceExecutor() Option {
	return func(o *core.Options) { o.Mode = core.ModeReference }
}

// WithCacheBudget bounds the data caches to n bytes.
func WithCacheBudget(n int64) Option {
	return func(o *core.Options) { o.CacheBudgetBytes = n }
}

// WithCacheHotBytes bounds the cache's hot (decoded vector) tier to n
// bytes: past it, least-recently-used columnar entries are held as
// dictionary/delta-encoded blocks in memory and decoded per block on
// demand, fitting several times more rows under the same byte budget.
func WithCacheHotBytes(n int64) Option {
	return func(o *core.Options) { o.CacheHotBytes = n }
}

// WithCacheDir persists encoded cache blocks and positional maps under
// dir, so a restarted engine serves its first query from rehydrated
// cache state instead of re-scanning the raw files.
func WithCacheDir(dir string) Option {
	return func(o *core.Options) { o.CacheDir = dir }
}

// WithoutCaching disables the data caches (experiments).
func WithoutCaching() Option {
	return func(o *core.Options) { o.DisableCaching = true }
}

// WithAdaptiveOptimizer enables the runtime sampling re-optimization
// round (paper §5).
func WithAdaptiveOptimizer() Option {
	return func(o *core.Options) { o.Adaptive = true }
}

// WithMemoryBudget bounds the engine's tracked execution memory
// (collection results, join build sides, dedup tables, in-flight cache
// harvests) across all queries to n bytes. Under pressure the engine
// sheds cache harvesting first; at the ceiling queries abort with a
// typed memory-budget error instead of OOM-ing the process.
func WithMemoryBudget(n int64) Option {
	return func(o *core.Options) { o.MemoryBudgetBytes = n }
}

// WithQueryMemoryBudget bounds each single query's tracked execution
// memory to n bytes.
func WithQueryMemoryBudget(n int64) Option {
	return func(o *core.Options) { o.QueryMemoryBudgetBytes = n }
}

// WithScheduler runs the engine's parallel scans on the given morsel
// worker pool. Engines sharing one pool (a query server's engines, or
// several engines in one process) bound their total scan parallelism to
// the pool's workers instead of each fanning out GOMAXPROCS goroutines.
// The default is the process-wide shared pool.
func WithScheduler(p *sched.Pool) Option {
	return func(o *core.Options) { o.Pool = p }
}

// WithWorkers bounds each query's morsel fan-out to n (1 forces serial
// execution, a cold CSV's first touch included; 0 restores the
// GOMAXPROCS default). The scheduler pool's
// own size still bounds actual concurrency — this option controls how
// finely one query's scans split, which is how benchmarks compare
// serial and parallel plans on the same pool.
func WithWorkers(n int) Option {
	return func(o *core.Options) { o.Workers = n }
}

// New creates an engine.
func New(opts ...Option) *Engine {
	var o core.Options
	for _, fn := range opts {
		fn(&o)
	}
	return &Engine{inner: core.NewEngine(o)}
}

// Internal exposes the underlying engine to sibling packages (the
// experiment harness); applications should not need it.
func (e *Engine) Internal() *core.Engine { return e.inner }

// RegisterCSV registers a raw CSV file. The schema is written in the
// source description grammar, either a Record(...) row type or a
// collection of one. Options: delim, header, null, onerror (see rawcsv).
func (e *Engine) RegisterCSV(name, path, schema string, options map[string]string) error {
	t, err := sdg.ParseSchema(schema)
	if err != nil {
		return err
	}
	if t.Kind == sdg.TRecord {
		t = sdg.Bag(t)
	}
	desc := sdg.DefaultDescription(name, sdg.FormatCSV, path, t)
	desc.Options = options
	return e.inner.Register(desc)
}

// RegisterJSON registers a raw JSON file (top-level array of objects or
// newline-delimited objects). Schema may be empty for open-schema files.
func (e *Engine) RegisterJSON(name, path, schema string) error {
	t := sdg.Bag(sdg.Unknown)
	if schema != "" {
		parsed, err := sdg.ParseSchema(schema)
		if err != nil {
			return err
		}
		if parsed.Kind == sdg.TRecord {
			parsed = sdg.Bag(parsed)
		}
		t = parsed
	}
	desc := sdg.DefaultDescription(name, sdg.FormatJSON, path, t)
	return e.inner.Register(desc)
}

// RegisterArray registers a binary array file (rawarr format). The schema
// uses the paper's Array(Dim(i,int), ..., Att(val)) form.
func (e *Engine) RegisterArray(name, path, schema string) error {
	t, err := sdg.ParseSchema(schema)
	if err != nil {
		return err
	}
	desc := sdg.DefaultDescription(name, sdg.FormatArray, path, t)
	return e.inner.Register(desc)
}

// RegisterXLS registers a binary spreadsheet file (rawxls format).
func (e *Engine) RegisterXLS(name, path, schema string) error {
	t, err := sdg.ParseSchema(schema)
	if err != nil {
		return err
	}
	if t.Kind == sdg.TRecord {
		t = sdg.Bag(t)
	}
	desc := sdg.DefaultDescription(name, sdg.FormatXLS, path, t)
	return e.inner.Register(desc)
}

// RegisterValues registers an in-memory collection (tests, glue).
func (e *Engine) RegisterValues(name string, rows []Value, schema string) error {
	t := sdg.Bag(sdg.Unknown)
	if schema != "" {
		parsed, err := sdg.ParseSchema(schema)
		if err != nil {
			return err
		}
		if parsed.Kind == sdg.TRecord {
			parsed = sdg.Bag(parsed)
		}
		t = parsed
	}
	desc := sdg.DefaultDescription(name, sdg.FormatTable, "", t)
	raw := make([]values.Value, len(rows))
	for i, r := range rows {
		raw[i] = r.raw
	}
	return e.inner.RegisterSource(desc, &algebra.SliceSource{SrcName: name, Rows: raw})
}

// Query runs a comprehension query and returns its buffered result.
// Positional args bind $1..$n parameters; NamedArg values bind $name.
// For results too large to buffer, use QueryRows instead.
func (e *Engine) Query(src string, args ...any) (*Result, error) {
	return e.QueryCtx(context.Background(), src, args...)
}

// QueryCtx runs a comprehension query under a cancellation context:
// cancelling ctx (or its deadline passing) aborts the query mid-scan —
// including a cold first touch of a large raw file — and returns the
// context's error.
func (e *Engine) QueryCtx(ctx context.Context, src string, args ...any) (*Result, error) {
	p, err := e.PrepareCtx(ctx, src)
	if err != nil {
		return nil, err
	}
	return p.RunCtx(ctx, args...)
}

// QuerySQL translates a SQL query to the comprehension calculus (the
// "syntactic sugar" layer of paper §3.2) and runs it.
func (e *Engine) QuerySQL(src string, args ...any) (*Result, error) {
	return e.QuerySQLCtx(context.Background(), src, args...)
}

// QuerySQLCtx is QuerySQL under a cancellation context.
func (e *Engine) QuerySQLCtx(ctx context.Context, src string, args ...any) (*Result, error) {
	comp, err := sqlfront.Translate(src)
	if err != nil {
		return nil, err
	}
	return e.QueryCtx(ctx, comp.String(), args...)
}

// Prepared is a compiled query ready for repeated (concurrent) execution.
type Prepared struct {
	inner *core.Prepared
}

// Prepare runs the query frontend (parse, type-check, normalize,
// translate, optimize) without executing. The result is safe for
// concurrent Run/RunCtx calls.
func (e *Engine) Prepare(src string) (*Prepared, error) {
	return e.PrepareCtx(context.Background(), src)
}

// PrepareCtx is Prepare with a cancellation context.
func (e *Engine) PrepareCtx(ctx context.Context, src string) (*Prepared, error) {
	p, err := e.inner.PrepareCtx(ctx, src)
	if err != nil {
		return nil, err
	}
	return &Prepared{inner: p}, nil
}

// Internal exposes the underlying prepared plan to sibling packages (the
// query service reads the source generations it was prepared against).
func (p *Prepared) Internal() *core.Prepared { return p.inner }

// Run executes the prepared query with the given parameter bindings.
func (p *Prepared) Run(args ...any) (*Result, error) {
	return p.RunCtx(context.Background(), args...)
}

// RunCtx executes the prepared query under a cancellation context, on
// the caller's goroutine: the engine runs the same program a cursor
// (RunRowsCtx) would, into a collecting sink that rebuilds the result
// and charges the query's memory budget for every element it keeps.
func (p *Prepared) RunCtx(ctx context.Context, args ...any) (*Result, error) {
	params, err := argsToParams(args)
	if err != nil {
		return nil, err
	}
	v, err := p.inner.RunParamsCtx(ctx, params)
	if err != nil {
		return nil, err
	}
	return &Result{val: Value{raw: v}}, nil
}

// Close marks the engine closed and waits for in-flight queries to
// finish; later queries fail with an engine-closed error. It is the
// graceful-shutdown hook for servers built on the engine.
func (e *Engine) Close() error { return e.inner.Close() }

// Ping reports whether the engine accepts queries (an engine-closed
// error after Close). The database/sql driver builds its Pinger on it.
func (e *Engine) Ping() error { return e.inner.Ping() }

// TranslateSQL returns the comprehension a SQL query maps to, without
// running it.
func (e *Engine) TranslateSQL(src string) (string, error) {
	comp, err := sqlfront.Translate(src)
	if err != nil {
		return "", err
	}
	return comp.String(), nil
}

// Explain returns the optimized physical plan of a query.
func (e *Engine) Explain(src string) (string, error) {
	return e.inner.Explain(src)
}

// CleanPolicy selects how an invalid field is repaired.
type CleanPolicy string

// The cleaning policies (paper §7).
const (
	CleanSkipRow   CleanPolicy = "skip"    // drop the whole row
	CleanNullField CleanPolicy = "null"    // null the offending field
	CleanNearest   CleanPolicy = "nearest" // snap to nearest valid value
)

// CleanRule validates one attribute of a source: a dictionary of valid
// strings and/or a numeric range, with the chosen repair policy.
type CleanRule struct {
	Attr       string
	Policy     CleanPolicy
	Dictionary []string
	Min, Max   *float64
}

// CleanFloat is a helper for rule bounds.
func CleanFloat(f float64) *float64 { return &f }

// AttachCleaner installs data-cleaning rules on a registered source
// (paper §7), in place of any attached before: invalid entries are
// skipped, nulled, or snapped to the nearest acceptable value
// (Hamming/edit distance for dictionaries, clamping for ranges) as the
// raw data streams in.
func (e *Engine) AttachCleaner(source string, rules ...CleanRule) error {
	converted := make([]clean.Rule, len(rules))
	for i, r := range rules {
		cr := clean.Rule{Attr: r.Attr, Dictionary: r.Dictionary, Min: r.Min, Max: r.Max}
		switch r.Policy {
		case CleanNullField:
			cr.Policy = clean.NullField
		case CleanNearest:
			cr.Policy = clean.Nearest
		default:
			cr.Policy = clean.SkipRow
		}
		converted[i] = cr
	}
	return e.inner.AttachCleaner(source, clean.New(converted...))
}

// Refresh re-checks every registered file — CSV, JSON, array and sheet
// sources alike — for modification. A CSV file that only grew keeps its
// positional map and cached columns, extended by the appended rows; any
// other change drops the affected auxiliary structures and caches. A file
// that cannot be read leaves its source answering from what was loaded
// before, the other sources are refreshed all the same, and the error
// joins every failure, each naming its source.
func (e *Engine) Refresh() error { return e.inner.Refresh() }

// Stats returns engine activity counters.
func (e *Engine) Stats() core.Stats { return e.inner.StatsSnapshot() }

// Sources lists registered sources.
func (e *Engine) Sources() []string { return e.inner.Sources() }

// Catalog renders the source descriptions.
func (e *Engine) Catalog() string { return e.inner.DescribeCatalog() }

// ---------------------------------------------------------------------------
// Public value facade
// ---------------------------------------------------------------------------

// Value is a query result datum: a scalar, record, collection or array.
type Value struct {
	raw values.Value
}

// Result is the outcome of one query.
type Result struct {
	val Value

	// rows memoizes the []Value facade Rows builds over the collection:
	// results are shared (result caches serve one *Result to many
	// requests), so the conversion is done once, concurrency-safely.
	rowsOnce sync.Once
	rows     []Value
}

// Value returns the result datum.
func (r *Result) Value() Value { return r.val }

// String renders the result in the engine's literal syntax.
func (r *Result) String() string { return r.val.String() }

// Rows returns the result's elements when it is a collection, or the
// result itself as a single row otherwise. The conversion is memoized:
// calling Rows (or Len) repeatedly is free after the first call.
func (r *Result) Rows() []Value {
	r.rowsOnce.Do(func() {
		if r.val.IsCollection() {
			r.rows = r.val.Elems()
		} else {
			r.rows = []Value{r.val}
		}
	})
	return r.rows
}

// Len returns the number of rows.
func (r *Result) Len() int { return len(r.Rows()) }

// Field is a named record component.
type Field struct {
	Name string
	Val  Value
}

// NewInt builds an int value (for RegisterValues rows).
func NewInt(i int64) Value { return Value{raw: values.NewInt(i)} }

// NewFloat builds a float value.
func NewFloat(f float64) Value { return Value{raw: values.NewFloat(f)} }

// NewString builds a string value.
func NewString(s string) Value { return Value{raw: values.NewString(s)} }

// NewBool builds a bool value.
func NewBool(b bool) Value { return Value{raw: values.NewBool(b)} }

// NewRecord builds a record value.
func NewRecord(fields ...Field) Value {
	fs := make([]values.Field, len(fields))
	for i, f := range fields {
		fs[i] = values.Field{Name: f.Name, Val: f.Val.raw}
	}
	return Value{raw: values.NewRecord(fs...)}
}

// NewList builds a list value.
func NewList(elems ...Value) Value {
	es := make([]values.Value, len(elems))
	for i, e := range elems {
		es[i] = e.raw
	}
	return Value{raw: values.NewList(es...)}
}

// Null is the null value.
var Null = Value{raw: values.Null}

// Kind returns the value's kind name: "null", "bool", "int", "float",
// "string", "record", "list", "bag", "set" or "array".
func (v Value) Kind() string { return v.raw.Kind().String() }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.raw.IsNull() }

// Bool returns the boolean payload (panics on other kinds).
func (v Value) Bool() bool { return v.raw.Bool() }

// Int returns the integer payload (panics on other kinds).
func (v Value) Int() int64 { return v.raw.Int() }

// Float returns the numeric payload widened to float64.
func (v Value) Float() float64 { return v.raw.Float() }

// Str returns the string payload (panics on other kinds).
func (v Value) Str() string { return v.raw.Str() }

// IsCollection reports whether the value is a list, bag, set or array.
func (v Value) IsCollection() bool {
	return v.raw.IsCollection() || v.raw.Kind() == values.KindArray
}

// Len returns the element/field count of containers.
func (v Value) Len() int { return v.raw.Len() }

// Elems returns collection elements.
func (v Value) Elems() []Value {
	es := v.raw.Elems()
	out := make([]Value, len(es))
	for i, e := range es {
		out[i] = Value{raw: e}
	}
	return out
}

// Field returns the named record field (Null when absent).
func (v Value) Field(name string) Value {
	f, _ := v.raw.Get(name)
	return Value{raw: f}
}

// Fields returns all record fields in order.
func (v Value) Fields() []Field {
	fs := v.raw.Fields()
	out := make([]Field, len(fs))
	for i, f := range fs {
		out[i] = Field{Name: f.Name, Val: Value{raw: f.Val}}
	}
	return out
}

// String renders the value in literal syntax.
func (v Value) String() string { return v.raw.String() }

// Equal reports deep equality.
func (v Value) Equal(o Value) bool { return values.Equal(v.raw, o.raw) }

// ParseQuery checks a query's syntax without running it, returning a
// normalized rendering. Useful for tooling.
func ParseQuery(src string) (string, error) {
	e, err := mcl.Parse(src)
	if err != nil {
		return "", err
	}
	return mcl.Normalize(e).String(), nil
}

// Version is the library version.
const Version = "0.9.0"

var _ = fmt.Sprintf // keep fmt for doc examples
