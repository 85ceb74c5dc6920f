package vida

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"vida/internal/core"
	"vida/internal/sdg"
	"vida/internal/values"
)

// NamedArg binds a value to a named query parameter ($name in the
// comprehension language). Positional arguments bind $1..$n (and SQL's
// ?) in order; NamedArg values may be mixed in freely.
type NamedArg struct {
	Name  string
	Value any
}

// Named builds a NamedArg.
func Named(name string, value any) NamedArg { return NamedArg{Name: name, Value: value} }

// argsToParams converts public query arguments into the engine's
// parameter bindings: plain values bind positionally as $1..$n,
// NamedArg values bind by name.
func argsToParams(args []any) (map[string]values.Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	params := make(map[string]values.Value, len(args))
	pos := 0
	for _, a := range args {
		if na, ok := a.(NamedArg); ok {
			v, err := toValue(na.Value)
			if err != nil {
				return nil, fmt.Errorf("vida: parameter $%s: %w", na.Name, err)
			}
			params[na.Name] = v
			continue
		}
		pos++
		v, err := toValue(a)
		if err != nil {
			return nil, fmt.Errorf("vida: parameter $%d: %w", pos, err)
		}
		params[strconv.Itoa(pos)] = v
	}
	return params, nil
}

// toValue converts a Go value into an engine value.
func toValue(a any) (values.Value, error) {
	switch v := a.(type) {
	case nil:
		return values.Null, nil
	case Value:
		return v.raw, nil
	case bool:
		return values.NewBool(v), nil
	case int:
		return values.NewInt(int64(v)), nil
	case int8:
		return values.NewInt(int64(v)), nil
	case int16:
		return values.NewInt(int64(v)), nil
	case int32:
		return values.NewInt(int64(v)), nil
	case int64:
		return values.NewInt(v), nil
	case uint:
		return values.NewInt(int64(v)), nil
	case uint8:
		return values.NewInt(int64(v)), nil
	case uint16:
		return values.NewInt(int64(v)), nil
	case uint32:
		return values.NewInt(int64(v)), nil
	case uint64:
		if v > 1<<63-1 {
			return values.Null, fmt.Errorf("uint64 value %d overflows int64", v)
		}
		return values.NewInt(int64(v)), nil
	case float32:
		return values.NewFloat(float64(v)), nil
	case float64:
		return values.NewFloat(v), nil
	case string:
		return values.NewString(v), nil
	case []byte:
		return values.NewString(string(v)), nil
	case time.Time:
		return values.NewString(v.Format(time.RFC3339Nano)), nil
	}
	return values.Null, fmt.Errorf("unsupported parameter type %T", a)
}

// Rows is a streaming cursor over a query's result: rows are produced
// batch-at-a-time by the engine (morsel-parallel for large raw scans)
// and pulled one at a time with Next, so bag results (what SELECT
// yields) larger than memory stream with bounded residency and the first
// row arrives long before the last would. The usage mirrors database/sql:
//
//	rows, err := eng.QuerySQLRows(`SELECT name, age FROM People WHERE age > $1`, 40)
//	defer rows.Close()
//	for rows.Next() {
//	    var name string
//	    var age int64
//	    if err := rows.Scan(&name, &age); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
//
// A Rows is not safe for concurrent use. Close is idempotent and must
// be called; abandoning an open cursor pins a query slot and its
// scheduler workers until its context ends.
type Rows struct {
	inner    *core.Rows
	cols     []string
	colTypes []*sdg.Type

	chunk  []values.Value
	pos    int
	cur    Value
	peeked bool
	err    error

	// closed is atomic: iteration is single-goroutine, but Close may be
	// called twice concurrently (a deferred Close racing a cleanup path)
	// and must stay safe.
	closed atomic.Bool
}

// newRows wraps a core cursor, deriving column names from the prepared
// result type when it is known. Unknown-schema results resolve their
// columns lazily from the first row.
func newRows(inner *core.Rows, typ *sdg.Type) *Rows {
	return &Rows{inner: inner, cols: columnsFromType(typ), colTypes: columnTypesFromType(typ)}
}

// columnsFromType extracts result column names from a prepared query's
// type: collection-of-record results name one column per attribute,
// scalar collections a single "value" column.
func columnsFromType(t *sdg.Type) []string {
	if t == nil {
		return nil
	}
	switch t.Kind {
	case sdg.TList, sdg.TBag, sdg.TSet, sdg.TArray:
		t = t.Elem
	}
	if t == nil || t.Kind == sdg.TUnknown {
		return nil
	}
	if t.Kind == sdg.TRecord {
		return t.AttrNames()
	}
	return []string{"value"}
}

// columnTypesFromType extracts the per-column result types, mirroring
// columnsFromType's unwrapping. Unknown-schema results return nil: their
// columns resolve lazily from data and carry no declared types.
func columnTypesFromType(t *sdg.Type) []*sdg.Type {
	if t == nil {
		return nil
	}
	switch t.Kind {
	case sdg.TList, sdg.TBag, sdg.TSet, sdg.TArray:
		t = t.Elem
	}
	if t == nil || t.Kind == sdg.TUnknown {
		return nil
	}
	if t.Kind == sdg.TRecord {
		types := make([]*sdg.Type, len(t.Attrs))
		for i, a := range t.Attrs {
			types[i] = a.Type
		}
		return types
	}
	return []*sdg.Type{t}
}

// ColumnTypeName reports the declared type of column i as a
// database-style name: BOOL, INT, FLOAT, STRING, or JSON for nested
// record/collection columns (which render as JSON text at scalar
// boundaries such as database/sql). The empty string means the column's
// type is not statically known — open-schema results infer their columns
// from the first row and carry no declared types.
func (r *Rows) ColumnTypeName(i int) string {
	if i < 0 || i >= len(r.colTypes) || r.colTypes[i] == nil {
		return ""
	}
	switch r.colTypes[i].Kind {
	case sdg.TBool:
		return "BOOL"
	case sdg.TInt:
		return "INT"
	case sdg.TFloat:
		return "FLOAT"
	case sdg.TString:
		return "STRING"
	case sdg.TRecord, sdg.TList, sdg.TBag, sdg.TSet, sdg.TArray:
		return "JSON"
	}
	return ""
}

// fetch advances to the next row, loading chunks as needed.
func (r *Rows) fetch() bool {
	if r.closed.Load() || r.err != nil {
		return false
	}
	for r.pos >= len(r.chunk) {
		chunk, err := r.inner.NextChunk()
		if err != nil {
			r.err = err
			return false
		}
		if chunk == nil {
			return false
		}
		r.chunk, r.pos = chunk, 0
	}
	r.cur = Value{raw: r.chunk[r.pos]}
	r.pos++
	return true
}

// Next advances the cursor to the next row, returning false at the end
// of the result or on error (check Err afterwards).
func (r *Rows) Next() bool {
	if r.peeked {
		r.peeked = false
		return true
	}
	return r.fetch()
}

// Columns returns the result's column names. For open-schema sources
// the names come from the first row, which Columns fetches ahead of
// Next (the row is not lost).
func (r *Rows) Columns() []string {
	if r.cols != nil {
		return r.cols
	}
	if !r.peeked && r.fetch() {
		r.peeked = true
	}
	if r.peeked && r.cur.Kind() == "record" {
		fields := r.cur.Fields()
		cols := make([]string, len(fields))
		for i, f := range fields {
			cols[i] = f.Name
		}
		r.cols = cols
	} else {
		r.cols = []string{"value"}
	}
	return r.cols
}

// Value returns the current row as an engine value (valid after a true
// Next).
func (r *Rows) Value() Value { return r.cur }

// ChunkBoundary reports whether the current row was the last of its
// underlying producer chunk — i.e. the next Next will block on the
// engine for a fresh batch. Streaming writers (the HTTP NDJSON endpoint)
// flush on chunk boundaries so buffered rows never wait on a slow
// producer.
func (r *Rows) ChunkBoundary() bool {
	return !r.peeked && r.pos >= len(r.chunk)
}

// Scan copies the current row into dest: one destination per column for
// record rows (in column order), a single destination otherwise.
// Supported destinations: *int, *int8..*int64, *uint..*uint64, *float32,
// *float64, *string, *bool, *[]byte, *any and *Value; numeric
// conversions widen or round-trip exactly or fail.
func (r *Rows) Scan(dest ...any) error {
	if r.closed.Load() {
		return fmt.Errorf("vida: Scan on closed Rows")
	}
	row := r.cur
	if row.Kind() == "record" {
		fields := row.Fields()
		if len(dest) != len(fields) {
			return fmt.Errorf("vida: Scan expects %d destinations, got %d", len(fields), len(dest))
		}
		for i, f := range fields {
			if err := convertAssign(dest[i], f.Val); err != nil {
				return fmt.Errorf("vida: Scan column %q: %w", f.Name, err)
			}
		}
		return nil
	}
	if len(dest) != 1 {
		return fmt.Errorf("vida: Scan expects 1 destination for a scalar row, got %d", len(dest))
	}
	if err := convertAssign(dest[0], row); err != nil {
		return fmt.Errorf("vida: Scan: %w", err)
	}
	return nil
}

// Err returns the error that terminated iteration, if any. A cursor
// cancelled by its own Close reports no error.
func (r *Rows) Err() error { return r.err }

// Close aborts the stream and releases its resources. Idempotent and
// safe under concurrent double-close (including one racing a producer
// error); safe to call mid-iteration or after exhaustion.
func (r *Rows) Close() error {
	r.closed.Store(true)
	return r.inner.Close()
}

// convertAssign stores v into the destination pointer.
func convertAssign(dst any, v Value) error {
	raw := v.raw
	switch d := dst.(type) {
	case *Value:
		*d = v
		return nil
	case *any:
		*d = goValue(raw)
		return nil
	case *string:
		if raw.Kind() == values.KindString {
			*d = raw.Str()
		} else {
			*d = raw.String()
		}
		return nil
	case *[]byte:
		if raw.IsNull() {
			*d = nil
		} else if raw.Kind() == values.KindString {
			*d = []byte(raw.Str())
		} else {
			*d = []byte(raw.String())
		}
		return nil
	case *bool:
		if raw.Kind() != values.KindBool {
			return fmt.Errorf("cannot assign %s to *bool", v.Kind())
		}
		*d = raw.Bool()
		return nil
	case *float64:
		if !raw.IsNumeric() {
			return fmt.Errorf("cannot assign %s to *float64", v.Kind())
		}
		*d = raw.Float()
		return nil
	case *float32:
		if !raw.IsNumeric() {
			return fmt.Errorf("cannot assign %s to *float32", v.Kind())
		}
		f := raw.Float()
		// Out-of-range float64s silently become ±Inf under a bare
		// float32 conversion; fail instead, matching the overflow
		// discipline of the integer destinations. Infinities and NaN
		// round-trip exactly and stay assignable.
		if !math.IsInf(f, 0) && (f > math.MaxFloat32 || f < -math.MaxFloat32) {
			return fmt.Errorf("value %v overflows float32", f)
		}
		*d = float32(f)
		return nil
	}
	// Integer destinations share bounds checking.
	i, err := intValue(v)
	if err != nil {
		return err
	}
	switch d := dst.(type) {
	case *int:
		if int64(int(i)) != i {
			return fmt.Errorf("value %d overflows int", i)
		}
		*d = int(i)
	case *int8:
		if i < -128 || i > 127 {
			return fmt.Errorf("value %d overflows int8", i)
		}
		*d = int8(i)
	case *int16:
		if i < -32768 || i > 32767 {
			return fmt.Errorf("value %d overflows int16", i)
		}
		*d = int16(i)
	case *int32:
		if i < -1<<31 || i > 1<<31-1 {
			return fmt.Errorf("value %d overflows int32", i)
		}
		*d = int32(i)
	case *int64:
		*d = i
	case *uint:
		if i < 0 || uint64(i) > uint64(^uint(0)) {
			return fmt.Errorf("value %d overflows uint", i)
		}
		*d = uint(i)
	case *uint8:
		if i < 0 || i > 255 {
			return fmt.Errorf("value %d overflows uint8", i)
		}
		*d = uint8(i)
	case *uint16:
		if i < 0 || i > 65535 {
			return fmt.Errorf("value %d overflows uint16", i)
		}
		*d = uint16(i)
	case *uint32:
		if i < 0 || i > 1<<32-1 {
			return fmt.Errorf("value %d overflows uint32", i)
		}
		*d = uint32(i)
	case *uint64:
		if i < 0 {
			return fmt.Errorf("value %d overflows uint64", i)
		}
		*d = uint64(i)
	default:
		return fmt.Errorf("unsupported Scan destination %T", dst)
	}
	return nil
}

// intValue extracts an int64, accepting floats with no fractional part.
func intValue(v Value) (int64, error) {
	raw := v.raw
	switch raw.Kind() {
	case values.KindInt:
		return raw.Int(), nil
	case values.KindFloat:
		f := raw.Float()
		i := int64(f)
		if float64(i) != f {
			return 0, fmt.Errorf("float value %v is not an integer", f)
		}
		return i, nil
	}
	return 0, fmt.Errorf("cannot assign %s to an integer destination", v.Kind())
}

// goValue converts an engine value to a native Go value: scalars map
// directly, records to ordered field slices are not expressible so they
// (and collections) render as their literal string.
func goValue(v values.Value) any {
	switch v.Kind() {
	case values.KindNull:
		return nil
	case values.KindBool:
		return v.Bool()
	case values.KindInt:
		return v.Int()
	case values.KindFloat:
		return v.Float()
	case values.KindString:
		return v.Str()
	default:
		return v.String()
	}
}

// QueryRows runs a comprehension query and returns a streaming cursor
// over its result. Positional args bind $1..$n; NamedArg values bind
// $name parameters.
func (e *Engine) QueryRows(src string, args ...any) (*Rows, error) {
	return e.QueryRowsCtx(context.Background(), src, args...)
}

// QueryRowsCtx is QueryRows under a cancellation context: cancelling ctx
// aborts the stream mid-scan.
func (e *Engine) QueryRowsCtx(ctx context.Context, src string, args ...any) (*Rows, error) {
	p, err := e.PrepareCtx(ctx, src)
	if err != nil {
		return nil, err
	}
	return p.RunRowsCtx(ctx, args...)
}

// QuerySQLRows translates a SQL query and returns a streaming cursor.
func (e *Engine) QuerySQLRows(src string, args ...any) (*Rows, error) {
	return e.QuerySQLRowsCtx(context.Background(), src, args...)
}

// QuerySQLRowsCtx is QuerySQLRows under a cancellation context.
func (e *Engine) QuerySQLRowsCtx(ctx context.Context, src string, args ...any) (*Rows, error) {
	comp, err := e.TranslateSQL(src)
	if err != nil {
		return nil, err
	}
	return e.QueryRowsCtx(ctx, comp, args...)
}

// RunRows executes the prepared query as a streaming cursor.
func (p *Prepared) RunRows(args ...any) (*Rows, error) {
	return p.RunRowsCtx(context.Background(), args...)
}

// RunRowsCtx is RunRows under a cancellation context.
func (p *Prepared) RunRowsCtx(ctx context.Context, args ...any) (*Rows, error) {
	params, err := argsToParams(args)
	if err != nil {
		return nil, err
	}
	inner, err := p.inner.RowsCtx(ctx, params)
	if err != nil {
		return nil, err
	}
	return newRows(inner, p.inner.Type), nil
}

// Params returns the query's bind-parameter names in first-occurrence
// order (positional parameters are named "1".."n").
func (p *Prepared) Params() []string { return p.inner.ParamNames() }
