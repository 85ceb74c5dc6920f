package vec

import (
	"slices"

	"vida/internal/values"
)

// DefaultBatchSize is the default number of rows per pipeline batch.
const DefaultBatchSize = 1024

// Tag discriminates the physical representation of a column.
type Tag uint8

// The column representations. Boxed is the generic fallback: one
// values.Value per row. The typed tags carry unboxed payloads with an
// optional validity mask.
const (
	Boxed Tag = iota
	Int64
	Float64
	Str
	// StrDict is a dictionary-compressed string column: Codes holds one
	// index per row into the shared, lexicographically sorted Dict. The
	// sort order is load-bearing — comparing codes compares strings, which
	// is what lets filters run on codes before any string materializes.
	StrDict
)

// String returns the tag name.
func (t Tag) String() string {
	switch t {
	case Boxed:
		return "boxed"
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case Str:
		return "string"
	case StrDict:
		return "strdict"
	default:
		return "tag(?)"
	}
}

// Col is one column vector of a batch. Exactly one payload slice is
// populated, per Tag. Nulls, when non-nil, marks null rows of a typed
// column (boxed columns represent nulls as values.Null directly).
type Col struct {
	Tag    Tag
	Boxed  []values.Value
	Ints   []int64
	Floats []float64
	Strs   []string
	// Codes/Dict carry the StrDict representation. Dict is immutable and
	// shared freely across windows and retained copies.
	Codes []uint32
	Dict  []string
	Nulls []bool
}

// Len returns the number of rows stored in the column.
func (c *Col) Len() int {
	switch c.Tag {
	case Int64:
		return len(c.Ints)
	case Float64:
		return len(c.Floats)
	case Str:
		return len(c.Strs)
	case StrDict:
		return len(c.Codes)
	default:
		return len(c.Boxed)
	}
}

// StrAt returns the string payload of row i of a Str or StrDict column
// (callers have already excluded null rows and checked the tag).
func (c *Col) StrAt(i int) string {
	if c.Tag == StrDict {
		return c.Dict[c.Codes[i]]
	}
	return c.Strs[i]
}

// Value boxes row i of the column into a values.Value. This is the
// typed→generic boundary: operators that cannot run vectorized call it
// row by row, everything else stays on the primitive slices.
func (c *Col) Value(i int) values.Value {
	if c.Nulls != nil && c.Nulls[i] {
		return values.Null
	}
	switch c.Tag {
	case Int64:
		return values.NewInt(c.Ints[i])
	case Float64:
		return values.NewFloat(c.Floats[i])
	case Str:
		return values.NewString(c.Strs[i])
	case StrDict:
		return values.NewString(c.Dict[c.Codes[i]])
	default:
		return c.Boxed[i]
	}
}

// Slice returns the [lo, hi) window of the column, sharing its storage.
// The window is only as immutable as the parent: cache entries hand out
// windows of published (immutable) columns, which is what makes warm
// scans zero-copy. Its capacity ends with the window, so sizing a batch
// of windows (MemoryBytes walks capacities) costs the window, not the
// rest of the column.
func (c *Col) Slice(lo, hi int) Col {
	out := Col{Tag: c.Tag}
	switch c.Tag {
	case Int64:
		out.Ints = c.Ints[lo:hi:hi]
	case Float64:
		out.Floats = c.Floats[lo:hi:hi]
	case Str:
		out.Strs = c.Strs[lo:hi:hi]
	case StrDict:
		out.Codes = c.Codes[lo:hi:hi]
		out.Dict = c.Dict
	default:
		out.Boxed = c.Boxed[lo:hi:hi]
	}
	if c.Nulls != nil {
		out.Nulls = c.Nulls[lo:hi:hi]
	}
	return out
}

// SizeBytes approximates the resident payload size of the column. Boxed
// values count their struct header plus string payload; nested values
// are estimated by the cache's deep walk, not here.
func (c *Col) SizeBytes() int64 {
	var total int64
	switch c.Tag {
	case Int64:
		total = int64(len(c.Ints)) * 8
	case Float64:
		total = int64(len(c.Floats)) * 8
	case Str:
		for _, s := range c.Strs {
			total += int64(len(s)) + 16
		}
	case StrDict:
		total = int64(len(c.Codes)) * 4
		for _, s := range c.Dict {
			total += int64(len(s)) + 16
		}
	default:
		total = int64(len(c.Boxed)) * 16
	}
	return total + int64(len(c.Nulls))
}

// Reset truncates the column in place (keeping capacity) and sets its tag.
func (c *Col) Reset(tag Tag) {
	c.Tag = tag
	c.Boxed = c.Boxed[:0]
	c.Ints = c.Ints[:0]
	c.Floats = c.Floats[:0]
	c.Strs = c.Strs[:0]
	c.Codes = c.Codes[:0]
	c.Dict = nil
	c.Nulls = nil
}

// grownNulls materializes the validity mask up to length n (all valid).
func (c *Col) grownNulls(n int) []bool {
	m := c.Nulls
	for len(m) < n {
		m = append(m, false)
	}
	return m
}

// AppendInt appends a non-null int64 row. The column must be Int64.
func (c *Col) AppendInt(v int64) {
	c.Ints = append(c.Ints, v)
	if c.Nulls != nil {
		c.Nulls = append(c.Nulls, false)
	}
}

// AppendFloat appends a non-null float64 row. The column must be Float64.
func (c *Col) AppendFloat(v float64) {
	c.Floats = append(c.Floats, v)
	if c.Nulls != nil {
		c.Nulls = append(c.Nulls, false)
	}
}

// AppendStr appends a non-null string row. The column must be Str.
func (c *Col) AppendStr(v string) {
	c.Strs = append(c.Strs, v)
	if c.Nulls != nil {
		c.Nulls = append(c.Nulls, false)
	}
}

// AppendValue appends a boxed row. The column must be Boxed.
func (c *Col) AppendValue(v values.Value) {
	c.Boxed = append(c.Boxed, v)
}

// AppendNull appends a null row to a column of any tag, materializing the
// validity mask for typed columns on first use.
func (c *Col) AppendNull() {
	switch c.Tag {
	case Int64:
		c.Nulls = append(c.grownNulls(len(c.Ints)), true)
		c.Ints = append(c.Ints, 0)
	case Float64:
		c.Nulls = append(c.grownNulls(len(c.Floats)), true)
		c.Floats = append(c.Floats, 0)
	case Str:
		c.Nulls = append(c.grownNulls(len(c.Strs)), true)
		c.Strs = append(c.Strs, "")
	case StrDict:
		c.Nulls = append(c.grownNulls(len(c.Codes)), true)
		c.Codes = append(c.Codes, 0)
	default:
		c.Boxed = append(c.Boxed, values.Null)
	}
}

// AppendRows appends rows [lo, hi) of src, a column of the same tag
// (Int64, Float64, Str or Boxed), in bulk. It leaves the column as
// appending the rows one at a time would: a typed column's validity mask
// is materialized only once a null arrives.
func (c *Col) AppendRows(src *Col, lo, hi int) {
	n := c.Len()
	switch c.Tag {
	case Int64:
		c.Ints = append(c.Ints, src.Ints[lo:hi]...)
	case Float64:
		c.Floats = append(c.Floats, src.Floats[lo:hi]...)
	case Str:
		c.Strs = append(c.Strs, src.Strs[lo:hi]...)
	default:
		c.Boxed = append(c.Boxed, src.Boxed[lo:hi]...)
		return // boxed columns hold values.Null, not a mask
	}
	switch {
	case c.Nulls != nil && src.Nulls != nil:
		c.Nulls = append(c.Nulls, src.Nulls[lo:hi]...)
	case c.Nulls != nil:
		c.Nulls = append(c.Nulls, make([]bool, hi-lo)...)
	case src.Nulls != nil && slices.Contains(src.Nulls[lo:hi], true):
		c.Nulls = append(make([]bool, n, n+hi-lo), src.Nulls[lo:hi]...)
	}
}

// Batch is one fixed-capacity run of rows in columnar layout. N is the
// physical row count; Sel, when non-nil, is the ordered list of physical
// row indices that survived upstream filters (nil = all N rows live).
type Batch struct {
	Cols []Col
	N    int
	Sel  []int
	// Stable marks column storage that the producer never reuses or
	// overwrites (cache-owned slices): consumers may retain it zero-copy.
	Stable bool
}

// New returns a batch with width empty boxed columns.
func New(width int) *Batch {
	b := &Batch{Cols: make([]Col, width)}
	for i := range b.Cols {
		b.Cols[i].Tag = Boxed
	}
	return b
}

// NewWithCap returns a boxed batch whose columns are pre-allocated for
// rows appends, so fill loops never grow mid-batch.
func NewWithCap(width, rows int) *Batch {
	b := New(width)
	for i := range b.Cols {
		b.Cols[i].Boxed = make([]values.Value, 0, rows)
	}
	return b
}

// NewTyped returns a batch with the given column tags, pre-allocated for
// rows appends per tag.
func NewTyped(tags []Tag, rows int) *Batch {
	b := &Batch{Cols: make([]Col, len(tags))}
	for i, t := range tags {
		c := &b.Cols[i]
		c.Tag = t
		switch t {
		case Int64:
			c.Ints = make([]int64, 0, rows)
		case Float64:
			c.Floats = make([]float64, 0, rows)
		case Str:
			c.Strs = make([]string, 0, rows)
		case StrDict:
			c.Codes = make([]uint32, 0, rows)
		default:
			c.Boxed = make([]values.Value, 0, rows)
		}
	}
	return b
}

// Len returns the number of live (selected) rows.
func (b *Batch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// Index maps the k-th live row to its physical row index.
func (b *Batch) Index(k int) int {
	if b.Sel != nil {
		return b.Sel[k]
	}
	return k
}

// Reset truncates all columns in place, keeping their tags and capacity.
func (b *Batch) Reset() {
	for i := range b.Cols {
		c := &b.Cols[i]
		c.Reset(c.Tag)
	}
	b.N = 0
	b.Sel = nil
}

// Retain returns a batch safe to hold after the producer moves on:
// stable batches share their column storage (header-level copy only),
// transient ones get a bulk per-column payload copy — typed columns stay
// typed, so retained build sides cost 8 bytes per int instead of a boxed
// Value. The selection vector is not retained; callers keep physical row
// indices.
func (b *Batch) Retain() Batch {
	out := Batch{Cols: append([]Col(nil), b.Cols...), N: b.N, Stable: true}
	if b.Stable {
		return out
	}
	for i := range out.Cols {
		c := &out.Cols[i]
		switch c.Tag {
		case Int64:
			c.Ints = append([]int64(nil), c.Ints...)
		case Float64:
			c.Floats = append([]float64(nil), c.Floats...)
		case Str:
			c.Strs = append([]string(nil), c.Strs...)
		case StrDict:
			c.Codes = append([]uint32(nil), c.Codes...)
		default:
			c.Boxed = append([]values.Value(nil), c.Boxed...)
		}
		if c.Nulls != nil {
			c.Nulls = append([]bool(nil), c.Nulls...)
		}
	}
	return out
}

// Compact returns a batch holding only b's live (selected) rows, in
// selection order, with typed columns kept typed. Unlike Retain it
// re-indexes: physical row k of the result is the k-th live row of b,
// and the result has no selection vector. Build sides of joins use it so
// a heavily filtered transient batch retains len(Sel) rows instead of N.
func (b *Batch) Compact() Batch {
	n := b.Len()
	out := Batch{Cols: make([]Col, len(b.Cols)), N: n, Stable: true}
	for ci := range b.Cols {
		src := &b.Cols[ci]
		dst := &out.Cols[ci]
		dst.Tag = src.Tag
		switch src.Tag {
		case Int64:
			dst.Ints = make([]int64, n)
			for k := 0; k < n; k++ {
				dst.Ints[k] = src.Ints[b.Index(k)]
			}
		case Float64:
			dst.Floats = make([]float64, n)
			for k := 0; k < n; k++ {
				dst.Floats[k] = src.Floats[b.Index(k)]
			}
		case Str:
			dst.Strs = make([]string, n)
			for k := 0; k < n; k++ {
				dst.Strs[k] = src.Strs[b.Index(k)]
			}
		case StrDict:
			dst.Codes = make([]uint32, n)
			for k := 0; k < n; k++ {
				dst.Codes[k] = src.Codes[b.Index(k)]
			}
			dst.Dict = src.Dict
		default:
			dst.Boxed = make([]values.Value, n)
			for k := 0; k < n; k++ {
				dst.Boxed[k] = src.Boxed[b.Index(k)]
			}
		}
		if src.Nulls != nil {
			dst.Nulls = make([]bool, n)
			for k := 0; k < n; k++ {
				dst.Nulls[k] = src.Nulls[b.Index(k)]
			}
		}
	}
	return out
}

// MemoryBytes approximates the resident size of the batch's column
// storage (payload slices; boxed values count their header only). A
// StrDict column's dictionary is not counted: it is shared by every
// window of its column, and the cache tier that owns it accounts for it
// once (Col.SizeBytes), so a batch that retains a window holds only its
// codes.
func (b *Batch) MemoryBytes() int64 {
	var total int64
	for i := range b.Cols {
		c := &b.Cols[i]
		total += int64(cap(c.Ints))*8 + int64(cap(c.Floats))*8 + int64(cap(c.Boxed))*16 + int64(cap(c.Codes))*4
		for _, s := range c.Strs[:cap(c.Strs)] {
			total += int64(len(s)) + 16
		}
		total += int64(cap(c.Nulls))
	}
	return total
}

// AppendRow appends one boxed row across all columns (columns must be
// Boxed; used by generic packers and row-exploding operators).
func (b *Batch) AppendRow(row []values.Value) {
	for i := range b.Cols {
		b.Cols[i].Boxed = append(b.Cols[i].Boxed, row[i])
	}
	b.N++
}

// Packer accumulates rows into a reused boxed batch and emits it to Sink
// when full (and on Flush), optionally refining the selection through
// Filter first. It adapts row-at-a-time producers — record sources
// (PackRecords), exploding operators — to the batch pipeline.
type Packer struct {
	b      Batch
	size   int
	filter func(*Batch) error // may be nil
	sink   func(*Batch) error
}

// NewPacker returns a packer of width boxed columns emitting batches of
// up to size rows. Column capacity is pre-allocated modestly; steady
// state reuses the storage across flushes.
func NewPacker(width, size int, filter, sink func(*Batch) error) *Packer {
	p := &Packer{size: size, filter: filter, sink: sink}
	p.b.Cols = make([]Col, width)
	cap := min(size, 128)
	for i := range p.b.Cols {
		p.b.Cols[i].Tag = Boxed
		p.b.Cols[i].Boxed = make([]values.Value, 0, cap)
	}
	return p
}

// Add appends one row, flushing when the batch is full. The row is
// copied; the caller may reuse it.
func (p *Packer) Add(row []values.Value) error {
	p.b.AppendRow(row)
	if p.b.N >= p.size {
		return p.Flush()
	}
	return nil
}

// Flush emits any buffered rows and resets the batch for reuse.
func (p *Packer) Flush() error {
	if p.b.N == 0 {
		return nil
	}
	p.b.Sel = nil
	if p.filter != nil {
		if err := p.filter(&p.b); err != nil {
			return err
		}
	}
	var err error
	if p.b.Len() > 0 {
		err = p.sink(&p.b)
	}
	p.b.Reset()
	return err
}

// PackRecords lifts a record iterator (the algebra.Source.Iterate shape,
// the contract input plug-ins are written against) into the batch scan
// contract: each record's requested fields become one row of a boxed
// batch of up to batchSize rows. A field a record lacks reads as null.
func PackRecords(iterate func(fields []string, yield func(values.Value) error) error, fields []string, batchSize int, yield func(*Batch) error) error {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	p := NewPacker(len(fields), batchSize, nil, yield)
	row := make([]values.Value, len(fields))
	if err := iterate(fields, func(v values.Value) error {
		for i, f := range fields {
			row[i], _ = v.Get(f)
		}
		return p.Add(row)
	}); err != nil {
		return err
	}
	return p.Flush()
}

// BoxRecords lowers a batch back to the record contract: every live row
// of b is boxed into a {field: value} record, fields naming b's columns
// in order. It is the row view the reference executor reads.
func BoxRecords(b *Batch, fields []string, yield func(values.Value) error) error {
	for k, n := 0, b.Len(); k < n; k++ {
		row := b.Index(k)
		rec := make([]values.Field, len(fields))
		for i, f := range fields {
			rec[i] = values.Field{Name: f, Val: b.Cols[i].Value(row)}
		}
		if err := yield(values.NewRecord(rec...)); err != nil {
			return err
		}
	}
	return nil
}
