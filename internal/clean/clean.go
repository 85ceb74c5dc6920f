// Package clean implements the data-cleaning extension the paper sketches
// as future work (§7): per-source domain knowledge — acceptable value
// ranges and dictionaries of valid values — incorporated into the input
// plugin, with pluggable policies for offending values: skip the entry,
// null the field, or transform it to the nearest acceptable value under a
// distance metric (the paper names Hamming distance [25]; edit distance
// handles unequal lengths).
//
// Cleaning is a stage of the raw scan (Cleaner.Clean), run on every batch
// a serial scan or a morsel reads, before the cache harvest and the query
// see it. So Stats count what raw scans cleaned: a rule fires only on the
// columns a raw scan reads, a SkipRow rule's attribute is always read,
// and a cache hit, which reads cleaned columns, cleans nothing again.
package clean

import (
	"fmt"
	"slices"
	"sync/atomic"

	"vida/internal/values"
	"vida/internal/vec"
)

// Policy selects what happens to a value that violates its rule.
type Policy uint8

// The repair policies.
const (
	// SkipRow drops the whole row (the paper's conservative strategy:
	// "the code generated for subsequent queries can explicitly skip
	// processing of the problematic entries").
	SkipRow Policy = iota
	// NullField keeps the row but nulls the offending field.
	NullField
	// Nearest replaces the value with the nearest acceptable one.
	Nearest
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case SkipRow:
		return "skip"
	case NullField:
		return "null"
	case Nearest:
		return "nearest"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// Rule validates one attribute.
type Rule struct {
	Attr   string
	Policy Policy
	// Dictionary lists the valid string values (nil = not dictionary
	// constrained).
	Dictionary []string
	// Min/Max bound numeric values (nil = unbounded on that side).
	Min, Max *float64
}

// Float returns a *float64 for rule literals.
func Float(f float64) *float64 { return &f }

// Valid reports whether v satisfies the rule.
func (r *Rule) Valid(v values.Value) bool {
	if v.IsNull() {
		return true // nullability is the schema's business, not cleaning's
	}
	if len(r.Dictionary) > 0 {
		if v.Kind() != values.KindString {
			return false
		}
		for _, d := range r.Dictionary {
			if v.Str() == d {
				return true
			}
		}
		return false
	}
	if r.Min != nil || r.Max != nil {
		return v.IsNumeric() && r.inRange(v.Float())
	}
	return true
}

// inRange reports whether f is not out of the rule's bounds (NaN is not).
func (r *Rule) inRange(f float64) bool {
	return !(r.Min != nil && f < *r.Min) && !(r.Max != nil && f > *r.Max)
}

// validAt is Valid of row of c, read without boxing when c is numeric and
// the rule a range.
func (r *Rule) validAt(c *vec.Col, row int) bool {
	if len(r.Dictionary) == 0 && (c.Nulls == nil || !c.Nulls[row]) {
		switch c.Tag {
		case vec.Int64:
			return r.inRange(float64(c.Ints[row]))
		case vec.Float64:
			return r.inRange(c.Floats[row])
		}
	}
	return r.Valid(c.Value(row))
}

// Repair maps an invalid value per the rule's policy. ok=false means the
// row must be skipped.
func (r *Rule) Repair(v values.Value) (values.Value, bool) {
	switch r.Policy {
	case SkipRow:
		return values.Null, false
	case NullField:
		return values.Null, true
	case Nearest:
		return r.nearest(v), true
	}
	return values.Null, false
}

// nearest picks the closest acceptable value: dictionary entries by
// Hamming/edit distance for strings, range clamping for numerics.
func (r *Rule) nearest(v values.Value) values.Value {
	if len(r.Dictionary) > 0 {
		s := ""
		if v.Kind() == values.KindString {
			s = v.Str()
		} else {
			s = v.String()
		}
		best, bestDist := r.Dictionary[0], distance(s, r.Dictionary[0])
		for _, d := range r.Dictionary[1:] {
			if dd := distance(s, d); dd < bestDist {
				best, bestDist = d, dd
			}
		}
		return values.NewString(best)
	}
	if v.IsNumeric() {
		f := r.clamp(v.Float())
		if v.Kind() == values.KindInt {
			return values.NewInt(int64(f))
		}
		return values.NewFloat(f)
	}
	return values.Null
}

// clamp moves f into the rule's range.
func (r *Rule) clamp(f float64) float64 {
	if r.Min != nil && f < *r.Min {
		f = *r.Min
	}
	if r.Max != nil && f > *r.Max {
		f = *r.Max
	}
	return f
}

// distance is Hamming distance for equal-length strings (the paper's
// metric) and Levenshtein edit distance otherwise.
func distance(a, b string) int {
	if len(a) == len(b) {
		d := 0
		for i := 0; i < len(a); i++ {
			if a[i] != b[i] {
				d++
			}
		}
		return d
	}
	return levenshtein(a, b)
}

func levenshtein(a, b string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// Stats counts cleaning activity.
type Stats struct {
	RowsChecked  int64
	RowsSkipped  int64
	FieldsNulled int64
	FieldsFixed  int64
}

// Cleaner applies a rule set to the raw scans of one source (the
// "specialized input plugin" of §7). Clean and Apply are safe for
// concurrent use: every query over a cleaned source runs them, possibly
// at once and from several morsels.
type Cleaner struct {
	rules map[string]*Rule
	skips []string // the attributes of the SkipRow rules, sorted

	rowsChecked, rowsSkipped, fieldsNulled, fieldsFixed atomic.Int64
}

// New builds a Cleaner from rules (one per attribute).
func New(rules ...Rule) *Cleaner {
	c := &Cleaner{rules: map[string]*Rule{}}
	for i := range rules {
		r := rules[i]
		c.rules[r.Attr] = &r
	}
	for attr, r := range c.rules {
		if r.Policy == SkipRow {
			c.skips = append(c.skips, attr)
		}
	}
	slices.Sort(c.skips)
	return c
}

// Stats returns a snapshot of the counters.
func (c *Cleaner) Stats() Stats {
	return Stats{
		RowsChecked:  c.rowsChecked.Load(),
		RowsSkipped:  c.rowsSkipped.Load(),
		FieldsNulled: c.fieldsNulled.Load(),
		FieldsFixed:  c.fieldsFixed.Load(),
	}
}

// Reads returns the columns a cleaned scan of fields reads: fields, then
// the attribute of each SkipRow rule not among them, since whether a row
// exists at all depends on it.
func (c *Cleaner) Reads(fields []string) []string {
	read := fields
	for _, attr := range c.skips {
		if !slices.Contains(read, attr) {
			read = append(read[:len(read):len(read)], attr)
		}
	}
	return read
}

// Clean is the cleaning stage of a raw batch scan. b's columns are
// fields, as Reads returned them, and only their rules fire, column by
// column in that order. A SkipRow violation drops the row from b.Sel;
// any other repair goes into a copy of its column that replaces
// b.Cols[i], boxed when its type cannot hold the repaired value. Clean
// never writes into the storage b's columns or selection point at, so b
// is the caller's own copy of the producer's batch header. Each row ends
// up, and is counted, as Apply leaves the record of its fields.
//
// bufs, one column per field, is the caller's repair storage for range
// rules over Int64 and Float64 columns, which repair typed: the copy of
// column i reuses bufs[i] batch after batch. A Stable batch's
// repairs get fresh storage instead, since its consumers may keep its
// columns.
func (c *Cleaner) Clean(b *vec.Batch, fields []string, bufs []vec.Col) {
	checked := b.Len()
	var nulled, fixed int64
	for i, f := range fields {
		r := c.rules[f]
		if r == nil {
			continue
		}
		col := &b.Cols[i]
		if r.Policy != SkipRow && len(r.Dictionary) == 0 && (col.Tag == vec.Int64 || col.Tag == vec.Float64) {
			buf := &vec.Col{}
			if !b.Stable {
				buf = &bufs[i]
			}
			n, x := r.repairNumeric(col, b, buf)
			nulled += n
			fixed += x
			continue
		}
		var sel []int // the rows kept, once one is dropped
		var repaired *vec.Col
		for k, n := 0, b.Len(); k < n; k++ {
			row := b.Index(k)
			valid := r.validAt(col, row)
			switch {
			case r.Policy != SkipRow && !valid:
				v, _ := r.Repair(col.Value(row))
				if v.IsNull() {
					nulled++
				} else {
					fixed++
				}
				if repaired == nil {
					cb := vec.NewColBuilder(b.N)
					cb.Append(col, &vec.Batch{N: b.N})
					copied := cb.Finish()
					repaired = &copied
				}
				set(repaired, row, v)
			case valid && sel != nil:
				sel = append(sel, row)
			case !valid && sel == nil:
				sel = make([]int, k, n)
				for j := range sel {
					sel[j] = b.Index(j)
				}
			}
		}
		if sel != nil {
			b.Sel = sel
		}
		if repaired != nil {
			*col = *repaired
		}
	}
	c.rowsChecked.Add(int64(checked))
	c.rowsSkipped.Add(int64(checked - b.Len()))
	c.fieldsNulled.Add(nulled)
	c.fieldsFixed.Add(fixed)
}

// repairNumeric applies the range rule r, whose policy is NullField or
// Nearest, to the live rows of the Int64 or Float64 column col without
// boxing a row: Nearest clamps the payload as nearest does, NullField
// sets its null bit. The first repair copies col into buf's storage and
// the copy replaces col. It returns the fields nulled and fixed.
func (r *Rule) repairNumeric(col *vec.Col, b *vec.Batch, buf *vec.Col) (nulled, fixed int64) {
	var out *vec.Col
	for k, n := 0, b.Len(); k < n; k++ {
		row := b.Index(k)
		if col.Nulls != nil && col.Nulls[row] {
			continue
		}
		var v float64
		if col.Tag == vec.Int64 {
			v = float64(col.Ints[row])
		} else {
			v = col.Floats[row]
		}
		if r.inRange(v) {
			continue
		}
		if out == nil {
			out = copyNumeric(col, b.N, buf, r.Policy == NullField)
		}
		switch {
		case r.Policy == NullField:
			out.Nulls[row] = true
			nulled++
		case col.Tag == vec.Int64:
			out.Ints[row] = int64(r.clamp(v))
			fixed++
		default:
			out.Floats[row] = r.clamp(v)
			fixed++
		}
	}
	if out != nil {
		*col = *out
	}
	return nulled, fixed
}

// copyNumeric copies the n rows of the Int64 or Float64 column col into
// buf's storage, with a validity mask when col has one or withNulls, and
// returns buf holding the copy.
func copyNumeric(col *vec.Col, n int, buf *vec.Col, withNulls bool) *vec.Col {
	out := vec.Col{Tag: col.Tag}
	if col.Tag == vec.Int64 {
		out.Ints = append(buf.Ints[:0], col.Ints[:n]...)
	} else {
		out.Floats = append(buf.Floats[:0], col.Floats[:n]...)
	}
	switch {
	case col.Nulls != nil:
		out.Nulls = append(buf.Nulls[:0], col.Nulls[:n]...)
	case withNulls:
		out.Nulls = append(buf.Nulls[:0], make([]bool, n)...)
	}
	*buf = out
	return buf
}

// set writes the repaired value v into row of c, boxing c first when its
// type cannot hold v.
func set(c *vec.Col, row int, v values.Value) {
	switch {
	case c.Tag == vec.Boxed:
		c.Boxed[row] = v
	case v.IsNull():
		if c.Nulls == nil {
			c.Nulls = make([]bool, c.Len())
		}
		c.Nulls[row] = true
	case c.Tag == vec.Str && v.Kind() == values.KindString:
		c.Strs[row] = v.Str()
	default:
		boxed := make([]values.Value, c.Len())
		for i := range boxed {
			boxed[i] = c.Value(i)
		}
		*c = vec.Col{Tag: vec.Boxed, Boxed: boxed}
		c.Boxed[row] = v
	}
}

// Apply validates and repairs one record. ok=false means the row is
// dropped (SkipRow policy fired). It cleans the whole objects of an
// open-schema source, and is the row oracle Clean is tested against.
func (c *Cleaner) Apply(row values.Value) (values.Value, bool) {
	c.rowsChecked.Add(1)
	if row.Kind() != values.KindRecord {
		return row, true
	}
	var fixed []values.Field
	changed := false
	for _, f := range row.Fields() {
		rule, ok := c.rules[f.Name]
		if !ok || rule.Valid(f.Val) {
			fixed = append(fixed, f)
			continue
		}
		repaired, keep := rule.Repair(f.Val)
		if !keep {
			c.rowsSkipped.Add(1)
			return values.Null, false
		}
		if repaired.IsNull() {
			c.fieldsNulled.Add(1)
		} else {
			c.fieldsFixed.Add(1)
		}
		fixed = append(fixed, values.Field{Name: f.Name, Val: repaired})
		changed = true
	}
	if !changed {
		return row, true
	}
	return values.NewRecord(fixed...), true
}
