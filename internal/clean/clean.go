// Package clean implements the data-cleaning extension the paper sketches
// as future work (§7): per-source domain knowledge — acceptable value
// ranges and dictionaries of valid values — incorporated into the input
// plugin, with pluggable policies for offending values: skip the entry,
// null the field, or transform it to the nearest acceptable value under a
// distance metric (the paper names Hamming distance [25]; edit distance
// handles unequal lengths).
package clean

import (
	"fmt"
	"sync/atomic"

	"vida/internal/values"
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
		if !v.IsNumeric() {
			return false
		}
		f := v.Float()
		if r.Min != nil && f < *r.Min {
			return false
		}
		if r.Max != nil && f > *r.Max {
			return false
		}
	}
	return true
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
		f := v.Float()
		if r.Min != nil && f < *r.Min {
			f = *r.Min
		}
		if r.Max != nil && f > *r.Max {
			f = *r.Max
		}
		if v.Kind() == values.KindInt {
			return values.NewInt(int64(f))
		}
		return values.NewFloat(f)
	}
	return values.Null
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

// Cleaner applies a rule set to record rows; it wraps a source's stream
// (the "specialized input plugin" of §7). Apply is safe for concurrent
// use: every query over a cleaned source calls it, possibly at once.
type Cleaner struct {
	rules map[string]*Rule

	rowsChecked, rowsSkipped, fieldsNulled, fieldsFixed atomic.Int64
}

// New builds a Cleaner from rules (one per attribute).
func New(rules ...Rule) *Cleaner {
	c := &Cleaner{rules: map[string]*Rule{}}
	for i := range rules {
		r := rules[i]
		c.rules[r.Attr] = &r
	}
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

// Apply validates and repairs one record. ok=false means the row is
// dropped (SkipRow policy fired).
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

// WrapIterate decorates a source's Iterate with cleaning.
func (c *Cleaner) WrapIterate(iterate func(fields []string, yield func(values.Value) error) error) func(fields []string, yield func(values.Value) error) error {
	return func(fields []string, yield func(values.Value) error) error {
		return iterate(fields, func(v values.Value) error {
			out, keep := c.Apply(v)
			if !keep {
				return nil
			}
			return yield(out)
		})
	}
}
