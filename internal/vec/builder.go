package vec

import "vida/internal/values"

// ColBuilder accumulates one output column across pipeline batches,
// keeping the payload typed for as long as every input batch agrees on
// the representation and falling back to boxed values otherwise. The
// raw-scan harvest uses one builder per projected field so the typed
// vectors a scan already produced are retained as typed cache columns —
// no box/unbox round trip between the access path and the cache.
type ColBuilder struct {
	col     Col
	hint    int
	decided bool
}

// NewColBuilder returns a builder whose first append pre-allocates the
// payload for hint rows (0: grow on demand).
func NewColBuilder(hint int) *ColBuilder {
	return &ColBuilder{hint: hint}
}

// Len returns the number of rows accumulated so far.
func (cb *ColBuilder) Len() int { return cb.col.Len() }

// Append copies the live rows of src (one column of batch b) into the
// builder. The first append adopts src's representation; a later batch
// arriving under a different tag demotes the whole column to boxed —
// the mixed-type fallback — after which all appends box row by row.
func (cb *ColBuilder) Append(src *Col, b *Batch) {
	n := b.Len()
	if n == 0 {
		return
	}
	// Dictionary windows harvest as plain strings: the builder's output is
	// published as an independent cache column, which must not alias the
	// source entry's dictionary.
	srcTag := src.Tag
	if srcTag == StrDict {
		srcTag = Str
	}
	if !cb.decided {
		cb.decided = true
		cb.col.Tag = srcTag
		switch srcTag {
		case Int64:
			cb.col.Ints = make([]int64, 0, cb.hint)
		case Float64:
			cb.col.Floats = make([]float64, 0, cb.hint)
		case Str:
			cb.col.Strs = make([]string, 0, cb.hint)
		default:
			cb.col.Boxed = make([]values.Value, 0, cb.hint)
		}
	}
	if srcTag != cb.col.Tag {
		cb.boxify()
	}
	if cb.col.Tag == Boxed {
		for k := 0; k < n; k++ {
			cb.col.Boxed = append(cb.col.Boxed, src.Value(b.Index(k)))
		}
		return
	}
	if b.Sel == nil {
		// Bulk path: the whole physical batch is live.
		if src.Nulls != nil {
			cb.col.Nulls = cb.col.grownNulls(cb.col.Len())
			cb.col.Nulls = append(cb.col.Nulls, src.Nulls[:b.N]...)
		} else if cb.col.Nulls != nil {
			for i := 0; i < b.N; i++ {
				cb.col.Nulls = append(cb.col.Nulls, false)
			}
		}
		switch cb.col.Tag {
		case Int64:
			cb.col.Ints = append(cb.col.Ints, src.Ints[:b.N]...)
		case Float64:
			cb.col.Floats = append(cb.col.Floats, src.Floats[:b.N]...)
		case Str:
			if src.Tag == StrDict {
				for i := 0; i < b.N; i++ {
					cb.col.Strs = append(cb.col.Strs, src.Dict[src.Codes[i]])
				}
			} else {
				cb.col.Strs = append(cb.col.Strs, src.Strs[:b.N]...)
			}
		}
		return
	}
	for _, i := range b.Sel {
		if src.Nulls != nil && src.Nulls[i] {
			cb.col.AppendNull()
			continue
		}
		switch cb.col.Tag {
		case Int64:
			cb.col.AppendInt(src.Ints[i])
		case Float64:
			cb.col.AppendFloat(src.Floats[i])
		case Str:
			cb.col.AppendStr(src.StrAt(i))
		}
	}
}

// boxify converts the accumulated typed payload to boxed values.
func (cb *ColBuilder) boxify() {
	if cb.col.Tag == Boxed {
		return
	}
	n := cb.col.Len()
	boxed := make([]values.Value, n)
	for i := 0; i < n; i++ {
		boxed[i] = cb.col.Value(i)
	}
	cb.col = Col{Tag: Boxed, Boxed: boxed}
}

// Finish returns the accumulated column. The builder must not be used
// afterwards; the column owns its storage exclusively, so callers may
// publish it as immutable. A payload that grew by doubling (no row-count
// hint) is clipped to its length first: the column outlives the scan by
// the life of its cache entry, and would hold the slack that long.
func (cb *ColBuilder) Finish() Col {
	if !cb.decided {
		cb.col.Tag = Boxed
	}
	c := &cb.col
	c.Boxed, c.Ints, c.Floats, c.Strs, c.Nulls = clip(c.Boxed), clip(c.Ints), clip(c.Floats), clip(c.Strs), clip(c.Nulls)
	return cb.col
}
