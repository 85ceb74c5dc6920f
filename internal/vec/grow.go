package vec

import "vida/internal/values"

// Spare reports the most spare capacity a slice of n elements may keep
// after it is published: 1/16 of its length. Column vectors, positional
// maps and file generations all live as long as their file does, so slack
// left by Go's doubling append would be held for that long; this bound
// caps it at ~6%.
func Spare(n int) int { return n / 16 }

// AppendBounded is append for long-lived slices that grow by small tails:
// when tail fits the spare capacity it is written in place (the result
// shares s's storage; elements below len(s) are never touched, so holders
// of s stay valid), otherwise the result is reallocated with at most
// Spare of its length in headroom instead of append's 1.25-2x.
func AppendBounded[T any](s, tail []T) []T {
	n := len(s) + len(tail)
	if n <= cap(s) {
		return append(s, tail...)
	}
	out := make([]T, n, n+Spare(n))
	copy(out, s)
	copy(out[len(s):], tail)
	return out
}

// clip returns s, reallocated to its exact length when it carries more
// than Spare of it in unused capacity.
func clip[T any](s []T) []T {
	if cap(s)-len(s) <= Spare(len(s)) {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
}

// Extend returns the column c followed by the rows of tail. Like
// AppendBounded it never writes below c's length, so a published column
// stays valid for holders of the shorter version while the result is
// published as its successor. ok is false when the two representations
// cannot be concatenated (a typed column followed by a different tag); a
// boxed column accepts any tail by boxing it, a StrDict column any string
// tail (extendDict), and an empty tail of any tag extends any column to
// itself.
func (c *Col) Extend(tail *Col) (out Col, ok bool) {
	n, tn := c.Len(), tail.Len()
	out = Col{Tag: c.Tag}
	switch {
	case tn == 0:
		return *c, true
	case c.Tag == Boxed:
		boxed := tail.Boxed
		if tail.Tag != Boxed {
			boxed = make([]values.Value, tn)
			for i := range boxed {
				boxed[i] = tail.Value(i)
			}
		}
		out.Boxed = AppendBounded(c.Boxed, boxed)
		return out, true
	case c.Tag == StrDict && (tail.Tag == Str || tail.Tag == StrDict):
		out = c.extendDict(tail)
	case c.Tag != tail.Tag:
		return Col{}, false
	case c.Tag == Int64:
		out.Ints = AppendBounded(c.Ints, tail.Ints)
	case c.Tag == Float64:
		out.Floats = AppendBounded(c.Floats, tail.Floats)
	case c.Tag == Str:
		out.Strs = AppendBounded(c.Strs, tail.Strs)
	}
	switch {
	case c.Nulls != nil && tail.Nulls != nil:
		out.Nulls = AppendBounded(c.Nulls, tail.Nulls)
	case c.Nulls != nil:
		out.Nulls = AppendBounded(c.Nulls, make([]bool, tn))
	case tail.Nulls != nil:
		out.Nulls = make([]bool, n+tn, n+tn+Spare(n+tn))
		copy(out.Nulls[n:], tail.Nulls)
	}
	return out, true
}
