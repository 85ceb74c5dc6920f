package jit

import (
	"math"
	"slices"
	"strings"

	"vida/internal/mcl"
	"vida/internal/values"
	"vida/internal/vec"
)

// This file holds the vectorized selection kernels: predicate filters
// that refine a batch's selection vector over typed column payloads (the
// folds that consume the batches are groupagg.go's). Kernels dispatch on
// the column Tag per batch (once per ~1024 rows), so the same staged
// pipeline serves typed CSV vectors, zero-copy cache slices and boxed
// fallback batches.

// slotOf resolves an expression to a frame slot index when it is a pure
// slot reference (whole-value variable or flattened attribute), -1
// otherwise.
func slotOf(e mcl.Expr, f *frame) int {
	switch n := e.(type) {
	case *mcl.VarExpr:
		if i, ok := f.lookup(n.Name, ""); ok {
			return i
		}
	case *mcl.ProjExpr:
		if v, ok := n.Rec.(*mcl.VarExpr); ok {
			if i, ok := f.lookup(v.Name, n.Attr); ok {
				return i
			}
		}
	}
	return -1
}

// infallible reports whether evaluating e can never fail: a constant, a
// slot, or a bare variable (a slot, a record rebuilt from slots, or a
// catalog source). A count over such an expression needs no value of it.
func (c *compiler) infallible(e mcl.Expr, f *frame) bool {
	switch n := e.(type) {
	case *mcl.ConstExpr, *mcl.NullExpr:
		return true
	case *mcl.VarExpr:
		if f.hasVar(n.Name) {
			return true
		}
		_, ok := c.baseEnv.Lookup(n.Name)
		return ok
	}
	return slotOf(e, f) >= 0
}

// constOf resolves an expression to a compile-time constant value.
func constOf(e mcl.Expr) (values.Value, bool) {
	switch n := e.(type) {
	case *mcl.ConstExpr:
		return n.Val, true
	case *mcl.NullExpr:
		return values.Null, true
	}
	return values.Null, false
}

// flipOp mirrors a comparison so `const op col` becomes `col op' const`.
func flipOp(op mcl.BinOp) mcl.BinOp {
	switch op {
	case mcl.OpLt:
		return mcl.OpGt
	case mcl.OpLe:
		return mcl.OpGe
	case mcl.OpGt:
		return mcl.OpLt
	case mcl.OpGe:
		return mcl.OpLe
	}
	return op
}

func isCmpOp(op mcl.BinOp) bool {
	switch op {
	case mcl.OpEq, mcl.OpNeq, mcl.OpLt, mcl.OpLe, mcl.OpGt, mcl.OpGe:
		return true
	}
	return false
}

// compileVecFilter stages a predicate as a vectorized selection kernel
// when its shape allows (comparisons whose sides are compileVecExpr
// kernels — slots, constants or arithmetic over them — plus
// conjunctions thereof); nil means the caller stages the predicate as a
// column (filterStage). Comparison semantics match mcl.ApplyBinOp
// exactly: null operands compare false, int/float compare numerically.
func compileVecFilter(e mcl.Expr, f *frame) func() batchFilter {
	n, ok := e.(*mcl.BinExpr)
	if !ok {
		return nil
	}
	if n.Op == mcl.OpAnd {
		l := compileVecFilter(n.L, f)
		r := compileVecFilter(n.R, f)
		if l == nil || r == nil {
			return nil
		}
		return func() batchFilter {
			lf, rf := l(), r()
			return func(b *vec.Batch) error {
				if err := lf(b); err != nil {
					return err
				}
				if b.Len() == 0 {
					return nil
				}
				return rf(b)
			}
		}
	}
	if !isCmpOp(n.Op) {
		return nil
	}
	// Slots are identity kernels and computed sides arithmetic kernels;
	// both feed the same comparison loops. A constant side folds into the
	// loop rather than running as a broadcast column.
	if cv, ok := constOf(n.R); ok {
		if lk := compileVecExpr(n.L, f); lk != nil {
			return kernelConstFilter(lk, n.Op, cv)
		}
	}
	if cv, ok := constOf(n.L); ok {
		if rk := compileVecExpr(n.R, f); rk != nil {
			return kernelConstFilter(rk, flipOp(n.Op), cv)
		}
	}
	lk, rk := compileVecExpr(n.L, f), compileVecExpr(n.R, f)
	if lk != nil && rk != nil {
		return kernelPairFilter(lk, rk, n.Op)
	}
	return nil
}

// The selection kernels refine a batch's live rows by one comparison
// into dst, which has room for b.N rows, and return the selected prefix
// of it. None branches on the data: each stores the row index
// unconditionally and advances its write index by the test's 0/1
// outcome, so a filter costs the same at 1% selectivity as at 95%. A
// column-vs-constant compare over int64 payloads or dictionary codes is
// one unsigned compare against a range staged per call. dst may be b.Sel
// itself: the write index never passes the read index, so compacting in
// place is safe. Null rows never compare true, and no kernel reads their
// payloads: they are dropped before the test runs.

// selBuf returns buf resized to n rows, allocating only when it is too
// small; a filter's selection never grows by append.
func selBuf(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag
// set, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// dropNulls compacts the live rows of a batch of n rows (sel; nil = all)
// that are not null in nulls into dst and returns them.
func dropNulls(nulls []bool, n int, sel, dst []int) []int {
	k := 0
	if sel == nil {
		for i, null := range nulls[:n] {
			dst[k] = i
			k += b2i(!null)
		}
		return dst[:k]
	}
	for _, i := range sel {
		dst[k] = i
		k += b2i(!nulls[i])
	}
	return dst[:k]
}

// cmpBits is a comparison operator as the set of accepted Compare
// outcomes: bit 0 less, bit 1 equal, bit 2 greater.
type cmpBits uint

func cmpMask(op mcl.BinOp) cmpBits {
	switch op {
	case mcl.OpEq:
		return 2
	case mcl.OpNeq:
		return 5
	case mcl.OpLt:
		return 1
	case mcl.OpLe:
		return 3
	case mcl.OpGt:
		return 4
	case mcl.OpGe:
		return 6
	}
	return 0
}

// accept is 1 when the sign of the outcome cmp is in the set, else 0.
// The sign is taken first because values.Compare may return any
// magnitude: collections and records give a length difference, arrays a
// dims difference.
func (m cmpBits) accept(cmp int) int { return int(m>>uint(b2i(cmp > 0)-b2i(cmp < 0)+1)) & 1 }

// cmpNum is the branch-free three-way compare of int64s, and of float64s
// under values.CompareFloats (NaN sorts below every number, −0 equals
// +0); for ints the NaN terms fold away.
func cmpNum[T int64 | float64](a, b T) int {
	return b2i(a > b) - b2i(a < b) + b2i(b != b) - b2i(a != a)
}

// selConstCmp selects the live rows of b where col ⟨op⟩ cv, dispatching
// on the column's runtime representation.
func selConstCmp(col *vec.Col, b *vec.Batch, cv values.Value, op mcl.BinOp, dst []int) []int {
	n, sel := b.N, b.Sel
	if col.Nulls != nil {
		sel = dropNulls(col.Nulls, n, sel, dst)
	}
	switch {
	case col.Tag == vec.Int64 && cv.Kind() == values.KindInt:
		lo, width, ok := intRange(op, cv.Int())
		return selIntRange(col.Ints, n, sel, lo, width, ok, dst)
	case col.Tag == vec.Int64 && cv.Kind() == values.KindFloat:
		return selFloatRange(col.Ints, n, sel, op, cv.Float(), dst)
	case col.Tag == vec.Float64 && cv.IsNumeric():
		return selFloatRange(col.Floats, n, sel, op, cv.Float(), dst)
	case col.Tag == vec.StrDict && cv.Kind() == values.KindString:
		lo, width, ok := dictRange(col.Dict, op, cv.Str())
		return selIntRange(col.Codes, n, sel, lo, width, ok, dst)
	}
	m, k := cmpMask(op), 0
	if col.Tag == vec.Str && cv.Kind() == values.KindString {
		c := cv.Str()
		for j, live := 0, liveLen(n, sel); j < live; j++ {
			i := rowAt(sel, j)
			dst[k] = i
			k += m.accept(strings.Compare(col.Strs[i], c))
		}
		return dst[:k]
	}
	for j, live := 0, liveLen(n, sel); j < live; j++ {
		i := rowAt(sel, j)
		v := col.Value(i)
		dst[k] = i
		k += m.accept(values.Compare(v, cv)) &^ b2i(v.IsNull())
	}
	return dst[:k]
}

// liveLen and rowAt walk a batch's live rows: sel, or all n when nil.
func liveLen(n int, sel []int) int {
	if sel != nil {
		return len(sel)
	}
	return n
}

func rowAt(sel []int, j int) int {
	if sel != nil {
		return sel[j]
	}
	return j
}

// intRange stages v ⟨op⟩ c over int64s as the range of v with
// uint64(v-lo) <= width. The range is circular, so != is the complement
// of [c, c]: [c+1, c-1], everything but c. ok is false when nothing
// satisfies the compare (< MinInt64, > MaxInt64).
func intRange(op mcl.BinOp, c int64) (lo int64, width uint64, ok bool) {
	switch op {
	case mcl.OpEq:
		return c, 0, true
	case mcl.OpNeq:
		return c + 1, math.MaxUint64 - 1, true
	case mcl.OpLt:
		return math.MinInt64, uint64(c - 1 - math.MinInt64), c != math.MinInt64
	case mcl.OpLe:
		return math.MinInt64, uint64(c - math.MinInt64), true
	case mcl.OpGt:
		return c + 1, uint64(math.MaxInt64 - c - 1), c != math.MaxInt64
	case mcl.OpGe:
		return c, uint64(math.MaxInt64 - c), true
	}
	return 0, 0, false
}

// dictRange stages code ⟨op⟩ c over the codes of a sorted dictionary as
// an intRange: one binary search finds c's code, or its insertion point
// pos when c is absent. Then code < pos still means "sorts below c", and
// an absent c splits the codes into below (< pos) and above (>= pos).
func dictRange(dict []string, op mcl.BinOp, c string) (lo int64, width uint64, ok bool) {
	pos, present := slices.BinarySearch(dict, c)
	if !present {
		switch op {
		case mcl.OpEq:
			return 0, 0, false
		case mcl.OpNeq:
			return math.MinInt64, math.MaxUint64, true
		case mcl.OpLe:
			op = mcl.OpLt
		case mcl.OpGt:
			op = mcl.OpGe
		}
	}
	return intRange(op, int64(pos))
}

// selIntRange selects the live rows whose payload (an int64 or a
// dictionary code) lies in the circular range staged by intRange.
func selIntRange[T int64 | uint32](vals []T, n int, sel []int, lo int64, width uint64, ok bool, dst []int) []int {
	k := 0
	switch {
	case !ok:
	case sel == nil:
		for i, v := range vals[:n] {
			dst[k] = i
			k += b2i(uint64(int64(v)-lo) <= width)
		}
	default:
		for _, i := range sel {
			dst[k] = i
			k += b2i(uint64(int64(vals[i])-lo) <= width)
		}
	}
	return dst[:k]
}

// floatRange stages x ⟨op⟩ c under values.CompareFloats as the closed
// range [lo, hi], complemented when neg: <, <= and != are the
// complements of >=, > and ==. NaN lies in no closed range, so it lands
// in the complements, below every number; a NaN c equals only NaN. −0
// and +0 compare equal in IEEE arithmetic, as CompareFloats has them.
func floatRange(op mcl.BinOp, c float64) (lo, hi float64, neg bool) {
	inf := math.Inf(1)
	switch op {
	case mcl.OpLt:
		op, neg = mcl.OpGe, true
	case mcl.OpLe:
		op, neg = mcl.OpGt, true
	case mcl.OpNeq:
		op, neg = mcl.OpEq, true
	}
	switch {
	case c != c && op == mcl.OpEq: // NaN only: not any number
		return -inf, inf, !neg
	case c != c && op == mcl.OpGe: // everything: not nothing
		return inf, -inf, !neg
	case c != c: // > NaN: every number
		return -inf, inf, neg
	case op == mcl.OpEq:
		return c, c, neg
	case op == mcl.OpGe:
		return c, inf, neg
	case c == inf: // nothing lies above +Inf
		return inf, -inf, neg
	}
	return math.Nextafter(c, inf), inf, neg // > c: from the least float above c
}

// selFloatRange selects the live rows whose payload, read as a float64
// exactly as values.Compare widens an int, compares to c per op.
func selFloatRange[T int64 | float64](vals []T, n int, sel []int, op mcl.BinOp, c float64, dst []int) []int {
	lo, hi, neg := floatRange(op, c)
	flip, k := b2i(neg), 0
	if sel == nil {
		for i, v := range vals[:n] {
			x := float64(v)
			dst[k] = i
			k += (b2i(lo <= x) & b2i(x <= hi)) ^ flip
		}
		return dst[:k]
	}
	for _, i := range sel {
		x := float64(vals[i])
		dst[k] = i
		k += (b2i(lo <= x) & b2i(x <= hi)) ^ flip
	}
	return dst[:k]
}

// kernelConstFilter builds the column-vs-constant filter factory: the
// kernel (an identity kernel for a slot) evaluates over the current live
// rows, then a selection kernel refines the selection.
func kernelConstFilter(mk func() vecExpr, op mcl.BinOp, cv values.Value) func() batchFilter {
	return func() batchFilter {
		k := mk()
		var sel []int
		return func(b *vec.Batch) error {
			// The kernel runs even against a null constant (uniformly
			// false comparison): a computed column can error — e.g. a
			// division by zero — and the row engine surfaces that.
			col, err := k(b)
			if err != nil {
				return err
			}
			// Non-nil even when empty: a nil Sel means "all rows live".
			sel = selBuf(sel, b.N)
			if cv.IsNull() {
				b.Sel = sel[:0]
				return nil
			}
			b.Sel = selConstCmp(col, b, cv, op, sel)
			return nil
		}
	}
}

// kernelPairFilter builds the computed-vs-computed filter factory
// (slot references compile to identity kernels, so slot-vs-slot and
// slot-vs-kernel shapes land here too).
func kernelPairFilter(mkL, mkR func() vecExpr, op mcl.BinOp) func() batchFilter {
	return func() batchFilter {
		lk, rk := mkL(), mkR()
		var sel []int
		return func(b *vec.Batch) error {
			lc, err := lk(b)
			if err != nil {
				return err
			}
			rc, err := rk(b)
			if err != nil {
				return err
			}
			sel = selBuf(sel, b.N)
			b.Sel = selPairCmp(lc, rc, b, op, sel)
			return nil
		}
	}
}

// selPairCmp selects the live rows of b where lc ⟨op⟩ rc, with typed
// loops for the numeric and string pairings.
func selPairCmp(lc, rc *vec.Col, b *vec.Batch, op mcl.BinOp, dst []int) []int {
	n, sel := b.N, b.Sel
	if lc.Nulls != nil {
		sel = dropNulls(lc.Nulls, n, sel, dst)
	}
	if rc.Nulls != nil {
		sel = dropNulls(rc.Nulls, n, sel, dst)
	}
	m, k, live := cmpMask(op), 0, liveLen(n, sel)
	switch {
	case lc.Tag == vec.Int64 && rc.Tag == vec.Int64:
		l, r := lc.Ints, rc.Ints
		for j := 0; j < live; j++ {
			i := rowAt(sel, j)
			dst[k] = i
			k += m.accept(cmpNum(l[i], r[i]))
		}
	case numericTag(lc.Tag) && numericTag(rc.Tag):
		for j := 0; j < live; j++ {
			i := rowAt(sel, j)
			dst[k] = i
			k += m.accept(cmpNum(numAt(lc, i), numAt(rc, i)))
		}
	case strTag(lc.Tag) && strTag(rc.Tag):
		for j := 0; j < live; j++ {
			i := rowAt(sel, j)
			dst[k] = i
			k += m.accept(strings.Compare(lc.StrAt(i), rc.StrAt(i)))
		}
	default:
		for j := 0; j < live; j++ {
			i := rowAt(sel, j)
			lv, rv := lc.Value(i), rc.Value(i)
			dst[k] = i
			k += m.accept(values.Compare(lv, rv)) &^ (b2i(lv.IsNull()) | b2i(rv.IsNull()))
		}
	}
	return dst[:k]
}

// strTag reports whether the tag carries string payloads.
func strTag(t vec.Tag) bool { return t == vec.Str || t == vec.StrDict }

// approxValueBytes is a shallow per-value footprint estimate for budget
// accounting of boxed accumulation: interface/struct overhead plus the
// variable payload of strings and a flat allowance for nested values.
// A collecting sink charges it once per chunk from a sampled value, a
// retaining accumulator once per value it keeps.
func approxValueBytes(v values.Value) int64 {
	const base = 56 // tagged value struct overhead
	switch v.Kind() {
	case values.KindString:
		return base + int64(v.Len())
	case values.KindRecord:
		n := int64(len(v.Fields()))
		return base + n*(base+16)
	case values.KindList, values.KindBag, values.KindSet:
		return base + int64(v.Len())*base
	default:
		return base
	}
}
