package jit

import (
	"strings"

	"vida/internal/algebra"
	"vida/internal/mcl"
	"vida/internal/monoid"
	"vida/internal/values"
	"vida/internal/vec"
)

// This file holds the vectorized execution kernels: predicate filters
// that refine a batch's selection vector over typed column payloads, and
// the reduce consumer that folds batches into a monoid collector with
// unboxed fast paths for the common aggregate monoids. Kernels dispatch
// on the column Tag per batch (once per ~1024 rows), so the same staged
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

// cmpMask maps a comparison operator to the accepted Compare outcomes.
func cmpMask(op mcl.BinOp) (lt, eq, gt bool) {
	switch op {
	case mcl.OpEq:
		return false, true, false
	case mcl.OpNeq:
		return true, false, true
	case mcl.OpLt:
		return true, false, false
	case mcl.OpLe:
		return true, true, false
	case mcl.OpGt:
		return false, false, true
	case mcl.OpGe:
		return false, true, true
	}
	return false, false, false
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

// selConstCmp refines sel with col ⟨op⟩ const, dispatching on the
// column's runtime representation.
func selConstCmp(col *vec.Col, b *vec.Batch, cv values.Value, lt, eq, gt bool, sel []int) []int {
	switch {
	case col.Tag == vec.Int64 && cv.Kind() == values.KindInt:
		return filterIntConst(col, b, cv.Int(), lt, eq, gt, sel)
	case col.Tag == vec.Int64 && cv.Kind() == values.KindFloat:
		return filterIntFloatConst(col, b, cv.Float(), lt, eq, gt, sel)
	case col.Tag == vec.Float64 && cv.IsNumeric():
		return filterFloatConst(col, b, cv.Float(), lt, eq, gt, sel)
	case col.Tag == vec.Str && cv.Kind() == values.KindString:
		return filterStrConst(col, b, cv.Str(), lt, eq, gt, sel)
	case col.Tag == vec.StrDict && cv.Kind() == values.KindString:
		return filterDictConst(col, b, cv.Str(), lt, eq, gt, sel)
	default:
		return filterBoxedConst(col, b, cv, lt, eq, gt, sel)
	}
}

// kernelConstFilter builds the column-vs-constant filter factory: the
// kernel (an identity kernel for a slot) evaluates over the current live
// rows, then the comparison loops refine the selection.
func kernelConstFilter(mk func() vecExpr, op mcl.BinOp, cv values.Value) func() batchFilter {
	lt, eq, gt := cmpMask(op)
	return func() batchFilter {
		k := mk()
		sel := make([]int, 0, 64)
		return func(b *vec.Batch) error {
			// The kernel runs even against a null constant (uniformly
			// false comparison): a computed column can error — e.g. a
			// division by zero — and the row engine surfaces that.
			col, err := k(b)
			if err != nil {
				return err
			}
			sel = sel[:0]
			if cv.IsNull() {
				b.Sel = sel
				return nil
			}
			sel = selConstCmp(col, b, cv, lt, eq, gt, sel)
			b.Sel = sel
			return nil
		}
	}
}

// kernelPairFilter builds the computed-vs-computed filter factory with
// typed comparison loops (slot references compile to identity kernels,
// so slot-vs-slot and slot-vs-kernel shapes land here too).
func kernelPairFilter(mkL, mkR func() vecExpr, op mcl.BinOp) func() batchFilter {
	lt, eq, gt := cmpMask(op)
	return func() batchFilter {
		lk, rk := mkL(), mkR()
		sel := make([]int, 0, 64)
		return func(b *vec.Batch) error {
			lc, err := lk(b)
			if err != nil {
				return err
			}
			rc, err := rk(b)
			if err != nil {
				return err
			}
			sel = sel[:0]
			sel = selPairCmp(lc, rc, b, lt, eq, gt, sel)
			b.Sel = sel
			return nil
		}
	}
}

// selPairCmp refines sel with lc ⟨op⟩ rc per live row, with typed fast
// paths for the numeric and string pairings.
func selPairCmp(lc, rc *vec.Col, b *vec.Batch, lt, eq, gt bool, sel []int) []int {
	n := b.Len()
	nullAt := func(c *vec.Col, i int) bool { return c.Nulls != nil && c.Nulls[i] }
	switch {
	case lc.Tag == vec.Int64 && rc.Tag == vec.Int64:
		for k := 0; k < n; k++ {
			i := b.Index(k)
			if nullAt(lc, i) || nullAt(rc, i) {
				continue
			}
			a, c := lc.Ints[i], rc.Ints[i]
			if (a < c && lt) || (a == c && eq) || (a > c && gt) {
				sel = append(sel, i)
			}
		}
	case numericTag(lc.Tag) && numericTag(rc.Tag):
		for k := 0; k < n; k++ {
			i := b.Index(k)
			if nullAt(lc, i) || nullAt(rc, i) {
				continue
			}
			cmp := values.CompareFloats(numAt(lc, i), numAt(rc, i))
			if (cmp < 0 && lt) || (cmp == 0 && eq) || (cmp > 0 && gt) {
				sel = append(sel, i)
			}
		}
	case strTag(lc.Tag) && strTag(rc.Tag):
		for k := 0; k < n; k++ {
			i := b.Index(k)
			if nullAt(lc, i) || nullAt(rc, i) {
				continue
			}
			cmp := strings.Compare(lc.StrAt(i), rc.StrAt(i))
			if (cmp < 0 && lt) || (cmp == 0 && eq) || (cmp > 0 && gt) {
				sel = append(sel, i)
			}
		}
	default:
		for k := 0; k < n; k++ {
			i := b.Index(k)
			lv := lc.Value(i)
			if lv.IsNull() {
				continue
			}
			rv := rc.Value(i)
			if rv.IsNull() {
				continue
			}
			cmp := values.Compare(lv, rv)
			if (cmp < 0 && lt) || (cmp == 0 && eq) || (cmp > 0 && gt) {
				sel = append(sel, i)
			}
		}
	}
	return sel
}

func filterIntConst(col *vec.Col, b *vec.Batch, c int64, lt, eq, gt bool, out []int) []int {
	if b.Sel == nil {
		for i, v := range col.Ints[:b.N] {
			if col.Nulls != nil && col.Nulls[i] {
				continue
			}
			if (v < c && lt) || (v == c && eq) || (v > c && gt) {
				out = append(out, i)
			}
		}
		return out
	}
	for _, i := range b.Sel {
		if col.Nulls != nil && col.Nulls[i] {
			continue
		}
		v := col.Ints[i]
		if (v < c && lt) || (v == c && eq) || (v > c && gt) {
			out = append(out, i)
		}
	}
	return out
}

func filterIntFloatConst(col *vec.Col, b *vec.Batch, c float64, lt, eq, gt bool, out []int) []int {
	keep := func(v int64) bool {
		cmp := values.CompareFloats(float64(v), c)
		return (cmp < 0 && lt) || (cmp == 0 && eq) || (cmp > 0 && gt)
	}
	if b.Sel == nil {
		for i, v := range col.Ints[:b.N] {
			if col.Nulls != nil && col.Nulls[i] {
				continue
			}
			if keep(v) {
				out = append(out, i)
			}
		}
		return out
	}
	for _, i := range b.Sel {
		if col.Nulls != nil && col.Nulls[i] {
			continue
		}
		if keep(col.Ints[i]) {
			out = append(out, i)
		}
	}
	return out
}

func filterFloatConst(col *vec.Col, b *vec.Batch, c float64, lt, eq, gt bool, out []int) []int {
	if b.Sel == nil {
		for i, v := range col.Floats[:b.N] {
			if col.Nulls != nil && col.Nulls[i] {
				continue
			}
			cmp := values.CompareFloats(v, c)
			if (cmp < 0 && lt) || (cmp == 0 && eq) || (cmp > 0 && gt) {
				out = append(out, i)
			}
		}
		return out
	}
	for _, i := range b.Sel {
		if col.Nulls != nil && col.Nulls[i] {
			continue
		}
		cmp := values.CompareFloats(col.Floats[i], c)
		if (cmp < 0 && lt) || (cmp == 0 && eq) || (cmp > 0 && gt) {
			out = append(out, i)
		}
	}
	return out
}

func filterStrConst(col *vec.Col, b *vec.Batch, c string, lt, eq, gt bool, out []int) []int {
	if b.Sel == nil {
		for i, v := range col.Strs[:b.N] {
			if col.Nulls != nil && col.Nulls[i] {
				continue
			}
			cmp := strings.Compare(v, c)
			if (cmp < 0 && lt) || (cmp == 0 && eq) || (cmp > 0 && gt) {
				out = append(out, i)
			}
		}
		return out
	}
	for _, i := range b.Sel {
		if col.Nulls != nil && col.Nulls[i] {
			continue
		}
		cmp := strings.Compare(col.Strs[i], c)
		if (cmp < 0 && lt) || (cmp == 0 && eq) || (cmp > 0 && gt) {
			out = append(out, i)
		}
	}
	return out
}

// strTag reports whether the tag carries string payloads.
func strTag(t vec.Tag) bool { return t == vec.Str || t == vec.StrDict }

// filterDictConst is the dictionary-code fast path: one binary search of
// the constant in the sorted dictionary, then a pure integer comparison
// per row — no string is touched, let alone materialized. When the
// constant is absent, pos is its insertion point, so code < pos still
// means "row string sorts below the constant" and equality is impossible.
func filterDictConst(col *vec.Col, b *vec.Batch, c string, lt, eq, gt bool, out []int) []int {
	lo, hi := 0, len(col.Dict)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if col.Dict[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	pos := uint32(lo)
	present := lo < len(col.Dict) && col.Dict[lo] == c
	keep := func(code uint32) bool {
		if code < pos {
			return lt
		}
		if present && code == pos {
			return eq
		}
		return gt
	}
	if b.Sel == nil {
		for i, code := range col.Codes[:b.N] {
			if col.Nulls != nil && col.Nulls[i] {
				continue
			}
			if keep(code) {
				out = append(out, i)
			}
		}
		return out
	}
	for _, i := range b.Sel {
		if col.Nulls != nil && col.Nulls[i] {
			continue
		}
		if keep(col.Codes[i]) {
			out = append(out, i)
		}
	}
	return out
}

func filterBoxedConst(col *vec.Col, b *vec.Batch, cv values.Value, lt, eq, gt bool, out []int) []int {
	n := b.Len()
	for k := 0; k < n; k++ {
		i := b.Index(k)
		v := col.Value(i)
		if v.IsNull() {
			continue
		}
		cmp := values.Compare(v, cv)
		if (cmp < 0 && lt) || (cmp == 0 && eq) || (cmp > 0 && gt) {
			out = append(out, i)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Vectorized reduce
// ---------------------------------------------------------------------------

// aggKind selects the reduce fast path. aggGeneric boxes every head value
// into the collector; the others accumulate unboxed partials over typed
// columns and absorb them into the collector at finish.
type aggKind uint8

const (
	aggGeneric aggKind = iota
	aggCount
	aggSum
	aggAvg
	aggMin
	aggMax
)

// reduceConsumer folds pipeline batches into a monoid collector. One
// consumer serves one serial run or one morsel worker; reset swaps the
// collector between morsels so partial aggregates merge in morsel order.
type reduceConsumer struct {
	acc  *monoid.Collector
	head vecExpr // the staged head column; nil for a constant head
	// headConst marks a numeric constant head (a literal or a bound
	// parameter, as in COUNT(*) = sum 1), or a count over a head that
	// cannot fail: every live row contributes the same value, so a batch
	// folds on its row count without reading a row.
	headConst bool
	constVal  values.Value
	kind      aggKind

	// Unboxed partial aggregates, folded into acc by finish. Typed
	// kernels only run on columns without a validity mask; batches with
	// nulls (or boxed/string payloads) take the per-row boxed path so
	// null semantics stay byte-identical with the row engine.
	isum, count        int64
	fsum               float64
	sawInt, sawFloat   bool
	imin, imax         int64
	fmin, fmax         float64
	haveIMin, haveIMax bool
	haveFMin, haveFMax bool
	best               values.Value // boxed min/max candidate
	haveBest           bool

	// reserve, when non-nil, charges the query memory budget for boxed
	// values retained by the collector (collection monoids accumulate
	// every row; aggregates hold O(1) state and never charge).
	reserve func(delta int64) error
}

// approxValueBytes is a shallow per-value footprint estimate for budget
// accounting of boxed accumulation: interface/struct overhead plus the
// variable payload of strings and a flat allowance for nested values.
// Charged once per batch from a sampled value, it bounds the dominant
// allocator without walking every row.
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

// chargeBoxed charges n boxed values against the query budget, sized by
// a sampled representative.
func (rc *reduceConsumer) chargeBoxed(sample values.Value, n int) error {
	if rc.reserve == nil || n == 0 {
		return nil
	}
	return rc.reserve(int64(n) * approxValueBytes(sample))
}

// reset points the consumer at a fresh collector and clears partials.
func (rc *reduceConsumer) reset(acc *monoid.Collector) {
	rc.acc = acc
	rc.isum, rc.count, rc.fsum = 0, 0, 0
	rc.sawInt, rc.sawFloat = false, false
	rc.haveIMin, rc.haveIMax, rc.haveFMin, rc.haveFMax = false, false, false, false
	rc.best, rc.haveBest = values.Null, false
}

func (rc *reduceConsumer) consume(b *vec.Batch) error {
	n := b.Len()
	if n == 0 {
		return nil
	}
	if rc.headConst {
		rc.foldConst(int64(n))
		return nil
	}
	col, err := rc.head(b)
	if err != nil {
		return err
	}
	if rc.kind == aggCount {
		// Unit is 1 regardless of the head value: a head that can fail is
		// computed only to surface its errors.
		rc.count += int64(n)
		return nil
	}
	if col.Nulls == nil {
		switch rc.kind {
		case aggSum:
			switch col.Tag {
			case vec.Int64:
				var s int64
				if b.Sel == nil {
					for _, v := range col.Ints[:b.N] {
						s += v
					}
				} else {
					for _, i := range b.Sel {
						s += col.Ints[i]
					}
				}
				rc.isum += s
				rc.sawInt = true
				return nil
			case vec.Float64:
				var s float64
				if b.Sel == nil {
					for _, v := range col.Floats[:b.N] {
						s += v
					}
				} else {
					for _, i := range b.Sel {
						s += col.Floats[i]
					}
				}
				rc.fsum += s
				rc.sawFloat = true
				return nil
			}
		case aggAvg:
			// avg accumulates its sum as float64 (matching avgMonoid.Unit).
			switch col.Tag {
			case vec.Int64:
				var s float64
				if b.Sel == nil {
					for _, v := range col.Ints[:b.N] {
						s += float64(v)
					}
				} else {
					for _, i := range b.Sel {
						s += float64(col.Ints[i])
					}
				}
				rc.fsum += s
				rc.count += int64(n)
				return nil
			case vec.Float64:
				var s float64
				if b.Sel == nil {
					for _, v := range col.Floats[:b.N] {
						s += v
					}
				} else {
					for _, i := range b.Sel {
						s += col.Floats[i]
					}
				}
				rc.fsum += s
				rc.count += int64(n)
				return nil
			}
		case aggMin, aggMax:
			switch col.Tag {
			case vec.Int64:
				if b.Sel == nil {
					for _, v := range col.Ints[:b.N] {
						rc.noteInt(v)
					}
				} else {
					for _, i := range b.Sel {
						rc.noteInt(col.Ints[i])
					}
				}
				return nil
			case vec.Float64:
				if b.Sel == nil {
					for _, v := range col.Floats[:b.N] {
						rc.noteFloat(v)
					}
				} else {
					for _, i := range b.Sel {
						rc.noteFloat(col.Floats[i])
					}
				}
				return nil
			}
		}
	}
	// Boxed fallback kernels (boxed or nullable columns, and the boxed
	// columns of heads no kernel covers): same accumulation as the
	// collector would perform per row, minus the per-row boxing of
	// partial aggregates.
	// Numeric conversions go through Value.Float/Kind exactly as the
	// monoids' Unit/Merge would, so error behaviour (panics on null or
	// non-numeric sum/avg inputs) is unchanged.
	switch rc.kind {
	case aggSum:
		for k := 0; k < n; k++ {
			v := col.Value(b.Index(k))
			switch v.Kind() {
			case values.KindInt:
				rc.isum += v.Int()
				rc.sawInt = true
			default:
				rc.fsum += v.Float()
				rc.sawFloat = true
			}
		}
	case aggAvg:
		for k := 0; k < n; k++ {
			rc.fsum += col.Value(b.Index(k)).Float()
		}
		rc.count += int64(n)
	case aggMin, aggMax:
		want := -1
		if rc.kind == aggMax {
			want = 1
		}
		for k := 0; k < n; k++ {
			v := col.Value(b.Index(k))
			if v.IsNull() {
				continue
			}
			if !rc.haveBest || values.Compare(v, rc.best)*want > 0 {
				rc.best = v
				rc.haveBest = true
			}
		}
	default:
		for k := 0; k < n; k++ {
			rc.acc.Add(col.Value(b.Index(k)))
		}
		return rc.chargeBoxed(col.Value(b.Index(0)), n)
	}
	return nil
}

// foldConst accumulates n rows of the constant head. Integer sums are
// one multiplication, exact mod 2^64 as n additions are. Float sums (and
// avg's float sum) add the constant once per row, in row order: one
// multiplication rounds once where the reference executor's n additions
// round n times, so `sum 0.1` would not be its bit-for-bit answer.
func (rc *reduceConsumer) foldConst(n int64) {
	isInt := rc.constVal.Kind() == values.KindInt
	switch rc.kind {
	case aggCount:
		rc.count += n
	case aggSum:
		if isInt {
			rc.isum += rc.constVal.Int() * n
			rc.sawInt = true
		} else {
			rc.addFloats(rc.constVal.Float(), n)
			rc.sawFloat = true
		}
	case aggAvg:
		rc.addFloats(rc.constVal.Float(), n)
		rc.count += n
	case aggMin, aggMax:
		if isInt {
			rc.noteInt(rc.constVal.Int())
		} else {
			rc.noteFloat(rc.constVal.Float())
		}
	}
}

// addFloats adds c to the float sum n times, one rounding per row.
func (rc *reduceConsumer) addFloats(c float64, n int64) {
	s := rc.fsum
	for ; n > 0; n-- {
		s += c
	}
	rc.fsum = s
}

func (rc *reduceConsumer) noteInt(v int64) {
	if rc.kind == aggMin {
		if !rc.haveIMin || v < rc.imin {
			rc.imin = v
		}
		rc.haveIMin = true
		return
	}
	if !rc.haveIMax || v > rc.imax {
		rc.imax = v
	}
	rc.haveIMax = true
}

func (rc *reduceConsumer) noteFloat(v float64) {
	if rc.kind == aggMin {
		if !rc.haveFMin || values.CompareFloats(v, rc.fmin) < 0 {
			rc.fmin = v
		}
		rc.haveFMin = true
		return
	}
	if !rc.haveFMax || values.CompareFloats(v, rc.fmax) > 0 {
		rc.fmax = v
	}
	rc.haveFMax = true
}

// finish folds the unboxed partials into the collector. It must be called
// exactly once per reset before the collector is merged or finalized.
func (rc *reduceConsumer) finish() {
	switch rc.kind {
	case aggCount:
		if rc.count > 0 {
			rc.acc.Absorb(values.NewInt(rc.count))
		}
	case aggSum:
		switch {
		case rc.sawInt && rc.sawFloat:
			rc.acc.Absorb(values.NewFloat(rc.fsum + float64(rc.isum)))
		case rc.sawInt:
			rc.acc.Absorb(values.NewInt(rc.isum))
		case rc.sawFloat:
			rc.acc.Absorb(values.NewFloat(rc.fsum))
		}
	case aggAvg:
		if rc.count > 0 {
			rc.acc.Absorb(values.NewRecord(
				values.Field{Name: "sum", Val: values.NewFloat(rc.fsum)},
				values.Field{Name: "count", Val: values.NewInt(rc.count)},
			))
		}
	case aggMin, aggMax:
		if rc.haveIMin || rc.haveIMax {
			v := rc.imin
			if rc.kind == aggMax {
				v = rc.imax
			}
			rc.acc.Absorb(values.NewInt(v))
		}
		if rc.haveFMin || rc.haveFMax {
			v := rc.fmin
			if rc.kind == aggMax {
				v = rc.fmax
			}
			rc.acc.Absorb(values.NewFloat(v))
		}
		if rc.haveBest {
			rc.acc.Absorb(rc.best)
		}
	}
}

// compileReduceConsumer stages the fold root's consumer: the head is a
// mkGetter column — or, for a numeric constant head, folded on the batch
// length — accumulated with unboxed kernels when the monoid is one of
// count/sum/avg/min/max, through the collector otherwise.
func (c *compiler) compileReduceConsumer(p *algebra.Reduce, input *compiledPlan) (func() *reduceConsumer, error) {
	kind := aggGeneric
	switch p.M.Name() {
	case "count":
		kind = aggCount
	case "sum":
		kind = aggSum
	case "avg":
		kind = aggAvg
	case "min":
		kind = aggMin
	case "max":
		kind = aggMax
	}
	constVal, headConst := constOf(p.Head)
	headConst = headConst && kind != aggGeneric &&
		(constVal.Kind() == values.KindInt || constVal.Kind() == values.KindFloat)
	// count's Unit ignores its argument: a head that cannot fail folds on
	// the batch length too, whatever it is.
	headConst = headConst || kind == aggCount && c.infallible(p.Head, input.frame)
	var mkHead func() vecExpr
	if headConst {
		c.vecStages++
	} else {
		var err error
		if mkHead, err = c.mkGetter(p.Head, input.frame); err != nil {
			return nil, err
		}
	}
	// Only monoids that retain their inputs owe the memory budget for
	// them; scalar folds (count/sum/min/...) keep O(1) state no matter
	// how many boxed values pass through.
	reserve := c.opts.MemReserve
	if name := p.M.Name(); name != "array" && name != "median" {
		reserve = nil
	}
	return func() *reduceConsumer {
		rc := &reduceConsumer{kind: kind, reserve: reserve, headConst: headConst, constVal: constVal}
		if mkHead != nil {
			rc.head = mkHead()
		}
		return rc
	}, nil
}
