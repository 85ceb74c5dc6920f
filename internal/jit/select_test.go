package jit

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vida/internal/mcl"
	"vida/internal/values"
	"vida/internal/vec"
)

var cmpOps = []mcl.BinOp{mcl.OpEq, mcl.OpNeq, mcl.OpLt, mcl.OpLe, mcl.OpGt, mcl.OpGe}

// selCol is one kernel input column and the boxed rows it represents.
type selCol struct {
	name string
	col  vec.Col
	rows []values.Value
}

// typedCols returns rows as every representation that can hold them: a
// boxed column always, Int64 or Float64 when every non-null row has that
// kind, Str and StrDict when every one is a string. Null rows carry
// payloads a kernel must never act on: the column's largest value, and a
// dictionary code past the dictionary's end.
func typedCols(rows []values.Value) []selCol {
	out := []selCol{{name: "boxed", col: vec.Col{Tag: vec.Boxed, Boxed: rows}, rows: rows}}
	kind, nulls := values.KindNull, false
	for _, v := range rows {
		switch {
		case v.IsNull():
			nulls = true
		case kind == values.KindNull:
			kind = v.Kind()
		case kind != v.Kind():
			return out
		}
	}
	if kind == values.KindNull {
		kind = values.KindInt // every row null
	}
	var mask []bool
	if nulls {
		mask = make([]bool, len(rows))
		for i, v := range rows {
			mask[i] = v.IsNull()
		}
	}
	switch kind {
	case values.KindInt:
		c := vec.Col{Tag: vec.Int64, Ints: make([]int64, len(rows)), Nulls: mask}
		for i, v := range rows {
			c.Ints[i] = math.MaxInt64
			if !v.IsNull() {
				c.Ints[i] = v.Int()
			}
		}
		out = append(out, selCol{"int64", c, rows})
	case values.KindFloat:
		c := vec.Col{Tag: vec.Float64, Floats: make([]float64, len(rows)), Nulls: mask}
		for i, v := range rows {
			c.Floats[i] = math.Inf(1)
			if !v.IsNull() {
				c.Floats[i] = v.Float()
			}
		}
		out = append(out, selCol{"float64", c, rows})
	case values.KindString:
		s := vec.Col{Tag: vec.Str, Strs: make([]string, len(rows)), Nulls: mask}
		var dict []string
		for i, v := range rows {
			s.Strs[i] = "\xff"
			if !v.IsNull() {
				s.Strs[i] = v.Str()
				dict = append(dict, v.Str())
			}
		}
		slices.Sort(dict)
		dict = slices.Compact(dict)
		d := vec.Col{Tag: vec.StrDict, Codes: make([]uint32, len(rows)), Dict: dict, Nulls: mask}
		for i, v := range rows {
			d.Codes[i] = uint32(len(dict))
			if !v.IsNull() {
				at, _ := slices.BinarySearch(dict, v.Str())
				d.Codes[i] = uint32(at)
			}
		}
		out = append(out, selCol{"string", s, rows}, selCol{"strdict", d, rows})
	}
	return out
}

// selections returns the live-row sets a kernel is checked over for n
// rows: all (nil) and a sorted subset.
func selections(n int, rng *rand.Rand) [][]int {
	var sub []int
	for i := 0; i < n; i++ {
		if rng.Intn(3) != 0 {
			sub = append(sub, i)
		}
	}
	if sub == nil {
		sub = []int{}
	}
	return [][]int{nil, sub}
}

// opHolds reports whether values.Compare's outcome c satisfies op. It
// reads only the sign of c, which may have any magnitude.
func opHolds(op mcl.BinOp, c int) bool {
	switch op {
	case mcl.OpEq:
		return c == 0
	case mcl.OpNeq:
		return c != 0
	case mcl.OpLt:
		return c < 0
	case mcl.OpLe:
		return c <= 0
	case mcl.OpGt:
		return c > 0
	case mcl.OpGe:
		return c >= 0
	}
	panic(fmt.Sprintf("opHolds: %s is not a comparison", op))
}

// wantSelect is the row-at-a-time oracle: the live rows whose operands
// are both non-null and whose values.Compare outcome satisfies op.
func wantSelect(n int, sel []int, op mcl.BinOp, l, r func(i int) values.Value) []int {
	want := []int{}
	for j := 0; j < liveLen(n, sel); j++ {
		i := rowAt(sel, j)
		lv, rv := l(i), r(i)
		if !lv.IsNull() && !rv.IsNull() && opHolds(op, values.Compare(lv, rv)) {
			want = append(want, i)
		}
	}
	return want
}

// runSelect runs kernel over b twice, into a fresh buffer and into the
// one b.Sel aliases, and fails unless both runs select want.
func runSelect(t *testing.T, what string, n int, sel, want []int, kernel func(b *vec.Batch, dst []int) []int) {
	t.Helper()
	b := &vec.Batch{N: n, Sel: sel}
	if got := kernel(b, make([]int, n)); !slices.Equal(got, want) {
		t.Fatalf("%s sel=%v: got %v, want %v", what, sel, got, want)
	}
	if sel == nil {
		return
	}
	buf := make([]int, n)
	b.Sel = buf[:copy(buf, sel)]
	if got := kernel(b, buf); !slices.Equal(got, want) {
		t.Fatalf("%s sel=%v aliasing dst: got %v, want %v", what, sel, got, want)
	}
}

// checkConst checks selConstCmp on every representation of rows against
// every constant and op.
func checkConst(t *testing.T, rows []values.Value, consts []values.Value, rng *rand.Rand) {
	t.Helper()
	n := len(rows)
	for _, c := range typedCols(rows) {
		for _, sel := range selections(n, rng) {
			for _, cv := range consts {
				for _, op := range cmpOps {
					want := wantSelect(n, sel, op, c.col.Value, func(int) values.Value { return cv })
					what := fmt.Sprintf("%s %v %s %v", c.name, rows, op, cv)
					runSelect(t, what, n, sel, want, func(b *vec.Batch, dst []int) []int {
						return selConstCmp(&c.col, b, cv, op, dst)
					})
				}
			}
		}
	}
}

// checkPair checks selPairCmp on every pairing of representations of
// the two row sets.
func checkPair(t *testing.T, left, right []values.Value, rng *rand.Rand) {
	t.Helper()
	n := len(left)
	for _, l := range typedCols(left) {
		for _, r := range typedCols(right) {
			for _, sel := range selections(n, rng) {
				for _, op := range cmpOps {
					want := wantSelect(n, sel, op, l.col.Value, r.col.Value)
					what := fmt.Sprintf("%s %v %s %s %v", l.name, left, op, r.name, right)
					runSelect(t, what, n, sel, want, func(b *vec.Batch, dst []int) []int {
						return selPairCmp(&l.col, &r.col, b, op, dst)
					})
				}
			}
		}
	}
}

func ints(xs ...int64) []values.Value {
	out := make([]values.Value, len(xs))
	for i, x := range xs {
		out[i] = values.NewInt(x)
	}
	return out
}

func floats(xs ...float64) []values.Value {
	out := make([]values.Value, len(xs))
	for i, x := range xs {
		out[i] = values.NewFloat(x)
	}
	return out
}

func strs(xs ...string) []values.Value {
	out := make([]values.Value, len(xs))
	for i, x := range xs {
		out[i] = values.NewString(x)
	}
	return out
}

// withNull returns rows with a null spliced in at each of the given
// positions.
func withNull(rows []values.Value, at ...int) []values.Value {
	out := slices.Clone(rows)
	for _, i := range at {
		out = slices.Insert(out, min(i, len(out)), values.Null)
	}
	return out
}

// TestSelectMatchesCompare pins every selection kernel, column against
// constant and column against column, to values.Compare row at a time:
// integers at the int64 extremes, floats with NaN, ±0 and ±Inf, strings
// plain and dictionary-coded, with and without nulls, under every
// comparison, every live-row set and a selection aliasing the output.
func TestSelectMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inf, nan := math.Inf(1), math.NaN()
	negZero := math.Copysign(0, -1)
	intRows := ints(math.MinInt64, math.MinInt64+1, -7, -1, 0, 1, 7, 7, math.MaxInt64-1, math.MaxInt64)
	floatRows := floats(nan, -inf, -math.MaxFloat64, -1.5, negZero, 0, 5e-324, 1.5, 7, math.MaxFloat64, inf, nan)
	strRows := strs("", "a", "ab", "b", "b", "ba", "zz")
	intConsts := append(ints(math.MinInt64, math.MinInt64+1, -8, -7, -2, 0, 1, 7, 8, math.MaxInt64-1, math.MaxInt64),
		floats(nan, -inf, -0x1p63, -7.5, negZero, 0, 6.5, 7, 0x1p63, inf)...)
	floatConsts := append(floats(nan, -inf, -math.MaxFloat64, -1.5, -1, negZero, 0, 5e-324, 1.5, 7, math.MaxFloat64, inf),
		ints(math.MinInt64, -1, 0, 7, math.MaxInt64)...)
	strConsts := append(strs("", "0", "a", "aa", "ab", "b", "bb", "zz", "zzz"), values.NewInt(3))
	for _, nulls := range []bool{false, true} {
		ir, fr, sr := intRows, floatRows, strRows
		if nulls {
			ir, fr, sr = withNull(ir, 0, 5, 99), withNull(fr, 2, 99), withNull(sr, 0, 3)
		}
		checkConst(t, ir, intConsts, rng)
		checkConst(t, fr, floatConsts, rng)
		checkConst(t, sr, strConsts, rng)
		// Every row null, and a mixed-kind boxed column.
		checkConst(t, withNull(nil, 0, 0, 0), append(intConsts[:2:2], strConsts[:2]...), rng)
		checkConst(t, append(ints(1, 2), append(floats(1.5, nan), strs("x")...)...), intConsts, rng)
	}
	// Pairs: every representation against every other over rows that
	// align extremes with extremes, NaN with NaN and −0 with +0.
	il := ints(math.MinInt64, -1, 0, 3, 3, math.MaxInt64, 7, math.MaxInt64)
	ir := ints(math.MaxInt64, -1, 1, 2, 3, math.MinInt64, 7, math.MaxInt64)
	fl := floats(nan, -inf, negZero, 3, 2.5, inf, nan, 1)
	fr := floats(1, -inf, 0, 3, 3, nan, nan, math.MaxFloat64)
	sl := strs("", "a", "b", "b", "zz", "a", "c", "")
	sr := strs("a", "", "b", "c", "zz", "a", "b", "")
	for _, nulls := range []bool{false, true} {
		if nulls {
			il, ir, fl, fr = withNull(il, 1), withNull(ir, 4), withNull(fl, 0), withNull(fr, 0)
			sl, sr = withNull(sl, 2), withNull(sr, 8)
		}
		for _, l := range [][]values.Value{il, fl, sl} {
			for _, r := range [][]values.Value{ir, fr, sr} {
				checkPair(t, l, r, rng)
			}
		}
	}
	// Lists, records and arrays live in boxed columns, and values.Compare
	// gives them a length or dims difference rather than ±1: rows that
	// share a prefix and differ in length by 0 to 3.
	lists, recs, arrs := nested(values.NewList), nested(record), nested(array)
	for _, rows := range [][]values.Value{lists, recs, arrs} {
		checkConst(t, rows, rows, rng)
		checkConst(t, withNull(rows, 2), rows[:2], rng)
		rev := slices.Clone(rows)
		slices.Reverse(rev)
		checkPair(t, rows, rev, rng)
		checkPair(t, withNull(rows, 1), withNull(rev, 3), rng)
	}
}

// nested returns the values mk builds from the prefixes, of lengths 0 to
// 4, of (1, 2, 3, 4), and a one-element value that differs from them all
// in its first element.
func nested(mk func(...values.Value) values.Value) []values.Value {
	elems := ints(1, 2, 3, 4)
	var out []values.Value
	for n := 0; n <= len(elems); n++ {
		out = append(out, mk(elems[:n]...))
	}
	return append(out, mk(ints(9)...))
}

// record is a record with one field per element, named by position.
func record(elems ...values.Value) values.Value {
	fs := make([]values.Field, len(elems))
	for i, e := range elems {
		fs[i] = values.Field{Name: fmt.Sprint("f", i), Val: e}
	}
	return values.NewRecord(fs...)
}

// array is a 1×n array when the elements are few, so that arrays of
// different lengths differ in their second dimension, and n×1 past 2, so
// that they differ in their first.
func array(elems ...values.Value) values.Value {
	if len(elems) <= 2 {
		return values.NewArray([]int{1, len(elems)}, elems)
	}
	return values.NewArray([]int{len(elems), 1}, elems)
}

// TestConstFilterNullConstant pins the filter stage around the kernel: a
// null constant selects nothing (the selection stays non-nil), and the
// selection buffer is reused across batches of different lengths.
func TestConstFilterNullConstant(t *testing.T) {
	ident := func() vecExpr { return func(b *vec.Batch) (*vec.Col, error) { return &b.Cols[0], nil } }
	for _, cv := range []values.Value{values.Null, values.NewInt(2)} {
		flt := kernelConstFilter(ident, mcl.OpGe, cv)()
		for _, n := range []int{4, 9, 2} {
			col := vec.Col{Tag: vec.Int64, Ints: make([]int64, n)}
			for i := range col.Ints {
				col.Ints[i] = int64(i)
			}
			b := &vec.Batch{Cols: []vec.Col{col}, N: n}
			if err := flt(b); err != nil {
				t.Fatal(err)
			}
			want := wantSelect(n, nil, mcl.OpGe, col.Value, func(int) values.Value { return cv })
			if b.Sel == nil || !slices.Equal(b.Sel, want) {
				t.Fatalf("const %v over %d rows: sel %v, want %v", cv, n, b.Sel, want)
			}
		}
	}
}

// FuzzSelect checks the selection kernels against the row oracle on
// arbitrary rows: each 9-byte chunk is one row (a null when its first
// byte is 0) read as an int, a float from its bits or a short string,
// the first row doubling as the constant.
func FuzzSelect(f *testing.F) {
	f.Add(uint8(0), []byte("\x01\x00\x00\x00\x00\x00\x00\x00\x80\x01\xff\xff\xff\xff\xff\xff\xff\x7f\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add(uint8(1), []byte("\x01\x00\x00\x00\x00\x00\x00\xf8\x7f\x01\x00\x00\x00\x00\x00\x00\x00\x80\x01\x00\x00\x00\x00\x00\x00\xf0\x7f"))
	f.Add(uint8(2), []byte("\x01abc\x00\x00\x00\x00\x00\x01ab\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		var rows []values.Value
		for ; len(data) >= 9 && len(rows) < 64; data = data[9:] {
			if data[0] == 0 {
				rows = append(rows, values.Null)
				continue
			}
			x := binary.LittleEndian.Uint64(data[1:9])
			switch kind % 3 {
			case 0:
				rows = append(rows, values.NewInt(int64(x)))
			case 1:
				rows = append(rows, values.NewFloat(math.Float64frombits(x)))
			default:
				rows = append(rows, values.NewString(string(data[1:1+x%4])))
			}
		}
		if len(rows) == 0 {
			return
		}
		rng := rand.New(rand.NewSource(int64(len(rows))))
		var consts []values.Value
		for _, v := range rows[:1] {
			if !v.IsNull() {
				consts = append(consts, v)
			}
		}
		checkConst(t, rows[1:], consts, rng)
		half := len(rows) / 2
		checkPair(t, rows[:half], rows[half:2*half], rng)
	})
}

// BenchmarkSelectSweep times `int >= const` over a 300k-row column of
// distinct values in random order, in 1024-row batches, at 1%, 5%, 50%
// and 95% selectivity; ns/row is the kernel's cost per input row.
func BenchmarkSelectSweep(b *testing.B) {
	const rows, batch = 300_000, 1024
	col := vec.Col{Tag: vec.Int64, Ints: make([]int64, rows)}
	for i, v := range rand.New(rand.NewSource(42)).Perm(rows) {
		col.Ints[i] = int64(v)
	}
	for _, pct := range []int{1, 5, 50, 95} {
		cv := values.NewInt(int64(rows * (100 - pct) / 100))
		b.Run(fmt.Sprintf("sel=%d%%", pct), func(b *testing.B) {
			dst := make([]int, batch)
			kept := 0
			for it := 0; it < b.N; it++ {
				for lo := 0; lo < rows; lo += batch {
					hi := min(lo+batch, rows)
					bt := vec.Batch{Cols: []vec.Col{col.Slice(lo, hi)}, N: hi - lo}
					kept += len(selConstCmp(&bt.Cols[0], &bt, cv, mcl.OpGe, dst))
				}
			}
			if kept != b.N*rows*pct/100 {
				b.Fatalf("kept %d rows, want %d", kept, b.N*rows*pct/100)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}
