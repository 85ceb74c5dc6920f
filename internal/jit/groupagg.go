package jit

import (
	"vida/internal/algebra"
	"vida/internal/mcl"
	"vida/internal/monoid"
	"vida/internal/trace"
	"vida/internal/values"
	"vida/internal/vec"
)

// This file implements the vectorized hash-aggregation operator behind
// every reduce that folds a scalar monoid — grouped (GROUP BY), or not:
// an ungrouped fold is the one-group case, with no key, no hashing and
// no slot table. One pass over the input partitions rows
// into a compact open-addressing group table (key tuple → dense group
// index) and folds each aggregate into typed per-group accumulator
// arrays, with a boxed per-group Collector fallback for monoids the
// typed paths do not specialize. Group keys hash and compare like join
// keys (keyHasher, keyEqual — plus the grouping rule that nulls are
// equal): one tag-dispatched pass per key column per batch, and the
// table stores each key position as one typed column, so typed payloads
// and vec.StrDict codes never box. One key
// column served as vec.StrDict takes the code-indexed path instead
// (groupCodes): each code's group is memoized in an array indexed by
// code, so such a row is neither hashed nor probed. Keys and
// aggregate inputs are staged by mkGetter through the expression kernels;
// a numeric constant input (COUNT(*) is `sum 1`) and a `count` whose
// input cannot fail stage no column.
// Under morsel parallelism each worker builds a partial table; partials
// merge into the root in morsel order, which — with groups kept in local
// first-occurrence order — reproduces the serial first-occurrence group
// order exactly.

// groupTableInitSlots is the initial open-addressing table size; the
// table doubles (rehashing the dense group list) past 3/4 load.
const groupTableInitSlots = 256

// groupChargeChunk batches memory-budget charges for the group table:
// the governor is consulted once per this many accumulated bytes, not
// per group.
const groupChargeChunk = 256 << 10

// mkGetter is the JIT's one expression stager: it turns an expression
// into a per-batch column factory for every consumer that reads a
// computed value — group keys and aggregate inputs, join keys, root
// heads and sort keys, bind columns and non-kernel filter predicates.
// compileVecExpr's kernels come first: a slot reference returns its
// column untouched (a shared, stateless kernel), a constant is a
// broadcast column filled once, arithmetic computes a typed column. Any
// other expression evaluates row-wise into a reused boxed column (filled
// at physical indices, live rows only). Each factory call returns a
// getter with its own scratch (one per consumer).
func (c *compiler) mkGetter(e mcl.Expr, f *frame) (func() vecExpr, error) {
	if mk := compileVecExpr(e, f); mk != nil {
		c.vecStages++
		return mk, nil
	}
	c.boxedStages++
	ce, err := c.compileExpr(e, f)
	if err != nil {
		return nil, err
	}
	width := f.width()
	return func() vecExpr {
		row := make([]values.Value, width)
		out := &vec.Col{Tag: vec.Boxed}
		return func(b *vec.Batch) (*vec.Col, error) {
			if cap(out.Boxed) < b.N {
				out.Boxed = make([]values.Value, b.N)
			}
			out.Boxed = out.Boxed[:b.N]
			n := b.Len()
			for k := 0; k < n; k++ {
				i := b.Index(k)
				fillRow(b, i, row)
				v, err := ce(row)
				if err != nil {
					return nil, err
				}
				out.Boxed[i] = v
			}
			return out, nil
		}
	}, nil
}

// newGetters instantiates one consumer's getters (getters own scratch);
// a nil factory, an input nothing reads, stays a nil getter.
func newGetters(mks []func() vecExpr) []vecExpr {
	gets := make([]vecExpr, len(mks))
	for j, mk := range mks {
		if mk != nil {
			gets[j] = mk()
		}
	}
	return gets
}

// getCols produces the columns of b into cols.
func getCols(gets []vecExpr, b *vec.Batch, cols []*vec.Col) error {
	for j, get := range gets {
		col, err := get(b)
		if err != nil {
			return err
		}
		cols[j] = col
	}
	return nil
}

// colNullAt reports whether row i of col is null.
func colNullAt(col *vec.Col, i int) bool {
	if col.Nulls != nil && col.Nulls[i] {
		return true
	}
	return col.Tag == vec.Boxed && col.Boxed[i].IsNull()
}

// groupAcc is one aggregate's per-group accumulator array: the monoid's
// fold, run once per group. Implementors index state by dense group id;
// addBatch returns the approximate boxed bytes newly retained (zero for
// typed state, which bytes() reports).
type groupAcc interface {
	// grow ensures state exists for n groups.
	grow(n int)
	// addBatch folds the live rows of b, at least one, into their groups:
	// the k-th live row into group gidx[k], or every row into group 0
	// when gidx is nil (the one-group pass of an ungrouped fold). col is
	// the input column; nil when the input is the accumulator's numeric
	// constant c, and for a count that reads no input.
	addBatch(col *vec.Col, b *vec.Batch, gidx []int32) int64
	// merge folds another consumer's partial state in: other's group og
	// lands in this table's group remap[og].
	merge(o groupAcc, remap []int32)
	// result finalizes one group's aggregate value.
	result(g int) values.Value
	// bytes approximates the typed state footprint.
	bytes() int64
}

// newGroupAcc selects the accumulator for a monoid: typed state for
// count/sum/avg/min/max — c is their numeric constant input, null when
// the input is a column — and a per-group Collector for everything else:
// collection monoids, median, prod, and/or, top-k. Every accumulator
// skips null inputs as Collector.Add does.
func newGroupAcc(m monoid.Monoid, c values.Value) groupAcc {
	switch m.Name() {
	case "count":
		return &countAcc{}
	case "sum":
		return &sumAcc{c: c}
	case "avg":
		return &avgAcc{c: c}
	case "min":
		return &minmaxAcc{want: -1, c: c}
	case "max":
		return &minmaxAcc{want: 1, c: c}
	}
	charge := monoid.IsCollection(m) || m.Name() == "median"
	return &boxedAcc{m: m, charge: charge}
}

// groupOf is the group of the k-th live row: gidx[k], or 0 in the
// one-group pass.
func groupOf(gidx []int32, k int) int32 {
	if gidx == nil {
		return 0
	}
	return gidx[k]
}

// growTo extends per-group state s with zero states to n groups. Group 0
// starts in first, the accumulator's own, so the one-group fold of an
// ungrouped reduce allocates no state array.
func growTo[T any](s []T, first *[1]T, n int) []T {
	if s == nil {
		s = first[:0]
	}
	if n > len(s) {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// liveSum adds the live rows of vals, which hold no nulls, to s in row
// order; the one-group pass keeps its partial in a register this way.
func liveSum[T, S int64 | float64](vals []T, n int, sel []int, s S) S {
	if sel == nil {
		for _, v := range vals[:n] {
			s += S(v)
		}
		return s
	}
	for _, i := range sel {
		s += S(vals[i])
	}
	return s
}

// liveBest returns the best of the live rows of vals, which hold no nulls
// (want -1: least, 1: greatest), under cmpNum: a later row replaces the
// best only when strictly better, so ties keep the first, as the monoid's
// Merge does.
func liveBest[T int64 | float64](vals []T, n int, sel []int, want int) T {
	best := vals[rowAt(sel, 0)]
	for j, live := 1, liveLen(n, sel); j < live; j++ {
		if v := vals[rowAt(sel, j)]; cmpNum(v, best)*want > 0 {
			best = v
		}
	}
	return best
}

// countAcc counts every input binding per group (count's Unit ignores
// its argument, so nulls count too).
type countAcc struct {
	cnt   []int64
	first [1]int64
}

func (a *countAcc) grow(n int) { a.cnt = growTo(a.cnt, &a.first, n) }

func (a *countAcc) addBatch(_ *vec.Col, b *vec.Batch, gidx []int32) int64 {
	if gidx == nil {
		a.cnt[0] += int64(b.Len())
	}
	for _, g := range gidx {
		a.cnt[g]++
	}
	return 0
}

func (a *countAcc) merge(o groupAcc, remap []int32) {
	oc := o.(*countAcc)
	for og, g := range remap {
		a.cnt[g] += oc.cnt[og]
	}
}

func (a *countAcc) result(g int) values.Value { return values.NewInt(a.cnt[g]) }
func (a *countAcc) bytes() int64              { return int64(len(a.cnt)) * 8 }

// sumAcc folds each group's sum as the sum monoid's Merge does, in row
// order: a sum of ints stays an int, and the first float input turns it
// into float64(int sum) + x, after which every input adds as a float. A
// serial fold is therefore the reference executor's bit for bit, and
// merge applies the same ⊕ to whole partials, in morsel order. Null
// inputs are skipped; an all-null group sums to the monoid zero, 0.
type sumAcc struct {
	c     values.Value
	s     []sumState
	first [1]sumState
}

type sumState struct {
	i     int64
	f     float64
	float bool
}

func (s *sumState) addInt(v int64) {
	if s.float {
		s.f += float64(v)
	} else {
		s.i += v
	}
}

func (s *sumState) addFloat(v float64) {
	if !s.float {
		s.f, s.float = float64(s.i), true
	}
	s.f += v
}

func (s *sumState) add(v values.Value) {
	if v.Kind() == values.KindInt {
		s.addInt(v.Int())
	} else {
		s.addFloat(v.Float())
	}
}

func (a *sumAcc) grow(n int) { a.s = growTo(a.s, &a.first, n) }

func (a *sumAcc) addBatch(col *vec.Col, b *vec.Batch, gidx []int32) int64 {
	n, one := b.Len(), &a.s[0]
	switch {
	case col == nil && gidx == nil && a.c.Kind() == values.KindInt && !one.float:
		one.i += a.c.Int() * int64(n) // n additions, exact mod 2^64
	case col == nil && a.c.Kind() == values.KindInt:
		for k, x := 0, a.c.Int(); k < n; k++ {
			a.s[groupOf(gidx, k)].addInt(x)
		}
	case col == nil:
		// A float constant adds once per row, so `sum 0.1` rounds as the
		// reference's n additions do.
		for k, x := 0, a.c.Float(); k < n; k++ {
			a.s[groupOf(gidx, k)].addFloat(x)
		}
	case gidx == nil && col.Nulls == nil && col.Tag == vec.Int64:
		if one.float {
			one.f = liveSum(col.Ints, b.N, b.Sel, one.f)
		} else {
			one.i = liveSum(col.Ints, b.N, b.Sel, one.i)
		}
	case gidx == nil && col.Nulls == nil && col.Tag == vec.Float64:
		if !one.float { // the batch's first row is a float input
			one.f, one.float = float64(one.i), true
		}
		one.f = liveSum(col.Floats, b.N, b.Sel, one.f)
	case col.Tag == vec.Int64:
		for k := 0; k < n; k++ {
			if i := b.Index(k); col.Nulls == nil || !col.Nulls[i] {
				a.s[groupOf(gidx, k)].addInt(col.Ints[i])
			}
		}
	case col.Tag == vec.Float64:
		for k := 0; k < n; k++ {
			if i := b.Index(k); col.Nulls == nil || !col.Nulls[i] {
				a.s[groupOf(gidx, k)].addFloat(col.Floats[i])
			}
		}
	default:
		for k := 0; k < n; k++ {
			if v := col.Value(b.Index(k)); !v.IsNull() {
				a.s[groupOf(gidx, k)].add(v)
			}
		}
	}
	return 0
}

func (a *sumAcc) merge(o groupAcc, remap []int32) {
	os := o.(*sumAcc)
	for og, g := range remap {
		if p := os.s[og]; p.float {
			a.s[g].addFloat(p.f)
		} else {
			a.s[g].addInt(p.i)
		}
	}
}

func (a *sumAcc) result(g int) values.Value {
	if s := a.s[g]; s.float {
		return values.NewFloat(s.f)
	}
	return values.NewInt(a.s[g].i)
}

func (a *sumAcc) bytes() int64 { return int64(len(a.s)) * 24 }

// avgAcc keeps the float sum and non-null count per group (avgMonoid's
// {sum, count} accumulation domain), adding in row order as the monoid
// does. An all-null group averages to null.
type avgAcc struct {
	c     values.Value
	s     []avgState
	first [1]avgState
}

type avgState struct {
	sum float64
	n   int64
}

func (a *avgAcc) grow(n int) { a.s = growTo(a.s, &a.first, n) }

func (a *avgAcc) addBatch(col *vec.Col, b *vec.Batch, gidx []int32) int64 {
	n, one := b.Len(), &a.s[0]
	switch {
	case col == nil:
		for k, x := 0, a.c.Float(); k < n; k++ {
			s := &a.s[groupOf(gidx, k)]
			s.sum += x
			s.n++
		}
	case gidx == nil && col.Nulls == nil && col.Tag == vec.Int64:
		one.sum = liveSum(col.Ints, b.N, b.Sel, one.sum)
		one.n += int64(n)
	case gidx == nil && col.Nulls == nil && col.Tag == vec.Float64:
		one.sum = liveSum(col.Floats, b.N, b.Sel, one.sum)
		one.n += int64(n)
	case col.Tag == vec.Int64 || col.Tag == vec.Float64:
		for k := 0; k < n; k++ {
			if i := b.Index(k); col.Nulls == nil || !col.Nulls[i] {
				s := &a.s[groupOf(gidx, k)]
				s.sum += numAt(col, i)
				s.n++
			}
		}
	default:
		for k := 0; k < n; k++ {
			if v := col.Value(b.Index(k)); !v.IsNull() {
				s := &a.s[groupOf(gidx, k)]
				s.sum += v.Float()
				s.n++
			}
		}
	}
	return 0
}

func (a *avgAcc) merge(o groupAcc, remap []int32) {
	oa := o.(*avgAcc)
	for og, g := range remap {
		a.s[g].sum += oa.s[og].sum
		a.s[g].n += oa.s[og].n
	}
}

func (a *avgAcc) result(g int) values.Value {
	if s := a.s[g]; s.n != 0 {
		return values.NewFloat(s.sum / float64(s.n))
	}
	return values.Null
}

func (a *avgAcc) bytes() int64 { return int64(len(a.s)) * 16 }

// minmaxAcc tracks the best value per group under values.Compare (total
// order across numeric kinds and strings), replacing it only on a
// strictly better input as the monoid's Merge does. Int64/Float64 rows
// compare as payloads (cmpNum: values.CompareFloats for floats); the
// one-group pass compares only a batch's best to the group's. Null
// inputs are skipped; an all-null group yields null.
type minmaxAcc struct {
	want  int // -1 min, 1 max
	c     values.Value
	s     []bestState
	first [1]bestState
}

type bestState struct {
	v   values.Value
	has bool
}

func (a *minmaxAcc) grow(n int) { a.s = growTo(a.s, &a.first, n) }

// note offers v to group g.
func (a *minmaxAcc) note(g int32, v values.Value) {
	if s := &a.s[g]; !s.has || values.Compare(v, s.v)*a.want > 0 {
		s.v, s.has = v, true
	}
}

func (a *minmaxAcc) addBatch(col *vec.Col, b *vec.Batch, gidx []int32) int64 {
	n := b.Len()
	switch {
	case col == nil && gidx == nil:
		a.note(0, a.c)
	case col == nil:
		for _, g := range gidx {
			a.note(g, a.c)
		}
	case gidx == nil && col.Nulls == nil && col.Tag == vec.Int64:
		a.note(0, values.NewInt(liveBest(col.Ints, b.N, b.Sel, a.want)))
	case gidx == nil && col.Nulls == nil && col.Tag == vec.Float64:
		a.note(0, values.NewFloat(liveBest(col.Floats, b.N, b.Sel, a.want)))
	case col.Tag == vec.Int64:
		// A row boxes only when it beats its group's best of its own kind,
		// or meets a best of another kind.
		for k := 0; k < n; k++ {
			if i := b.Index(k); col.Nulls == nil || !col.Nulls[i] {
				g, x := groupOf(gidx, k), col.Ints[i]
				if s := &a.s[g]; !s.has || s.v.Kind() != values.KindInt || cmpNum(x, s.v.Int())*a.want > 0 {
					a.note(g, values.NewInt(x))
				}
			}
		}
	case col.Tag == vec.Float64:
		for k := 0; k < n; k++ {
			if i := b.Index(k); col.Nulls == nil || !col.Nulls[i] {
				g, x := groupOf(gidx, k), col.Floats[i]
				if s := &a.s[g]; !s.has || s.v.Kind() != values.KindFloat || cmpNum(x, s.v.Float())*a.want > 0 {
					a.note(g, values.NewFloat(x))
				}
			}
		}
	default:
		for k := 0; k < n; k++ {
			if v := col.Value(b.Index(k)); !v.IsNull() {
				a.note(groupOf(gidx, k), v)
			}
		}
	}
	return 0
}

func (a *minmaxAcc) merge(o groupAcc, remap []int32) {
	om := o.(*minmaxAcc)
	for og, g := range remap {
		if om.s[og].has {
			a.note(g, om.s[og].v)
		}
	}
}

func (a *minmaxAcc) result(g int) values.Value { return a.s[g].v }
func (a *minmaxAcc) bytes() int64              { return int64(len(a.s)) * 120 }

// boxedAcc is the generic fallback: one Collector per group, fed through
// Collector.Add. Collection monoids and median retain their inputs, so
// those charge the memory budget per kept value.
type boxedAcc struct {
	m      monoid.Monoid
	charge bool
	cs     []*monoid.Collector
}

func (a *boxedAcc) grow(n int) {
	for len(a.cs) < n {
		a.cs = append(a.cs, monoid.NewCollector(a.m))
	}
}

func (a *boxedAcc) addBatch(col *vec.Col, b *vec.Batch, gidx []int32) int64 {
	n := b.Len()
	var bytes int64
	for k := 0; k < n; k++ {
		v := col.Value(b.Index(k))
		a.cs[groupOf(gidx, k)].Add(v)
		if a.charge && !(v.IsNull() && monoid.SkipsNull(a.m)) {
			bytes += approxValueBytes(v)
		}
	}
	return bytes
}

func (a *boxedAcc) merge(o groupAcc, remap []int32) {
	ob := o.(*boxedAcc)
	for og, g := range remap {
		a.cs[g].MergeFrom(ob.cs[og])
	}
}

func (a *boxedAcc) result(g int) values.Value { return a.cs[g].Result() }
func (a *boxedAcc) bytes() int64              { return int64(len(a.cs)) * 48 }

// groupTable is a fold's state: the dense group list and its index, and
// one accumulator array per aggregate. A serial fold builds one; a
// morsel-parallel fold builds one partial table per morsel and merges
// them through absorb in morsel order. With no keys it is the fold of an
// ungrouped reduce: group 0 exists from construction, so an empty input
// answers the monoid's zero, and rows fold into it with no hashing and
// no slot table.
type groupTable struct {
	nKeys int
	aggs  []groupAcc
	one   [1]groupAcc // the aggs array of a one-aggregate fold

	// Dense group list (insertion order = first-occurrence order) plus
	// the open-addressing index: slots holds group+1, 0 = empty. keys[j]
	// holds key position j of every group, typed as the key columns
	// arrived (a StrDict key as Str) and boxed once two disagree on a tag.
	hashes []uint64
	keys   []vec.Col
	slots  []int32
	mask   uint64

	rows          int64
	partialMerges int64

	reserve  func(int64) error
	charged  int64
	keyBytes int64
	boxed    int64 // accumulated boxed-accumulator bytes

	// The code-indexed path of a single StrDict key: byCode[code] is the
	// group+1 of that code of dict (0: not seen yet), nullGroup the
	// group+1 of the null key. Group ids never change, so only byCode
	// resets, when the dictionary does.
	dict      []string
	byCode    []int32
	nullGroup int32
}

// aggInput is one aggregate of a fold: its monoid and its staged input,
// a column factory or none (mk nil) — the numeric constant c, or nothing
// for a count.
type aggInput struct {
	m  monoid.Monoid
	mk func() vecExpr
	c  values.Value
}

// groupConsumer folds pipeline batches into its table t through its own
// getters and scratch. One consumer serves a serial fold; under morsel
// parallelism consumers are pooled, and each morsel folds into a fresh
// partial table.
type groupConsumer struct {
	t       *groupTable
	nKeys   int
	ins     []aggInput
	reserve func(int64) error
	keyGet  []vecExpr
	aggGet  []vecExpr
	getOne  [1]vecExpr // the aggGet array of a one-aggregate fold
	sink    batchSink  // consume, bound once

	// Per-batch scratch.
	kh      keyHasher
	gidx    []int32
	keyCols []*vec.Col
}

// newTable returns an empty table for gc's fold.
func (gc *groupConsumer) newTable() *groupTable {
	t := &groupTable{nKeys: gc.nKeys, reserve: gc.reserve}
	t.aggs = t.one[:0]
	for _, in := range gc.ins {
		a := newGroupAcc(in.m, in.c)
		if gc.nKeys == 0 {
			a.grow(1)
		}
		t.aggs = append(t.aggs, a)
	}
	return t
}

func (t *groupTable) numGroups() int {
	if t.nKeys == 0 {
		return 1
	}
	return len(t.hashes)
}

// tableBytes approximates the resident footprint of the group table and
// typed accumulator arrays (boxed accumulator bytes tally separately).
func (t *groupTable) tableBytes() int64 {
	b := int64(len(t.slots))*4 + int64(len(t.hashes))*8 + t.keyBytes
	for _, a := range t.aggs {
		b += a.bytes()
	}
	return b
}

// maybeCharge settles the memory-budget balance in chunks; final forces
// any remainder through.
func (t *groupTable) maybeCharge(final bool) error {
	if t.reserve == nil {
		return nil
	}
	total := t.tableBytes() + t.boxed
	delta := total - t.charged
	if delta >= groupChargeChunk || (final && delta > 0) {
		t.charged = total
		return t.reserve(delta)
	}
	return nil
}

func (t *groupTable) growTable(size int) {
	t.slots = make([]int32, size)
	t.mask = uint64(size - 1)
	for g, h := range t.hashes {
		s := h & t.mask
		for t.slots[s] != 0 {
			s = (s + 1) & t.mask
		}
		t.slots[s] = int32(g) + 1
	}
}

// appendKey stores row i of src as the next group's key at position j.
// The stored column takes the tag of the first key column (a StrDict one
// as Str) and is boxed from the first key column whose tag differs on.
// keyBytes counts a typed key's payload and validity byte, a boxed one's
// approxValueBytes (a demoted column's typed bytes stay counted).
func (t *groupTable) appendKey(j int, src *vec.Col, i int) {
	dst := &t.keys[j]
	tag := src.Tag
	if tag == vec.StrDict {
		tag = vec.Str
	}
	if dst.Len() == 0 {
		dst.Tag = tag
	} else if dst.Tag != tag && dst.Tag != vec.Boxed {
		boxed := make([]values.Value, dst.Len(), dst.Len()+1)
		for r := range boxed {
			boxed[r] = dst.Value(r)
			t.keyBytes += approxValueBytes(boxed[r])
		}
		*dst = vec.Col{Tag: vec.Boxed, Boxed: boxed}
	}
	switch {
	case dst.Tag == vec.Boxed:
		v := src.Value(i)
		dst.AppendValue(v)
		t.keyBytes += approxValueBytes(v)
	case colNullAt(src, i):
		dst.AppendNull()
		t.keyBytes += 9
	case tag == vec.Int64:
		dst.AppendInt(src.Ints[i])
		t.keyBytes += 9
	case tag == vec.Float64:
		dst.AppendFloat(src.Floats[i])
		t.keyBytes += 9
	default:
		s := src.StrAt(i)
		dst.AppendStr(s)
		t.keyBytes += 17 + int64(len(s))
	}
}

// findOrAddRow locates (or creates) the group of physical row i of the
// key columns cols — a batch's, or a partial table's stored keys — whose
// tuple hash is h. A hash match must also match every key (keyEqual).
func (t *groupTable) findOrAddRow(h uint64, cols []*vec.Col, i int) int32 {
	if len(t.slots) == 0 {
		t.growTable(groupTableInitSlots)
		t.keys = make([]vec.Col, t.nKeys)
	}
	for s := h & t.mask; ; s = (s + 1) & t.mask {
		e := t.slots[s]
		if e == 0 {
			g := int32(t.numGroups())
			t.hashes = append(t.hashes, h)
			for j, c := range cols {
				t.appendKey(j, c, i)
			}
			for _, a := range t.aggs {
				a.grow(int(g) + 1)
			}
			t.slots[s] = g + 1
			if (t.numGroups()+1)*4 > len(t.slots)*3 {
				t.growTable(len(t.slots) * 2)
			}
			return g
		}
		g := e - 1
		if t.hashes[g] != h {
			continue
		}
		j := 0
		for j < len(cols) && keyEqual(cols[j], i, &t.keys[j], int(g)) {
			j++
		}
		if j == len(cols) {
			return g
		}
	}
}

// consume folds one pipeline batch: key columns are extracted and hashed
// in tag-dispatched passes, rows are mapped to dense group indices, and
// every aggregate folds its column into the per-group arrays.
func (gc *groupConsumer) consume(b *vec.Batch) error {
	n := b.Len()
	if n == 0 {
		return nil
	}
	t := gc.t
	t.rows += int64(n)
	if err := getCols(gc.keyGet, b, gc.keyCols); err != nil {
		return err
	}
	switch {
	case gc.nKeys == 0: // every row is in group 0: gidx stays nil
	case gc.nKeys == 1 && gc.keyCols[0].Tag == vec.StrDict:
		gc.gidx = resize(gc.gidx, n)
		gc.groupCodes(b)
	default:
		gc.gidx = resize(gc.gidx, n)
		// Tuple hash per live row (mcl.GroupHash semantics: null keys
		// share a group).
		gc.kh.hash(gc.keyCols, b)
		for k, h := range gc.kh.sums {
			gc.gidx[k] = t.findOrAddRow(h, gc.keyCols, b.Index(k))
		}
	}
	for j, get := range gc.aggGet {
		var col *vec.Col
		if get != nil {
			var err error
			if col, err = get(b); err != nil {
				return err
			}
		}
		t.boxed += t.aggs[j].addBatch(col, b, gc.gidx)
	}
	return t.maybeCharge(false)
}

// groupCodes maps the live rows of b to groups by the codes of the one
// StrDict key column: a code's group is memoized in byCode the first
// time it is seen, which goes through findOrAddRow with the same tuple
// hash the hash path computes — so group ids, first-occurrence order and
// partial merges are those of the hash path, and a code-indexed consumer
// and a hashing one (another window's representation) share one table.
func (gc *groupConsumer) groupCodes(b *vec.Batch) {
	t, col := gc.t, gc.keyCols[0]
	if !sameDict(t.dict, col.Dict) {
		t.dict = col.Dict
		t.byCode = append(t.byCode[:0], make([]int32, len(col.Dict))...)
	}
	byCode := t.byCode
	for k := range gc.gidx {
		i := b.Index(k)
		if col.Nulls != nil && col.Nulls[i] {
			if t.nullGroup == 0 {
				t.nullGroup = t.findOrAddRow(tupleHash1(nullKeyHash), gc.keyCols, i) + 1
			}
			gc.gidx[k] = t.nullGroup - 1
			continue
		}
		code := col.Codes[i]
		if byCode[code] == 0 {
			h := tupleHash1(values.HashString(col.Dict[code]))
			byCode[code] = t.findOrAddRow(h, gc.keyCols, i) + 1
		}
		gc.gidx[k] = byCode[code] - 1
	}
}

// oneGroup is the remap of a fold without keys: group 0 to group 0.
var oneGroup = []int32{0}

// absorb merges a partial consumer's table into this one, feeding the
// partial's stored key columns and hashes through findOrAddRow. Called
// in morsel order with each partial's groups visited in local insertion
// order, the root table ends up in global first-occurrence order — the
// serial semantics, deterministically, regardless of worker count. The
// partial's retained values move into this table, so what it has not
// charged yet is charged first.
func (t *groupTable) absorb(o *groupTable) error {
	if err := o.maybeCharge(true); err != nil {
		return err
	}
	remap := oneGroup
	if t.nKeys > 0 {
		remap = make([]int32, o.numGroups())
		cols := make([]*vec.Col, len(o.keys))
		for j := range cols {
			cols[j] = &o.keys[j]
		}
		for og, h := range o.hashes {
			remap[og] = t.findOrAddRow(h, cols, og)
		}
	}
	for j := range t.aggs {
		t.aggs[j].merge(o.aggs[j], remap)
	}
	t.rows += o.rows
	t.partialMerges++
	return t.maybeCharge(false)
}

// emit streams the group table downstream as batches of group rows, in
// first-occurrence order: each key column a window of its stored column,
// then one boxed column per aggregate (slot order matches the group
// frame).
func (t *groupTable) emit(bs int, sink batchSink) error {
	nG, na := t.numGroups(), len(t.aggs)
	for lo := 0; lo < nG; lo += bs {
		hi := min(lo+bs, nG)
		cols := make([]vec.Col, t.nKeys+na)
		for j := range t.keys {
			cols[j] = t.keys[j].Slice(lo, hi)
		}
		for j := 0; j < na; j++ {
			buf := make([]values.Value, hi-lo)
			for g := lo; g < hi; g++ {
				buf[g-lo] = t.aggs[j].result(g)
			}
			cols[t.nKeys+j] = vec.Col{Tag: vec.Boxed, Boxed: buf}
		}
		if err := sink(&vec.Batch{Cols: cols, N: hi - lo}); err != nil {
			return err
		}
	}
	return nil
}

// compileGroupAgg stages the grouped fold as a synthesized pipeline
// stage: the input subtree feeds the group table (morsel-parallel when
// the scan partitions), and the finished groups stream out as batches
// over the group frame — one slot per key name, then per aggregate
// name. The root (fold, elements, top-k or quota) then runs unchanged
// over group rows: HAVING is the root predicate, ORDER BY/LIMIT feed
// TopKAcc directly.
func (c *compiler) compileGroupAgg(p *algebra.Reduce, input *compiledPlan) (*compiledPlan, error) {
	mkCons, err := c.groupConsumers(p.GroupBy, p.Aggs, input.frame, c.opts.MemReserve)
	if err != nil {
		return nil, err
	}
	gf := newFrame()
	for _, k := range p.GroupBy {
		gf.add(k.Name, "")
	}
	for _, a := range p.Aggs {
		gf.add(a.Name, "")
	}
	opts := c.opts
	run := func(sink batchSink) error {
		// The span closes before the groups flow downstream: the root's
		// work over group rows is not the hash fold's.
		sp := opts.Trace.Child("fold")
		sp.SetAttr("kind", "groupagg")
		root, err := foldTable(input, opts, sp, mkCons)
		if err == nil {
			sp.AddRows(root.rows)
			sp.SetAttr("groups", root.numGroups())
			sp.SetAttr("table_bytes", root.tableBytes()+root.boxed)
			sp.SetAttr("partial_merges", root.partialMerges)
			if ct := opts.Counters; ct != nil {
				ct.GroupFolds.Add(1)
				ct.GroupsBuilt.Add(int64(root.numGroups()))
				ct.GroupPartialMerges.Add(root.partialMerges)
				raiseMax(&ct.GroupTableMaxBytes, root.tableBytes()+root.boxed)
			}
		}
		sp.End()
		if err != nil {
			return err
		}
		return root.emit(opts.BatchSize, sink)
	}
	return &compiledPlan{frame: gf, src: run}, nil
}

// groupConsumers stages a fold's keys and aggregate inputs over frame f
// into a consumer factory; no keys is the one-group fold of an ungrouped
// reduce. A consumer comes without a table: its newTable makes one.
// reserve, when non-nil, is charged for each table and the values its
// accumulators retain.
func (c *compiler) groupConsumers(keys []mcl.GroupKey, aggs []mcl.AggSpec, f *frame, reserve func(int64) error) (func() *groupConsumer, error) {
	mkKeyGets := make([]func() vecExpr, len(keys))
	for i, k := range keys {
		g, err := c.mkGetter(k.E, f)
		if err != nil {
			return nil, err
		}
		mkKeyGets[i] = g
	}
	ins := make([]aggInput, len(aggs))
	for i, a := range aggs {
		var err error
		ins[i].m = a.M
		if ins[i].mk, ins[i].c, err = c.stageAggInput(a.M, a.E, f); err != nil {
			return nil, err
		}
	}
	return func() *groupConsumer {
		gc := &groupConsumer{nKeys: len(keys), ins: ins, reserve: reserve}
		gc.keyGet, gc.keyCols = newGetters(mkKeyGets), make([]*vec.Col, len(keys))
		gc.aggGet = gc.getOne[:0]
		for _, in := range ins {
			var get vecExpr
			if in.mk != nil {
				get = in.mk()
			}
			gc.aggGet = append(gc.aggGet, get)
		}
		gc.sink = gc.consume
		return gc
	}, nil
}

// stageAggInput stages one aggregate input as a column factory, or as
// none: a numeric constant (a literal or a bound parameter — SQL's
// COUNT(*) lowers to `sum 1`) under count/sum/avg/min/max is returned as
// cv and folds on each batch's live row count without a column, and a
// count whose input cannot fail reads nothing, since count ignores its
// argument. An input that can fail is still computed, for its errors.
func (c *compiler) stageAggInput(m monoid.Monoid, e mcl.Expr, f *frame) (mk func() vecExpr, cv values.Value, err error) {
	cv, isConst := constOf(e)
	switch name := m.Name(); {
	case name == "count" && c.infallible(e, f),
		isConst && cv.IsNumeric() && (name == "sum" || name == "avg" || name == "min" || name == "max"):
		c.vecStages++
		return nil, cv, nil
	}
	mk, err = c.mkGetter(e, f)
	return mk, values.Null, err
}

// foldTable folds input into a finished table: serially through one
// consumer, or morsel-parallel into one partial table per morsel, merged
// in morsel order into the first. Idle consumers wait in a free list of
// one per worker, so getters and their scratch are built once per
// worker, not per morsel.
func foldTable(input *compiledPlan, opts Options, sp *trace.Span, mkCons func() *groupConsumer) (*groupTable, error) {
	scan, n, ok := parallelInput(input, opts, opts.ParallelThreshold)
	if !ok {
		gc := mkCons()
		gc.t = gc.newTable()
		if err := input.run(gc.sink); err != nil {
			return nil, err
		}
		return gc.t, gc.t.maybeCharge(true)
	}
	sp.SetAttr("parallel", true)
	idle := make(chan *groupConsumer, opts.Workers) // one idle consumer per worker
	partials, err := morsels(opts.Ctx, opts, sp, n, func(lo, hi int) (*groupTable, error) {
		var gc *groupConsumer
		select {
		case gc = <-idle:
		default:
			gc = mkCons()
		}
		t := gc.newTable()
		gc.t = t
		err := scan(lo, hi, gc.sink)
		select {
		case idle <- gc:
		default: // more morsels ran at once than workers: drop it
		}
		return t, err
	})
	if err != nil {
		return nil, err
	}
	msp := sp.Child("merge")
	defer msp.End()
	// The first partial is the root: it counts as merged.
	root := partials[0]
	root.partialMerges++
	for _, part := range partials[1:] {
		if err := root.absorb(part); err != nil {
			return nil, err
		}
	}
	return root, root.maybeCharge(true)
}

// shadowGrouped strips the grouping clause off a grouped reduce so the
// root consumers see a plain reduce over the (already folded) group
// rows: the predicate is HAVING, evaluated per group.
func shadowGrouped(p *algebra.Reduce) *algebra.Reduce {
	cp := *p
	cp.GroupBy, cp.Aggs = nil, nil
	return &cp
}
