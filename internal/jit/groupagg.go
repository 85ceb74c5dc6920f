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
// grouped reduces (GROUP BY): one pass over the input partitions rows
// into a compact open-addressing group table (key tuple → dense group
// index) and folds each aggregate into typed per-group accumulator
// arrays, with a boxed per-group Collector fallback for monoids the
// typed paths do not specialize. Group keys hash like join keys
// (keyHasher): one tag-dispatched pass per key column per batch, typed
// payloads and vec.StrDict codes never boxing on the hash path. One key
// column served as vec.StrDict takes the code-indexed path instead
// (groupCodes): each code's group is memoized in an array indexed by
// code, so such a row is neither hashed nor probed. Keys and
// aggregate inputs are staged by mkGetter through the expression kernels,
// constants included: COUNT(*) (`sum 1`) folds a broadcast Int64 column,
// and a `count` whose input cannot fail stages none.
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

// groupAcc is one aggregate's per-group accumulator array. Implementors
// index state by dense group id; addBatch returns the approximate boxed
// bytes newly retained (zero for typed state, which bytes() reports).
type groupAcc interface {
	// grow ensures state exists for n groups.
	grow(n int)
	// addBatch folds the live rows of col into their groups (gidx is the
	// per-live-row group index, in live order).
	addBatch(col *vec.Col, b *vec.Batch, gidx []int32) (int64, error)
	// merge folds another consumer's partial state in: other's group og
	// lands in this table's group remap[og].
	merge(o groupAcc, remap []int32)
	// result finalizes one group's aggregate value.
	result(g int) values.Value
	// bytes approximates the typed state footprint.
	bytes() int64
}

// newGroupAcc selects the accumulator for a monoid: typed arrays for
// count/sum/avg, boxed best-value tracking for min/max, and a per-group
// Collector fallback (AggAdd null semantics) for everything else —
// collection monoids, median, prod, and/or.
func newGroupAcc(m monoid.Monoid) groupAcc {
	switch m.Name() {
	case "count":
		return &countAcc{}
	case "sum":
		return &sumAcc{}
	case "avg":
		return &avgAcc{}
	case "min":
		return &minmaxAcc{want: -1, zero: m.Finalize(m.Zero())}
	case "max":
		return &minmaxAcc{want: 1, zero: m.Finalize(m.Zero())}
	}
	charge := monoid.IsCollection(m) || m.Name() == "median"
	return &boxedAcc{m: m, charge: charge}
}

// countAcc counts every input binding per group (count's Unit ignores
// its argument, so nulls count too).
type countAcc struct{ cnt []int64 }

func (a *countAcc) grow(n int) {
	for len(a.cnt) < n {
		a.cnt = append(a.cnt, 0)
	}
}

func (a *countAcc) addBatch(col *vec.Col, b *vec.Batch, gidx []int32) (int64, error) {
	for _, g := range gidx {
		a.cnt[g]++
	}
	return 0, nil
}

func (a *countAcc) merge(o groupAcc, remap []int32) {
	oc := o.(*countAcc)
	for og, g := range remap {
		a.cnt[g] += oc.cnt[og]
	}
}

func (a *countAcc) result(g int) values.Value { return values.NewInt(a.cnt[g]) }
func (a *countAcc) bytes() int64              { return int64(len(a.cnt)) * 8 }

// sumAcc keeps int and float partial sums per group (sum of ints stays
// int, any float input widens the group's sum to float — the same
// promotion reduceConsumer applies). Null inputs are skipped; a group
// with only null inputs sums to the monoid zero, 0.
type sumAcc struct {
	isum []int64
	fsum []float64
	saw  []uint8 // bit 0: saw int, bit 1: saw float
}

func (a *sumAcc) grow(n int) {
	for len(a.isum) < n {
		a.isum = append(a.isum, 0)
		a.fsum = append(a.fsum, 0)
		a.saw = append(a.saw, 0)
	}
}

func (a *sumAcc) addBatch(col *vec.Col, b *vec.Batch, gidx []int32) (int64, error) {
	n := b.Len()
	switch col.Tag {
	case vec.Int64:
		for k := 0; k < n; k++ {
			i := b.Index(k)
			if col.Nulls != nil && col.Nulls[i] {
				continue
			}
			g := gidx[k]
			a.isum[g] += col.Ints[i]
			a.saw[g] |= 1
		}
	case vec.Float64:
		for k := 0; k < n; k++ {
			i := b.Index(k)
			if col.Nulls != nil && col.Nulls[i] {
				continue
			}
			g := gidx[k]
			a.fsum[g] += col.Floats[i]
			a.saw[g] |= 2
		}
	default:
		for k := 0; k < n; k++ {
			v := col.Value(b.Index(k))
			if v.IsNull() {
				continue
			}
			g := gidx[k]
			if v.Kind() == values.KindInt {
				a.isum[g] += v.Int()
				a.saw[g] |= 1
			} else {
				a.fsum[g] += v.Float()
				a.saw[g] |= 2
			}
		}
	}
	return 0, nil
}

func (a *sumAcc) merge(o groupAcc, remap []int32) {
	os := o.(*sumAcc)
	for og, g := range remap {
		a.isum[g] += os.isum[og]
		a.fsum[g] += os.fsum[og]
		a.saw[g] |= os.saw[og]
	}
}

func (a *sumAcc) result(g int) values.Value {
	switch a.saw[g] {
	case 1:
		return values.NewInt(a.isum[g])
	case 2:
		return values.NewFloat(a.fsum[g])
	case 3:
		return values.NewFloat(a.fsum[g] + float64(a.isum[g]))
	}
	return values.NewInt(0)
}

func (a *sumAcc) bytes() int64 { return int64(len(a.isum)) * 17 }

// avgAcc keeps the float sum and non-null count per group (matching
// avgMonoid's {sum, count} accumulation domain). An all-null group
// averages to null.
type avgAcc struct {
	fsum []float64
	cnt  []int64
}

func (a *avgAcc) grow(n int) {
	for len(a.fsum) < n {
		a.fsum = append(a.fsum, 0)
		a.cnt = append(a.cnt, 0)
	}
}

func (a *avgAcc) addBatch(col *vec.Col, b *vec.Batch, gidx []int32) (int64, error) {
	n := b.Len()
	switch col.Tag {
	case vec.Int64:
		for k := 0; k < n; k++ {
			i := b.Index(k)
			if col.Nulls != nil && col.Nulls[i] {
				continue
			}
			g := gidx[k]
			a.fsum[g] += float64(col.Ints[i])
			a.cnt[g]++
		}
	case vec.Float64:
		for k := 0; k < n; k++ {
			i := b.Index(k)
			if col.Nulls != nil && col.Nulls[i] {
				continue
			}
			g := gidx[k]
			a.fsum[g] += col.Floats[i]
			a.cnt[g]++
		}
	default:
		for k := 0; k < n; k++ {
			v := col.Value(b.Index(k))
			if v.IsNull() {
				continue
			}
			g := gidx[k]
			a.fsum[g] += v.Float()
			a.cnt[g]++
		}
	}
	return 0, nil
}

func (a *avgAcc) merge(o groupAcc, remap []int32) {
	oa := o.(*avgAcc)
	for og, g := range remap {
		a.fsum[g] += oa.fsum[og]
		a.cnt[g] += oa.cnt[og]
	}
}

func (a *avgAcc) result(g int) values.Value {
	if a.cnt[g] == 0 {
		return values.Null
	}
	return values.NewFloat(a.fsum[g] / float64(a.cnt[g]))
}

func (a *avgAcc) bytes() int64 { return int64(len(a.fsum)) * 16 }

// minmaxAcc tracks the best value per group under values.Compare (total
// order across numeric kinds and strings). Null inputs are skipped; an
// all-null group yields the monoid zero (null).
type minmaxAcc struct {
	want int // -1 min, 1 max
	zero values.Value
	best []values.Value
	has  []bool
}

func (a *minmaxAcc) grow(n int) {
	for len(a.best) < n {
		a.best = append(a.best, values.Null)
		a.has = append(a.has, false)
	}
}

func (a *minmaxAcc) addBatch(col *vec.Col, b *vec.Batch, gidx []int32) (int64, error) {
	n := b.Len()
	for k := 0; k < n; k++ {
		v := col.Value(b.Index(k))
		if v.IsNull() {
			continue
		}
		g := gidx[k]
		if !a.has[g] || values.Compare(v, a.best[g])*a.want > 0 {
			a.best[g] = v
			a.has[g] = true
		}
	}
	return 0, nil
}

func (a *minmaxAcc) merge(o groupAcc, remap []int32) {
	om := o.(*minmaxAcc)
	for og, g := range remap {
		if !om.has[og] {
			continue
		}
		if !a.has[g] || values.Compare(om.best[og], a.best[g])*a.want > 0 {
			a.best[g] = om.best[og]
			a.has[g] = true
		}
	}
}

func (a *minmaxAcc) result(g int) values.Value {
	if !a.has[g] {
		return a.zero
	}
	return a.best[g]
}

func (a *minmaxAcc) bytes() int64 { return int64(len(a.best)) * 24 }

// boxedAcc is the generic fallback: one Collector per group fed through
// monoid.AggAdd (grouped null semantics). Collection monoids and median
// retain their inputs, so those charge the memory budget per value.
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

func (a *boxedAcc) addBatch(col *vec.Col, b *vec.Batch, gidx []int32) (int64, error) {
	n := b.Len()
	var bytes int64
	for k := 0; k < n; k++ {
		v := col.Value(b.Index(k))
		monoid.AggAdd(a.cs[gidx[k]], v)
		if a.charge && !(v.IsNull() && monoid.AggSkipsNull(a.m)) {
			bytes += approxValueBytes(v)
		}
	}
	return bytes, nil
}

func (a *boxedAcc) merge(o groupAcc, remap []int32) {
	ob := o.(*boxedAcc)
	for og, g := range remap {
		a.cs[g].MergeFrom(ob.cs[og])
	}
}

func (a *boxedAcc) result(g int) values.Value { return a.cs[g].Result() }
func (a *boxedAcc) bytes() int64              { return int64(len(a.cs)) * 48 }

// groupConsumer folds pipeline batches into the group table. One
// consumer serves one serial run or one morsel worker; partial tables
// merge through absorb in morsel order.
type groupConsumer struct {
	nKeys  int
	keyGet []vecExpr
	aggGet []vecExpr
	aggs   []groupAcc

	// Dense group list (insertion order = first-occurrence order) plus
	// the open-addressing index: slots holds group+1, 0 = empty.
	hashes []uint64
	keys   []values.Value // boxed key tuples, nKeys per group
	slots  []int32
	mask   uint64

	// Unpacked mirrors of the stored keys (kind plus primitive payload
	// per key slot) for the per-row equality fast path: values.Value is
	// a large struct, and any method call on a stored key copies it, so
	// the hot compare never touches the boxed form. Non-primitive keys
	// fall back to values.Equal on the boxed tuple.
	keyKinds  []values.Kind
	keyInts   []int64
	keyFloats []float64
	keyStrs   []string

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

	// Per-batch scratch.
	kh      keyHasher
	gidx    []int32
	keyCols []*vec.Col
}

func (gc *groupConsumer) numGroups() int { return len(gc.hashes) }

// tableBytes approximates the resident footprint of the group table and
// typed accumulator arrays (boxed accumulator bytes tally separately).
func (gc *groupConsumer) tableBytes() int64 {
	// 33 ≈ per-key cost of the unpacked mirrors (kind + int + float +
	// string header).
	b := int64(len(gc.slots))*4 + int64(len(gc.hashes))*8 + gc.keyBytes +
		int64(len(gc.keyKinds))*33
	for _, a := range gc.aggs {
		b += a.bytes()
	}
	return b
}

// maybeCharge settles the memory-budget balance in chunks; final forces
// any remainder through.
func (gc *groupConsumer) maybeCharge(final bool) error {
	if gc.reserve == nil {
		return nil
	}
	total := gc.tableBytes() + gc.boxed
	delta := total - gc.charged
	if delta >= groupChargeChunk || (final && delta > 0) {
		gc.charged = total
		return gc.reserve(delta)
	}
	return nil
}

func (gc *groupConsumer) growTable(size int) {
	gc.slots = make([]int32, size)
	gc.mask = uint64(size - 1)
	for g, h := range gc.hashes {
		s := h & gc.mask
		for gc.slots[s] != 0 {
			s = (s + 1) & gc.mask
		}
		gc.slots[s] = int32(g) + 1
	}
}

// rowKeyEqual compares group g's stored key tuple against physical row i
// of the current batch's key columns under grouping equality (nulls
// equal). This runs once per row on every hash match — i.e. on nearly
// every row once the groups exist — so typed columns compare their
// primitive payloads directly; boxing happens only for boxed columns and
// cross-representation ties.
func (gc *groupConsumer) rowKeyEqual(g int32, i int) bool {
	base := int(g) * gc.nKeys
	for j := 0; j < gc.nKeys; j++ {
		col := gc.keyCols[j]
		k := gc.keyKinds[base+j]
		null := colNullAt(col, i)
		if null != (k == values.KindNull) {
			return false
		}
		if null {
			continue
		}
		switch {
		case col.Tag == vec.Int64 && k == values.KindInt:
			if gc.keyInts[base+j] != col.Ints[i] {
				return false
			}
		case col.Tag == vec.Float64 && k == values.KindFloat:
			if gc.keyFloats[base+j] != col.Floats[i] {
				return false
			}
		case (col.Tag == vec.Str || col.Tag == vec.StrDict) && k == values.KindString:
			if gc.keyStrs[base+j] != col.StrAt(i) {
				return false
			}
		default:
			if !values.Equal(col.Value(i), gc.keys[base+j]) {
				return false
			}
		}
	}
	return true
}

// appendKey stores one group-key value, mirroring its primitive payload
// into the unpacked arrays the equality fast path reads.
func (gc *groupConsumer) appendKey(v values.Value) {
	gc.keys = append(gc.keys, v)
	gc.keyBytes += approxValueBytes(v)
	k := v.Kind()
	var i64 int64
	var f float64
	var s string
	switch k {
	case values.KindInt:
		i64 = v.Int()
	case values.KindFloat:
		f = v.Float()
	case values.KindString:
		s = v.Str()
	}
	gc.keyKinds = append(gc.keyKinds, k)
	gc.keyInts = append(gc.keyInts, i64)
	gc.keyFloats = append(gc.keyFloats, f)
	gc.keyStrs = append(gc.keyStrs, s)
}

// findOrAddRow locates (or creates) the group for physical row i of the
// current key columns, probing by the combined tuple hash.
func (gc *groupConsumer) findOrAddRow(h uint64, i int) int32 {
	if len(gc.slots) == 0 {
		gc.growTable(groupTableInitSlots)
	}
	for s := h & gc.mask; ; s = (s + 1) & gc.mask {
		e := gc.slots[s]
		if e == 0 {
			g := int32(gc.numGroups())
			gc.hashes = append(gc.hashes, h)
			for j := 0; j < gc.nKeys; j++ {
				gc.appendKey(gc.keyCols[j].Value(i))
			}
			for _, a := range gc.aggs {
				a.grow(int(g) + 1)
			}
			gc.slots[s] = g + 1
			if (gc.numGroups()+1)*4 > len(gc.slots)*3 {
				gc.growTable(len(gc.slots) * 2)
			}
			return g
		}
		g := e - 1
		if gc.hashes[g] == h && gc.rowKeyEqual(g, i) {
			return g
		}
	}
}

// findOrAddTuple is findOrAddRow for an already-boxed key tuple (the
// partial-merge path).
func (gc *groupConsumer) findOrAddTuple(h uint64, tuple []values.Value) int32 {
	if len(gc.slots) == 0 {
		gc.growTable(groupTableInitSlots)
	}
	for s := h & gc.mask; ; s = (s + 1) & gc.mask {
		e := gc.slots[s]
		if e == 0 {
			g := int32(gc.numGroups())
			gc.hashes = append(gc.hashes, h)
			for _, v := range tuple {
				gc.appendKey(v)
			}
			for _, a := range gc.aggs {
				a.grow(int(g) + 1)
			}
			gc.slots[s] = g + 1
			if (gc.numGroups()+1)*4 > len(gc.slots)*3 {
				gc.growTable(len(gc.slots) * 2)
			}
			return g
		}
		g := e - 1
		if gc.hashes[g] == h && mcl.GroupKeysEqual(gc.keys[int(g)*gc.nKeys:int(g+1)*gc.nKeys], tuple) {
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
	gc.rows += int64(n)
	if err := getCols(gc.keyGet, b, gc.keyCols); err != nil {
		return err
	}
	gc.gidx = gc.gidx[:0]
	if gc.nKeys == 1 && gc.keyCols[0].Tag == vec.StrDict {
		gc.groupCodes(b)
	} else {
		// Tuple hash per live row (mcl.GroupHash semantics: null keys
		// share a group).
		gc.kh.hash(gc.keyCols, b)
		for k := 0; k < n; k++ {
			gc.gidx = append(gc.gidx, gc.findOrAddRow(gc.kh.sums[k], b.Index(k)))
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
		bytes, err := gc.aggs[j].addBatch(col, b, gc.gidx)
		if err != nil {
			return err
		}
		gc.boxed += bytes
	}
	return gc.maybeCharge(false)
}

// groupCodes maps the live rows of b to groups by the codes of the one
// StrDict key column: a code's group is memoized in byCode the first
// time it is seen, which goes through findOrAddRow with the same tuple
// hash the hash path computes — so group ids, first-occurrence order and
// partial merges are those of the hash path, and a code-indexed consumer
// and a hashing one (another window's representation) share one table.
func (gc *groupConsumer) groupCodes(b *vec.Batch) {
	col := gc.keyCols[0]
	if !sameDict(gc.dict, col.Dict) {
		gc.dict = col.Dict
		gc.byCode = append(gc.byCode[:0], make([]int32, len(col.Dict))...)
	}
	byCode := gc.byCode
	for k, n := 0, b.Len(); k < n; k++ {
		i := b.Index(k)
		if col.Nulls != nil && col.Nulls[i] {
			if gc.nullGroup == 0 {
				gc.nullGroup = gc.findOrAddRow(tupleHash1(nullKeyHash), i) + 1
			}
			gc.gidx = append(gc.gidx, gc.nullGroup-1)
			continue
		}
		code := col.Codes[i]
		if byCode[code] == 0 {
			h := tupleHash1(values.HashString(col.Dict[code]))
			byCode[code] = gc.findOrAddRow(h, i) + 1
		}
		gc.gidx = append(gc.gidx, byCode[code]-1)
	}
}

// absorb merges a partial consumer's table into this one. Called in
// morsel order with each partial's groups visited in local insertion
// order, the root table ends up in global first-occurrence order — the
// serial semantics, deterministically, regardless of worker count.
func (gc *groupConsumer) absorb(o *groupConsumer) error {
	remap := make([]int32, o.numGroups())
	for og := 0; og < o.numGroups(); og++ {
		tuple := o.keys[og*o.nKeys : (og+1)*o.nKeys]
		remap[og] = gc.findOrAddTuple(o.hashes[og], tuple)
	}
	for j := range gc.aggs {
		gc.aggs[j].merge(o.aggs[j], remap)
	}
	gc.rows += o.rows
	gc.partialMerges++
	return gc.maybeCharge(false)
}

// emit streams the group table downstream as batches of group rows, one
// boxed column per key then per aggregate (slot order matches the group
// frame), in first-occurrence order.
func (gc *groupConsumer) emit(bs int, sink batchSink) error {
	nG := gc.numGroups()
	nk, na := gc.nKeys, len(gc.aggs)
	for lo := 0; lo < nG; lo += bs {
		hi := lo + bs
		if hi > nG {
			hi = nG
		}
		cols := make([]vec.Col, nk+na)
		for j := 0; j < nk; j++ {
			buf := make([]values.Value, hi-lo)
			for g := lo; g < hi; g++ {
				buf[g-lo] = gc.keys[g*nk+j]
			}
			cols[j] = vec.Col{Tag: vec.Boxed, Boxed: buf}
		}
		for j := 0; j < na; j++ {
			buf := make([]values.Value, hi-lo)
			for g := lo; g < hi; g++ {
				buf[g-lo] = gc.aggs[j].result(g)
			}
			cols[nk+j] = vec.Col{Tag: vec.Boxed, Boxed: buf}
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
	nKeys := len(p.GroupBy)
	mkKeyGets := make([]func() vecExpr, nKeys)
	for i, k := range p.GroupBy {
		g, err := c.mkGetter(k.E, input.frame)
		if err != nil {
			return nil, err
		}
		mkKeyGets[i] = g
	}
	mkAggGets := make([]func() vecExpr, len(p.Aggs))
	aggMs := make([]monoid.Monoid, len(p.Aggs))
	for i, a := range p.Aggs {
		aggMs[i] = a.M
		if a.M.Name() == "count" && c.infallible(a.E, input.frame) {
			// countAcc reads no input: stage nothing, count the rows.
			c.vecStages++
			continue
		}
		g, err := c.mkGetter(a.E, input.frame)
		if err != nil {
			return nil, err
		}
		mkAggGets[i] = g
	}
	gf := newFrame()
	for _, k := range p.GroupBy {
		gf.add(k.Name, "")
	}
	for _, a := range p.Aggs {
		gf.add(a.Name, "")
	}
	opts := c.opts
	mkCons := func() *groupConsumer {
		gc := &groupConsumer{nKeys: nKeys, reserve: opts.MemReserve}
		gc.keyGet, gc.keyCols = newGetters(mkKeyGets), make([]*vec.Col, nKeys)
		gc.aggGet = newGetters(mkAggGets)
		gc.aggs = make([]groupAcc, len(aggMs))
		for i, m := range aggMs {
			gc.aggs[i] = newGroupAcc(m)
		}
		return gc
	}
	// fold builds the finished group table under sp: one consumer over a
	// serial input, else per-morsel partial tables absorbed in morsel order.
	fold := func(sp *trace.Span) (*groupConsumer, error) {
		root := mkCons()
		if scan, n, ok := parallelInput(input, opts, opts.ParallelThreshold); ok {
			sp.SetAttr("parallel", true)
			partials, err := morsels(opts.Ctx, opts, sp, n, func(lo, hi int) (*groupConsumer, error) {
				gc := mkCons()
				return gc, scan(lo, hi, gc.consume)
			})
			if err != nil {
				return nil, err
			}
			msp := sp.Child("merge")
			for _, part := range partials {
				if err = root.absorb(part); err != nil {
					break
				}
			}
			msp.End()
			if err != nil {
				return nil, err
			}
		} else if err := input.run(root.consume); err != nil {
			return nil, err
		}
		if err := root.maybeCharge(true); err != nil {
			return nil, err
		}
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
		return root, nil
	}
	run := func(sink batchSink) error {
		// The span closes before the groups flow downstream: the root's
		// work over group rows is not the hash fold's.
		sp := opts.Trace.Child("fold")
		sp.SetAttr("kind", "groupagg")
		root, err := fold(sp)
		sp.End()
		if err != nil {
			return err
		}
		return root.emit(opts.BatchSize, sink)
	}
	return &compiledPlan{frame: gf, src: run}, nil
}

// shadowGrouped strips the grouping clause off a grouped reduce so the
// root consumers see a plain reduce over the (already folded) group
// rows: the predicate is HAVING, evaluated per group.
func shadowGrouped(p *algebra.Reduce) *algebra.Reduce {
	cp := *p
	cp.GroupBy, cp.Aggs = nil, nil
	return &cp
}
