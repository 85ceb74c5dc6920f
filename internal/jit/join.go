package jit

import (
	"math"

	"vida/internal/algebra"
	"vida/internal/faultinject"
	"vida/internal/trace"
	"vida/internal/values"
	"vida/internal/vec"
)

// This file is the parallel join. The build side (the right input) is
// scanned — morsel-parallel when it partitions — into per-morsel
// partials: the retained batches and, per batch, the physical rows of
// its entries (live rows whose keys are all non-null), each allocated
// once at its batch's size. Seal turns the partials into one immutable
// index that probe morsels share without synchronization. It has one
// layout: a stable counting sort of the entries by slot, so slot s
// lists its entries [off[s], off[s+1]) in build order. Two slot rules
// fill it:
//
//   - Dense, when the join has one key, every retained build key column
//     is Int64, the keys lie inside ±2^53 and the dense layout is no
//     larger than the hashed one: slot key − min. A probe key finds its
//     matches by subtraction, and every entry of its slot matches. A
//     probe key column that is not Int64 follows values.Equal: an
//     integral float or a boxed number maps to its slot, anything else
//     matches nothing.
//   - Hashed otherwise: the low bits of the key-tuple hash (keyHasher,
//     as the grouped fold hashes), over a power-of-two slot count no
//     smaller than the entries. A probe walks its slot's one contiguous
//     range and checks each entry's hash fingerprint (the hash's high 32
//     bits), then its keys (keyEqual, the grouped fold's equality).
//
// Determinism is structural, not synchronized. Seal reads the partials
// in morsel order, which is build-scan order, and the counting sort is
// stable, so every probe row emits its matches in exactly the serial
// engine's order. Probe morsels then merge at the root in morsel order
// (the grouped fold's discipline), so results are byte-identical to the
// serial plan for any worker count — including for the non-commutative
// list monoid.

// joinState is the compile-time staging of one hash join: everything
// both the serial run path and the morsel-parallel srcRange path share.
// Join keys are key columns, one per On pair and side (mkGetter: slot,
// kernel or boxed fallback). A build key that is not a build slot rides
// along as an extra column of each retained build batch; rKeyAt[j] is
// the retained column holding build key j.
type joinState struct {
	l, r         *compiledPlan
	lKeys, rKeys []func() vecExpr
	rKeyAt       []int
	lw, rw       int
	opts         Options
}

// joinPartial is one build morsel's output: the batches it retained,
// in scan order, and per batch the physical rows of its entries — nil
// when every row of the batch is one. A batch without entries is not
// retained.
type joinPartial struct {
	retained []vec.Batch
	rows     [][]int32
}

// joinIndex is the sealed immutable build index shared by all probe
// morsels: its rowSide lists the entries sorted by slot. No field is
// mutated after seal.
type joinIndex struct {
	rowSide
	keyAt []int    // the retained columns holding the build keys
	off   []int32  // slot s's entries are [off[s], off[s+1])
	fps   []uint32 // hashed: each entry's hash fingerprint; nil when dense
	min   int64    // dense: the key of slot 0
	span  int64    // the build keys' max − min + 1, for one Int64 key; else 0
	bytes int64    // retained batches + index arrays
}

// maxDenseKey bounds the dense keys: inside ±2^53 every integer has an
// exact float64 image, so a float probe key equals at most one of them.
const maxDenseKey = 1 << 53

// mkBuildAbsorb returns a batchSink accumulating build entries into
// part. The sink owns its scratch — one per morsel (or one for the whole
// serial build). bsp receives the entry count.
func (js *joinState) mkBuildAbsorb(part *joinPartial, bsp *trace.Span) batchSink {
	gets, cols := newGetters(js.rKeys), make([]*vec.Col, len(js.rKeys))
	var ext vec.Batch // computed build keys, retained beside the batch
	var live []int32  // the batch's entry rows, before they are kept
	reserve := js.opts.MemReserve
	return func(b *vec.Batch) error {
		cnt := b.Len()
		if cnt == 0 {
			return nil
		}
		if err := faultinject.Hit(faultinject.JoinBuildStall); err != nil {
			return err
		}
		if err := getCols(gets, b, cols); err != nil {
			return err
		}
		live = live[:0]
		for k := 0; k < cnt; k++ {
			if !anyKeyNull(cols, b.Index(k)) { // null keys never join
				live = append(live, int32(k))
			}
		}
		if len(live) == 0 {
			return nil
		}
		stored, compacted := retainForBuild(b)
		if !compacted && b.Sel != nil {
			// An entry's row is physical; a compacted batch re-indexes,
			// its physical row k being the k-th live row of b.
			for j, k := range live {
				live[j] = int32(b.Sel[k])
			}
		}
		ext.Cols, ext.N, ext.Sel = ext.Cols[:0], b.N, b.Sel
		for j, at := range js.rKeyAt {
			if at >= js.rw {
				ext.Cols = append(ext.Cols, *cols[j])
			}
		}
		if len(ext.Cols) > 0 {
			// Kernel columns are scratch: copy them, compacted exactly
			// like the batch they key.
			var kept vec.Batch
			if compacted {
				kept = ext.Compact()
			} else {
				kept = ext.Retain()
			}
			stored.Cols = append(stored.Cols, kept.Cols...)
		}
		if reserve != nil {
			// The build side is the join's dominant allocator: charge
			// every retained batch against the query budget.
			if err := reserve(stored.MemoryBytes()); err != nil {
				return err
			}
		}
		var rows []int32 // nil: every row of stored is an entry
		if len(live) < stored.N {
			rows = make([]int32, len(live))
			copy(rows, live)
		}
		part.retained = append(part.retained, stored)
		part.rows = append(part.rows, rows)
		bsp.AddRows(int64(len(live)))
		return nil
	}
}

// anyKeyNull reports that some key column is null at physical row i.
func anyKeyNull(cols []*vec.Col, i int) bool {
	for _, c := range cols {
		if colNullAt(c, i) {
			return true
		}
	}
	return false
}

// seal builds the shared immutable index over the morsel partials, read
// in morsel order (build-scan order): dense when the join has one Int64
// key inside ±2^53 whose dense layout is no larger than the hashed one,
// hashed otherwise. The index arrays, the hashed rule's build-order hash
// scratch included, are charged against the query budget before they
// are allocated (the retained batches were charged as they arrived).
func (js *joinState) seal(partials []*joinPartial) (*joinIndex, error) {
	idx := &joinIndex{keyAt: js.rKeyAt}
	var rows [][]int32
	for _, m := range partials {
		idx.retained = append(idx.retained, m.retained...)
		rows = append(rows, m.rows...)
	}
	total := 0
	for i := range idx.retained {
		idx.bytes += idx.retained[i].MemoryBytes()
		total += entryCount(&idx.retained[i], rows[i])
	}
	idx.describe(js.rw)
	slots := int64(1)
	for slots < int64(total) {
		slots *= 2
	}
	// Hashed: off, each entry's batch, row and fingerprint, and its hash
	// in build order.
	indexBytes := 4*(slots+1) + int64(total)*(4+4+4+8)
	dense := false
	if lo, hi, ok := js.keyRange(idx.retained, rows); ok {
		idx.min, idx.span = lo, hi-lo+1
		denseBytes := 4*(idx.span+1) + int64(total)*(4+4)
		if dense = denseBytes <= indexBytes; dense {
			indexBytes, slots = denseBytes, idx.span
		}
	}
	if reserve := js.opts.MemReserve; reserve != nil {
		if err := reserve(indexBytes); err != nil {
			return nil, err
		}
	}
	idx.bytes += indexBytes
	var hs []uint64
	if !dense {
		hs = idx.entryHashes(rows, total)
		idx.fps = make([]uint32, total)
	}
	idx.layout(rows, total, slots, hs)
	return idx, nil
}

// entryCount is the number of entries of retained batch rb, whose entry
// rows are rows.
func entryCount(rb *vec.Batch, rows []int32) int {
	if rows == nil {
		return rb.N
	}
	return len(rows)
}

// entryRow is the physical row of the j-th entry of a retained batch
// whose entry rows are rows.
func entryRow(rows []int32, j int) int32 {
	if rows == nil {
		return int32(j)
	}
	return rows[j]
}

// keyRange returns the least and greatest build key when the join has
// one key, held by an Int64 column of every retained batch, and every
// key lies inside ±2^53; ok is false otherwise.
func (js *joinState) keyRange(retained []vec.Batch, rows [][]int32) (lo, hi int64, ok bool) {
	if len(js.rKeyAt) != 1 || len(retained) == 0 {
		return 0, 0, false
	}
	at := js.rKeyAt[0]
	lo, hi = math.MaxInt64, math.MinInt64
	for i := range retained {
		c := &retained[i].Cols[at]
		if c.Tag != vec.Int64 {
			return 0, 0, false
		}
		for j, n := 0, entryCount(&retained[i], rows[i]); j < n; j++ {
			k := c.Ints[entryRow(rows[i], j)]
			lo, hi = min(lo, k), max(hi, k)
		}
	}
	return lo, hi, lo >= -maxDenseKey && hi <= maxDenseKey
}

// entryHashes returns every entry's key-tuple hash, in build order.
func (idx *joinIndex) entryHashes(rows [][]int32, total int) []uint64 {
	hs := make([]uint64, 0, total)
	keys := make([]*vec.Col, len(idx.keyAt))
	var kh keyHasher
	var view vec.Batch
	var sel []int
	for i := range idx.retained {
		rb := &idx.retained[i]
		for j, at := range idx.keyAt {
			keys[j] = &rb.Cols[at]
		}
		view.N, view.Sel = rb.N, nil
		if rows[i] != nil {
			sel = resize(sel, len(rows[i]))
			for k, r := range rows[i] {
				sel[k] = int(r)
			}
			view.Sel = sel
		}
		kh.hash(keys, &view)
		hs = append(hs, kh.sums...)
	}
	return hs
}

// layout is seal's one counting sort: it lays the entries out by slot,
// each slot listing its entries in build order. An entry's slot is key −
// min when dense, the low bits of its hash hs[e] (e its build-order
// index) when hashed; the scatter also carries each hash's fingerprint
// to its entry's place.
func (idx *joinIndex) layout(rows [][]int32, total int, slots int64, hs []uint64) {
	off := make([]int32, slots+1)
	batch, row := make([]int32, total), make([]int32, total)
	mask, lo, at := uint64(slots-1), idx.min, idx.keyAt[0]
	// Count each slot's entries, batch by batch: a batch's entries have
	// the hashes hs[e:e+n].
	e := 0
	for i := range idx.retained {
		rs, ints := rows[i], idx.retained[i].Cols[at].Ints
		n := entryCount(&idx.retained[i], rs)
		if hs != nil {
			for _, h := range hs[e : e+n] {
				off[h&mask]++
			}
		} else {
			for j := range n {
				off[ints[entryRow(rs, j)]-lo]++
			}
		}
		e += n
	}
	// Inclusive prefix sums: off[s] ends slot s.
	var end int32
	for s, c := range off {
		end += c
		off[s] = end
	}
	// Scatter in reverse build order: each slot fills back to front, so
	// it lists its entries in build order, and off[s] ends at its start.
	for i := len(idx.retained) - 1; i >= 0; i-- {
		rs, ints := rows[i], idx.retained[i].Cols[at].Ints
		for j := entryCount(&idx.retained[i], rs) - 1; j >= 0; j-- {
			e--
			r := entryRow(rs, j)
			var s uint64
			if hs != nil {
				s = hs[e] & mask
			} else {
				s = uint64(ints[r] - lo)
			}
			off[s]--
			p := off[s]
			batch[p], row[p] = int32(i), r
			if hs != nil {
				idx.fps[p] = fingerprint(hs[e])
			}
		}
	}
	idx.off, idx.batch, idx.row = off, batch, row
}

// buildIndex drives the build side to a sealed index under a
// `fold kind=join` span. The build scan goes morsel-parallel when the
// build side is partitionable and at least ParallelThreshold rows;
// below that it stays serial (one partial).
// buildIndex always runs on the query's main goroutine — srcRange
// callers invoke it eagerly before dispatching probe morsels, so the
// pool never nests Run inside its own workers.
func (js *joinState) buildIndex() (*joinIndex, *trace.Span, error) {
	opts := js.opts
	fold := opts.Trace.Child("fold")
	fold.SetAttr("kind", "join")
	defer fold.End()
	bsp := fold.Child("join_build")
	var partials []*joinPartial
	var err error
	scan, n, parallel := parallelInput(js.r, opts, opts.ParallelThreshold)
	if parallel {
		partials, err = morsels(opts.Ctx, opts, bsp, n, func(lo, hi int) (*joinPartial, error) {
			part := &joinPartial{}
			return part, scan(lo, hi, js.mkBuildAbsorb(part, bsp))
		})
	} else {
		part := &joinPartial{}
		err = js.r.run(js.mkBuildAbsorb(part, bsp))
		partials = []*joinPartial{part}
	}
	fold.SetAttr("parallel_build", parallel)
	bsp.End()
	if err != nil {
		return nil, nil, err
	}
	ssp := fold.Child("join_seal")
	idx, err := js.seal(partials)
	ssp.End()
	if err != nil {
		return nil, nil, err
	}
	entries, dense := int64(len(idx.row)), idx.fps == nil
	fold.SetAttr("build_rows", entries)
	fold.SetAttr("table_bytes", idx.bytes)
	if dense {
		fold.SetAttr("index", "dense")
	} else {
		fold.SetAttr("index", "hash")
	}
	if idx.span != 0 {
		fold.SetAttr("key_span", idx.span)
	}
	if ct := opts.Counters; ct != nil {
		ct.JoinFolds.Add(1)
		if dense {
			ct.JoinDenseFolds.Add(1)
		}
		ct.JoinBuildRows.Add(entries)
		raiseMax(&ct.JoinTableMaxBytes, idx.bytes)
	}
	return idx, fold, nil
}

// mkProber stages one probe pipeline over the sealed index: a batchSink
// probing each live row and gathering its matches into sink. All scratch
// (match pairs, the output batch, key getters, hashes) is per-prober, so
// one prober serves one serial run or one probe-morsel scan invocation.
// psp and the join counters accumulate the matches atomically across
// concurrent probers.
func (js *joinState) mkProber(idx *joinIndex, psp *trace.Span, sink batchSink) batchSink {
	g := newPairGather(&idx.rowSide, js.lw, js.opts.BatchSize, sink)
	gets, cols := newGetters(js.lKeys), make([]*vec.Col, len(js.lKeys))
	var kh keyHasher
	return func(b *vec.Batch) error {
		if err := getCols(gets, b, cols); err != nil {
			return err
		}
		delta, err := idx.probe(cols, b, &kh, g)
		if err != nil {
			return err
		}
		if delta != 0 {
			psp.AddRows(delta)
			if ct := js.opts.Counters; ct != nil {
				ct.JoinProbeRows.Add(delta)
			}
		}
		return g.flush(b)
	}
}

// probe is the one match loop: it adds the matches of every live row of
// b, whose key columns are cols, to g and returns their count. A row
// finds its slot by the index's rule — key − min (denseKey maps a key
// column that is not Int64), or the low bits of its tuple hash — and a
// hashed slot's entries must then equal its fingerprint and keys, where
// every entry of a dense slot matches.
func (idx *joinIndex) probe(cols []*vec.Col, b *vec.Batch, kh *keyHasher, g *pairGather) (int64, error) {
	off, fps, lo := idx.off, idx.fps, idx.min
	slots := uint64(len(off) - 1)
	hashed := fps != nil
	var ints []int64 // a dense probe's Int64 keys
	var nulls []bool
	if hashed {
		kh.hash(cols, b)
	} else if c := cols[0]; c.Tag == vec.Int64 {
		ints, nulls = c.Ints, c.Nulls
	}
	var delta int64
	for k, n := 0, b.Len(); k < n; k++ {
		i := b.Index(k)
		var s uint64
		var fp uint32
		switch {
		case ints != nil:
			if nulls != nil && nulls[i] {
				continue
			}
			s = uint64(ints[i] - lo)
		case hashed:
			if !kh.nonNull[k] {
				continue
			}
			h := kh.sums[k]
			s, fp = h&(slots-1), fingerprint(h)
		default:
			key, ok := denseKey(cols[0], i)
			if !ok {
				continue
			}
			s = uint64(key - lo)
		}
		// Dense: a key outside [min, max] wraps past the last slot.
		if s >= slots {
			continue
		}
		for e, end := off[s], off[s+1]; e < end; e++ {
			if hashed && (fps[e] != fp || !idx.keysEqual(cols, i, e)) {
				continue
			}
			delta++
			if g.add(i, e) {
				if err := g.flush(b); err != nil {
					return delta, err
				}
			}
		}
	}
	return delta, nil
}

// fingerprint is the part of a key-tuple hash the hashed rule keeps per
// entry: its high 32 bits, independent of the low bits that pick the
// slot, so a slot's entries rarely share one unless their keys match.
func fingerprint(h uint64) uint32 { return uint32(h >> 32) }

// keysEqual reports that row i of the probe key columns cols equals
// entry e's build keys.
func (idx *joinIndex) keysEqual(cols []*vec.Col, i int, e int32) bool {
	rb, r := &idx.retained[idx.batch[e]], int(idx.row[e])
	for j, at := range idx.keyAt {
		if !keyEqual(cols[j], i, &rb.Cols[at], r) {
			return false
		}
	}
	return true
}

// denseKey is row i of a probe key column as a dense key: the integer
// values.Equal makes it equal to. Nulls, strings, NaN, non-integral or
// out-of-range floats and other kinds equal no key.
func denseKey(col *vec.Col, i int) (int64, bool) {
	if col.Nulls != nil && col.Nulls[i] {
		return 0, false
	}
	switch col.Tag {
	case vec.Int64:
		return col.Ints[i], true
	case vec.Float64:
		return floatKey(col.Floats[i])
	case vec.Boxed:
		switch v := col.Boxed[i]; v.Kind() {
		case values.KindInt:
			return v.Int(), true
		case values.KindFloat:
			return floatKey(v.Float())
		}
	}
	return 0, false
}

// floatKey is the integer f equals, for an integral f inside ±2^53 —
// the dense key range, inside which the conversion is exact (−0 is 0;
// NaN fails the integral test).
func floatKey(f float64) (int64, bool) {
	if f != math.Trunc(f) || math.Abs(f) > maxDenseKey {
		return 0, false
	}
	return int64(f), true
}

// plan assembles the compiledPlan for a staged join: a serial run path
// (build may still go parallel; the probe is one pipeline) and, when the
// probe side is partitionable, a srcRange path probing morsel-parallel
// against the eagerly sealed index.
func (js *joinState) plan(f *frame) *compiledPlan {
	cp := &compiledPlan{frame: f}
	cp.src = func(sink batchSink) error {
		idx, fold, err := js.buildIndex()
		if err != nil {
			return err
		}
		psp := fold.Child("join_probe")
		err = js.l.run(js.mkProber(idx, psp, sink))
		psp.End()
		return err
	}
	if js.l.srcRange == nil {
		return cp
	}
	cp.srcRange = func() (func(lo, hi int, sink batchSink) error, int, bool) {
		pscan, n, ok := parallelInput(js.l, js.opts, js.opts.ParallelThreshold)
		if !ok {
			// Below the root's own parallel gate the caller would fall
			// back to run() anyway; declining here avoids building the
			// index twice.
			return nil, 0, false
		}
		// Eager build: srcRange is called on the query's main goroutine
		// before any probe morsel is dispatched, so a parallel build's
		// Pool.Run never nests inside pool workers. A build failure is
		// stashed and surfaces from every probe morsel, preserving typed
		// errors (e.g. the memory-budget kill) through the scheduler.
		idx, fold, err := js.buildIndex()
		var psp *trace.Span
		if err == nil {
			psp = fold.Child("join_probe")
			psp.SetAttr("parallel", true)
			// psp stays open: probe morsels AddRows concurrently until
			// the root finishes, and the tracer's Finish settles it.
		}
		return func(lo, hi int, sink batchSink) error {
			if err != nil {
				return err
			}
			return pscan(lo, hi, js.mkProber(idx, psp, sink))
		}, n, true
	}
	return cp
}

// rowSide is the retained right side of a binary operator (a join's
// build, a product's right input): the batches it retained, typed as
// they arrived, and one entry (batch, physical row) per row the operator
// may emit. cols says how each output column of the side gathers; it is
// set once the side is complete (describe).
type rowSide struct {
	retained []vec.Batch
	batch    []int32
	row      []int32
	cols     []sideCol
}

// sideCol is how one column of a rowSide gathers: typed as tag when
// every retained batch agrees on the tag (and, for StrDict, on the
// dictionary), boxed through Col.Value when they do not (mixed).
type sideCol struct {
	tag   vec.Tag
	mixed bool
	nulls bool // some retained batch carries a validity mask
}

// retain keeps b, typed, and appends one entry per live row of it.
func (rs *rowSide) retain(b *vec.Batch) error {
	n := b.Len()
	if n == 0 {
		return nil
	}
	bi := int32(len(rs.retained))
	rs.retained = append(rs.retained, b.Retain())
	for k := 0; k < n; k++ {
		rs.batch = append(rs.batch, bi)
		rs.row = append(rs.row, int32(b.Index(k)))
	}
	return nil
}

// describe records how each of the side's first width columns gathers.
func (rs *rowSide) describe(width int) {
	rs.cols = make([]sideCol, width)
	for s := range rs.cols {
		sc := &rs.cols[s]
		for i := range rs.retained {
			c := &rs.retained[i].Cols[s]
			if i == 0 {
				sc.tag = c.Tag
			} else if c.Tag != sc.tag || c.Tag == vec.StrDict && !sameDict(c.Dict, rs.retained[0].Cols[s].Dict) {
				sc.mixed = true
			}
			sc.nulls = sc.nulls || c.Nulls != nil
		}
	}
}

// sameDict reports that two StrDict columns share one dictionary.
func sameDict(a, b []string) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// gather returns column s of the entries whose retained batches and
// rows are bs and rs, in buf's storage. A mixed column is the one place
// a binary operator's output boxes.
func (rs *rowSide) gather(buf *vec.Col, s int, bs, rows []int32) vec.Col {
	sc, ret, n := rs.cols[s], rs.retained, len(bs)
	if sc.mixed {
		buf.Boxed = resize(buf.Boxed, n)
		for k := range buf.Boxed {
			buf.Boxed[k] = ret[bs[k]].Cols[s].Value(int(rows[k]))
		}
		return vec.Col{Tag: vec.Boxed, Boxed: buf.Boxed}
	}
	out := vec.Col{Tag: sc.tag}
	switch sc.tag {
	case vec.Int64:
		buf.Ints = resize(buf.Ints, n)
		for k := range buf.Ints {
			buf.Ints[k] = ret[bs[k]].Cols[s].Ints[rows[k]]
		}
		out.Ints = buf.Ints
	case vec.Float64:
		buf.Floats = resize(buf.Floats, n)
		for k := range buf.Floats {
			buf.Floats[k] = ret[bs[k]].Cols[s].Floats[rows[k]]
		}
		out.Floats = buf.Floats
	case vec.Str:
		buf.Strs = resize(buf.Strs, n)
		for k := range buf.Strs {
			buf.Strs[k] = ret[bs[k]].Cols[s].Strs[rows[k]]
		}
		out.Strs = buf.Strs
	case vec.StrDict:
		buf.Codes = resize(buf.Codes, n)
		for k := range buf.Codes {
			buf.Codes[k] = ret[bs[k]].Cols[s].Codes[rows[k]]
		}
		out.Codes, out.Dict = buf.Codes, ret[0].Cols[s].Dict
	default:
		buf.Boxed = resize(buf.Boxed, n)
		for k := range buf.Boxed {
			buf.Boxed[k] = ret[bs[k]].Cols[s].Boxed[rows[k]]
		}
		out.Boxed = buf.Boxed
	}
	if sc.nulls {
		buf.Nulls = resize(buf.Nulls, n)
		for k := range buf.Nulls {
			c := &ret[bs[k]].Cols[s]
			buf.Nulls[k] = c.Nulls != nil && c.Nulls[rows[k]]
		}
		out.Nulls = buf.Nulls
	}
	return out
}

// gatherCol returns the rows of src, typed as src is, in buf's storage.
func gatherCol(buf, src *vec.Col, rows []int32) vec.Col {
	out := vec.Col{Tag: src.Tag}
	switch src.Tag {
	case vec.Int64:
		buf.Ints = pick(buf.Ints, src.Ints, rows)
		out.Ints = buf.Ints
	case vec.Float64:
		buf.Floats = pick(buf.Floats, src.Floats, rows)
		out.Floats = buf.Floats
	case vec.Str:
		buf.Strs = pick(buf.Strs, src.Strs, rows)
		out.Strs = buf.Strs
	case vec.StrDict:
		buf.Codes = pick(buf.Codes, src.Codes, rows)
		out.Codes, out.Dict = buf.Codes, src.Dict
	default:
		buf.Boxed = pick(buf.Boxed, src.Boxed, rows)
		out.Boxed = buf.Boxed
	}
	if src.Nulls != nil {
		buf.Nulls = pick(buf.Nulls, src.Nulls, rows)
		out.Nulls = buf.Nulls
	}
	return out
}

// pick returns dst, resized to len(rows), holding src[rows[k]] at k.
func pick[T any](dst, src []T, rows []int32) []T {
	dst = resize(dst, len(rows))
	for k, r := range rows {
		dst[k] = src[r]
	}
	return dst
}

// resize returns s with length n, reallocated only when it lacks the
// capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// pairGather builds a binary operator's output from pairs of a left
// physical row, of the left batch being processed, and a right-side
// entry. A flush fills one reused output batch column by column: left
// slots gather from the left batch, right slots from the side's
// retained batches, each typed as its source is. Pairs emit in the order
// they were added, at most size to a batch; the owner flushes at the end
// of each left batch, before the batch's storage moves on.
type pairGather struct {
	side        *rowSide
	lw, size    int
	left, right []int32   // the pending pairs
	bs, rs      []int32   // the pending right entries' batch and row
	bufs        []vec.Col // each output column's storage, reused
	out         vec.Batch
	sink        batchSink
}

// newPairGather returns the gather of lw left slots and the side's
// described columns.
func newPairGather(side *rowSide, lw, size int, sink batchSink) *pairGather {
	w := lw + len(side.cols)
	return &pairGather{side: side, lw: lw, size: size, sink: sink,
		bufs: make([]vec.Col, w), out: vec.Batch{Cols: make([]vec.Col, w)}}
}

// add records the pair (left row l, right entry e) and reports that a
// full batch is pending: the caller flushes it.
func (g *pairGather) add(l int, e int32) (full bool) {
	g.left, g.right = append(g.left, int32(l)), append(g.right, e)
	return len(g.left) == g.size
}

// flush emits the pending pairs, whose left rows are rows of b.
func (g *pairGather) flush(b *vec.Batch) error {
	n := len(g.left)
	if n == 0 {
		return nil
	}
	for s := 0; s < g.lw; s++ {
		g.out.Cols[s] = gatherCol(&g.bufs[s], &b.Cols[s], g.left)
	}
	g.bs, g.rs = resize(g.bs, n), resize(g.rs, n)
	for k, e := range g.right {
		g.bs[k], g.rs[k] = g.side.batch[e], g.side.row[e]
	}
	for s := range g.side.cols {
		g.out.Cols[g.lw+s] = g.side.gather(&g.bufs[g.lw+s], s, g.bs, g.rs)
	}
	g.out.N, g.out.Sel = n, nil
	g.left, g.right = g.left[:0], g.right[:0]
	return g.sink(&g.out)
}

// compileProduct stages a cross product: the right side is retained
// once, typed, and every live left row pairs with every right row, in
// right-side order, through the join's gather.
func (c *compiler) compileProduct(n *algebra.Product) (*compiledPlan, error) {
	l, err := c.compilePlan(n.L)
	if err != nil {
		return nil, err
	}
	r, err := c.compilePlan(n.R)
	if err != nil {
		return nil, err
	}
	f := l.frame.clone()
	for _, s := range r.frame.slots {
		f.add(s.key.varName, s.key.attr)
	}
	lw, rw := l.frame.width(), r.frame.width()
	bs := c.opts.BatchSize
	return &compiledPlan{frame: f, src: func(sink batchSink) error {
		var right rowSide
		if err := r.run(right.retain); err != nil {
			return err
		}
		right.describe(rw)
		g := newPairGather(&right, lw, bs, sink)
		return l.run(func(b *vec.Batch) error {
			for k, n := 0, b.Len(); k < n; k++ {
				i := b.Index(k)
				for e := range right.row {
					if !g.add(i, int32(e)) {
						continue
					}
					if err := g.flush(b); err != nil {
						return err
					}
				}
			}
			return g.flush(b)
		})
	}}, nil
}
