package jit

import (
	"vida/internal/faultinject"
	"vida/internal/trace"
	"vida/internal/values"
	"vida/internal/vec"
)

// This file is the partitioned parallel hash join. The serial join of
// the earlier engine kept one monolithic chain table built by a single
// scan; here the build side is scanned morsel-parallel into per-morsel
// radix-partitioned entry lists, the partitions are sealed into a
// shared immutable index, and probe morsels run in parallel against it.
// Determinism is structural, not synchronized:
//
//   - Each build entry's partition is a pure function of its key hash
//     (the top log2(P) bits), so all candidates for one probe key live
//     in exactly one partition regardless of which worker built it.
//   - Sealing concatenates each partition's per-morsel entry lists in
//     morsel order, which is build-scan order — the same order the
//     serial build appends entries in.
//   - Per-partition bucket chains insert in reverse so a chain lists
//     its entries in build order, making every probe row emit its
//     matches in exactly the serial engine's order.
//
// Probe morsels then merge at the root in morsel order (the grouped
// fold's discipline), so results are byte-identical to the serial plan
// across any worker and partition count — including for the
// non-commutative list monoid.

// DefaultJoinPartitions is the default radix partition count for the
// hash-join build. Partitioning exists for parallel-build locality (each
// morsel appends to its own partition lists; sealing never rehashes), so
// a modest power of two suffices.
const DefaultJoinPartitions = 16

// maxJoinPartitions bounds the partition count: past this the per-
// partition fixed overhead (head arrays) dominates small builds.
const maxJoinPartitions = 1024

// joinState is the compile-time staging of one hash join: everything
// both the serial run path and the morsel-parallel openRange path share.
type joinState struct {
	l, r         *compiledPlan
	lSlot, rSlot int // slot-reference key fast path; -1 = expression keys
	lKeys, rKeys []compiledExpr
	residual     compiledExpr
	lw, rw       int
	opts         Options
	parts        int  // partition count, power of two
	shift        uint // 64 - log2(parts); partition = hash >> shift
}

// joinPartial is one build morsel's output: the batches it retained and,
// per radix partition, the entries it contributed. Entries reference
// (batch, row) within the morsel's own retained list; sealing rebases
// batch indices into the global list.
type joinPartial struct {
	retained []vec.Batch
	parts    []joinPartChunk
}

type joinPartChunk struct {
	hashes []uint64
	batch  []int32
	row    []int32
	keys   []values.Value // boxed keys, expression-key case only
}

// joinIndex is the sealed immutable build index shared by all probe
// morsels. No field is mutated after seal.
type joinIndex struct {
	retained []vec.Batch
	parts    []joinIndexPart
	entries  int64
	bytes    int64 // retained batches + index arrays + boxed keys
}

// joinIndexPart is one sealed radix partition: its entries in global
// build order plus a power-of-two bucket chain table over them.
type joinIndexPart struct {
	hashes []uint64
	batch  []int32
	row    []int32
	keys   []values.Value
	head   []int32 // 1-based entry, 0 = empty
	next   []int32
	mask   uint64
}

// joinKeyOf evaluates a key tuple over a filled row; ok is false when
// any component is null (null keys never join).
func joinKeyOf(row []values.Value, exprs []compiledExpr) (values.Value, bool, error) {
	if len(exprs) == 1 {
		v, err := exprs[0](row)
		if err != nil || v.IsNull() {
			return values.Null, false, err
		}
		return v, true, nil
	}
	parts := make([]values.Value, len(exprs))
	for i, e := range exprs {
		v, err := e(row)
		if err != nil {
			return values.Null, false, err
		}
		if v.IsNull() {
			return values.Null, false, nil
		}
		parts[i] = v
	}
	return values.NewList(parts...), true, nil
}

func (js *joinState) newPartial() *joinPartial {
	return &joinPartial{parts: make([]joinPartChunk, js.parts)}
}

// mkBuildAbsorb returns a batchSink accumulating partitioned build
// entries into part. The sink owns its scratch — one per morsel (or one
// for the whole serial build). bsp receives the entry count.
func (js *joinState) mkBuildAbsorb(part *joinPartial, bsp *trace.Span) batchSink {
	rrow := make([]values.Value, js.rw)
	var hs []uint64 // per-batch key-hash scratch (vectorized pass)
	var hsValid []bool
	reserve := js.opts.MemReserve
	return func(b *vec.Batch) error {
		cnt := b.Len()
		if cnt == 0 {
			return nil
		}
		if err := faultinject.Hit(faultinject.JoinBuildStall); err != nil {
			return err
		}
		bi := int32(len(part.retained))
		stored, compacted := retainForBuild(b)
		if reserve != nil {
			// The build side is the join's dominant allocator: charge
			// every retained batch against the query budget.
			if err := reserve(stored.MemoryBytes()); err != nil {
				return err
			}
		}
		part.retained = append(part.retained, stored)
		var appended int64
		if js.rSlot >= 0 {
			// Vectorized build: the key column hashes in one
			// tag-dispatched pass — typed payloads never box.
			hs, hsValid = hashLiveCol(&b.Cols[js.rSlot], b, hs[:0], hsValid[:0])
			for k := 0; k < cnt; k++ {
				if !hsValid[k] {
					continue
				}
				// A compacted batch re-indexes: its physical row k is
				// the k-th live row of b.
				si := b.Index(k)
				if compacted {
					si = k
				}
				h := hs[k]
				ch := &part.parts[h>>js.shift]
				ch.hashes = append(ch.hashes, h)
				ch.batch = append(ch.batch, bi)
				ch.row = append(ch.row, int32(si))
				appended++
			}
		} else {
			for k := 0; k < cnt; k++ {
				i := b.Index(k)
				si := i
				if compacted {
					si = k
				}
				fillRow(b, i, rrow)
				kv, ok, err := joinKeyOf(rrow, js.rKeys)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
				h := kv.Hash()
				ch := &part.parts[h>>js.shift]
				ch.hashes = append(ch.hashes, h)
				ch.batch = append(ch.batch, bi)
				ch.row = append(ch.row, int32(si))
				ch.keys = append(ch.keys, kv)
				appended++
			}
		}
		bsp.AddRows(appended)
		return nil
	}
}

// seal concatenates the morsel partials — in morsel order, which is
// build-scan order — into the shared immutable index and builds each
// partition's bucket chains. The index arrays are charged against the
// query budget here (the retained batches were charged as they arrived).
func (js *joinState) seal(partials []*joinPartial) (*joinIndex, error) {
	idx := &joinIndex{parts: make([]joinIndexPart, js.parts)}
	base := make([]int32, len(partials))
	var retainedBytes int64
	for mi, m := range partials {
		base[mi] = int32(len(idx.retained))
		idx.retained = append(idx.retained, m.retained...)
		for i := range m.retained {
			retainedBytes += m.retained[i].MemoryBytes()
		}
	}
	var indexBytes int64
	for pi := range idx.parts {
		total := 0
		for _, m := range partials {
			total += len(m.parts[pi].hashes)
		}
		part := &idx.parts[pi]
		if total > 0 {
			part.hashes = make([]uint64, 0, total)
			part.batch = make([]int32, 0, total)
			part.row = make([]int32, 0, total)
		}
		for mi, m := range partials {
			ch := &m.parts[pi]
			for k := range ch.hashes {
				part.hashes = append(part.hashes, ch.hashes[k])
				part.batch = append(part.batch, base[mi]+ch.batch[k])
				part.row = append(part.row, ch.row[k])
			}
			if js.rSlot < 0 {
				part.keys = append(part.keys, ch.keys...)
				for _, kv := range ch.keys {
					indexBytes += approxValueBytes(kv)
				}
			}
		}
		// Power-of-two bucket heads plus per-entry chains, inserted in
		// reverse so each chain lists entries in build order (probe
		// results match the row-at-a-time engines exactly).
		n := len(part.hashes)
		tableSize := 1
		for tableSize < n*2 {
			tableSize *= 2
		}
		part.mask = uint64(tableSize - 1)
		part.head = make([]int32, tableSize)
		part.next = make([]int32, n)
		for e := n - 1; e >= 0; e-- {
			slot := part.hashes[e] & part.mask
			part.next[e] = part.head[slot]
			part.head[slot] = int32(e + 1)
		}
		idx.entries += int64(n)
		indexBytes += int64(n)*(8+4+4+4) + int64(tableSize)*4
	}
	if reserve := js.opts.MemReserve; reserve != nil && indexBytes > 0 {
		if err := reserve(indexBytes); err != nil {
			return nil, err
		}
	}
	idx.bytes = retainedBytes + indexBytes
	return idx, nil
}

// buildIndex drives the build side to a sealed index under a
// `fold kind=join` span. The build scan goes morsel-parallel when the
// build side is partitionable and at least JoinBuildThreshold rows;
// below that it stays serial (same partitioned structures, one morsel).
// buildIndex always runs on the query's main goroutine — openRange
// callers invoke it eagerly before dispatching probe morsels, so the
// pool never nests Run inside its own workers.
func (js *joinState) buildIndex() (*joinIndex, *trace.Span, error) {
	opts := js.opts
	fold := opts.Trace.Child("fold")
	fold.SetAttr("kind", "join")
	fold.SetAttr("partitions", js.parts)
	bsp := fold.Child("join_build")
	var partials []*joinPartial
	var err error
	scan, n, parallel := parallelInput(js.r, opts, opts.JoinBuildThreshold)
	if parallel {
		partials, err = morsels(opts.Ctx, opts, bsp, n, func(lo, hi int) (*joinPartial, error) {
			part := js.newPartial()
			return part, scan(lo, hi, js.mkBuildAbsorb(part, bsp))
		})
	} else {
		part := js.newPartial()
		err = js.r.run(js.mkBuildAbsorb(part, bsp))
		partials = []*joinPartial{part}
	}
	fold.SetAttr("parallel_build", parallel)
	bsp.End()
	if err != nil {
		fold.End()
		return nil, nil, err
	}
	ssp := fold.Child("join_seal")
	idx, err := js.seal(partials)
	ssp.End()
	if err != nil {
		fold.End()
		return nil, nil, err
	}
	fold.SetAttr("build_rows", idx.entries)
	fold.SetAttr("table_bytes", idx.bytes)
	fold.End()
	if js.opts.JoinStats != nil {
		js.opts.JoinStats(1, idx.entries, 0, idx.bytes)
	}
	return idx, fold, nil
}

// mkProber stages one probe pipeline over the sealed index: a batchSink
// probing each live row and packing matches into sink. All scratch
// (packer, row buffer, hash vectors) is per-prober, so one prober serves
// one serial run or one probe-morsel scan invocation. matched counts the
// rows this prober emitted (for the delta-style JoinStats hook); psp
// accumulates the same count atomically across concurrent probers.
func (js *joinState) mkProber(idx *joinIndex, psp *trace.Span, sink batchSink) (probe batchSink, pk *vec.Packer, matched *int64) {
	pk = vec.NewPacker(js.lw+js.rw, js.opts.BatchSize, nil, sink)
	buf := make([]values.Value, js.lw+js.rw)
	var hs []uint64
	var hsValid []bool
	matched = new(int64)
	lSlot, rSlot := js.lSlot, js.rSlot
	// entryMatches verifies key equality on a hash match. With slot keys
	// on both sides the comparison runs typed (colValEqual, no boxing);
	// a boxed side boxes only on hash matches, never per probed row.
	entryMatches := func(part *joinIndexPart, e int, b *vec.Batch, i int, kv values.Value) bool {
		if rSlot >= 0 {
			rb := &idx.retained[part.batch[e]]
			ri := int(part.row[e])
			if lSlot >= 0 {
				return colValEqual(&b.Cols[lSlot], i, &rb.Cols[rSlot], ri)
			}
			return values.Equal(kv, rb.Cols[rSlot].Value(ri))
		}
		if lSlot >= 0 {
			return values.Equal(b.Cols[lSlot].Value(i), part.keys[e])
		}
		return values.Equal(kv, part.keys[e])
	}
	probe = func(b *vec.Batch) error {
		cnt := b.Len()
		if lSlot >= 0 {
			// Vectorized probe: hash the key column once per batch.
			hs, hsValid = hashLiveCol(&b.Cols[lSlot], b, hs[:0], hsValid[:0])
		}
		var delta int64
		for k := 0; k < cnt; k++ {
			i := b.Index(k)
			var kv values.Value
			var h uint64
			if lSlot >= 0 {
				if !hsValid[k] {
					continue
				}
				h = hs[k]
			} else {
				fillRow(b, i, buf[:js.lw])
				var ok bool
				var err error
				kv, ok, err = joinKeyOf(buf[:js.lw], js.lKeys)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
				h = kv.Hash()
			}
			part := &idx.parts[h>>js.shift]
			filled := lSlot < 0
			for e := part.head[h&part.mask]; e != 0; e = part.next[e-1] {
				ei := int(e - 1)
				if part.hashes[ei] != h || !entryMatches(part, ei, b, i, kv) {
					continue
				}
				if !filled {
					fillRow(b, i, buf[:js.lw])
					filled = true
				}
				rb := &idx.retained[part.batch[ei]]
				ri := int(part.row[ei])
				for s := 0; s < js.rw; s++ {
					buf[js.lw+s] = rb.Cols[s].Value(ri)
				}
				if js.residual != nil {
					pv, err := js.residual(buf)
					if err != nil {
						return err
					}
					if !(pv.Kind() == values.KindBool && pv.Bool()) {
						continue
					}
				}
				delta++
				if err := pk.Add(buf); err != nil {
					return err
				}
			}
		}
		if delta != 0 {
			psp.AddRows(delta)
			*matched += delta
		}
		return nil
	}
	return probe, pk, matched
}

// plan assembles the compiledPlan for a staged join: a serial run path
// (build may still go parallel; the probe is one pipeline) and, when the
// probe side is partitionable, an openRange path probing morsel-parallel
// against the eagerly sealed index.
func (js *joinState) plan(f *frame) *compiledPlan {
	cp := &compiledPlan{frame: f}
	cp.run = func(sink batchSink) error {
		idx, fold, err := js.buildIndex()
		if err != nil {
			return err
		}
		psp := fold.Child("join_probe")
		probe, pk, matched := js.mkProber(idx, psp, sink)
		err = js.l.run(probe)
		if err == nil {
			err = pk.Flush()
		}
		psp.End()
		if js.opts.JoinStats != nil {
			js.opts.JoinStats(0, 0, *matched, 0)
		}
		return err
	}
	if js.l.openRange == nil {
		return cp
	}
	cp.openRange = func() (func(lo, hi int, sink batchSink) error, int, bool) {
		pscan, n, ok := js.l.openRange()
		if !ok || n < js.opts.ParallelThreshold {
			// Below the root's own parallel gate the caller would fall
			// back to run() anyway; declining here avoids building the
			// index twice.
			return nil, 0, false
		}
		// Eager build: openRange is called on the query's main goroutine
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
			probe, pk, matched := js.mkProber(idx, psp, sink)
			if perr := pscan(lo, hi, probe); perr != nil {
				return perr
			}
			if perr := pk.Flush(); perr != nil {
				return perr
			}
			if js.opts.JoinStats != nil {
				js.opts.JoinStats(0, 0, *matched, 0)
			}
			return nil
		}, n, true
	}
	return cp
}
