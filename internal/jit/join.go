package jit

import (
	"vida/internal/faultinject"
	"vida/internal/trace"
	"vida/internal/values"
	"vida/internal/vec"
)

// This file is the parallel hash join. The build side (the right input)
// is scanned — morsel-parallel when it partitions — into per-morsel
// partials: the retained batches and one entry (key-tuple hash, batch,
// row) per live row whose keys are all non-null. Seal concatenates the
// partials into one immutable chain table that probe morsels share
// without synchronization. Determinism is structural, not synchronized:
//
//   - Sealing concatenates the partials in morsel order, which is
//     build-scan order — the order a serial build appends entries in.
//   - Chains insert in reverse so a chain lists its entries in build
//     order, making every probe row emit its matches in exactly the
//     serial engine's order.
//
// Probe morsels then merge at the root in morsel order (the grouped
// fold's discipline), so results are byte-identical to the serial plan
// for any worker count — including for the non-commutative list monoid.

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

// joinPartial is one build morsel's output: the batches it retained and
// its entries in scan order. An entry's batch indexes the morsel's own
// retained list; sealing rebases it into the global list.
type joinPartial struct {
	retained []vec.Batch
	hashes   []uint64
	batch    []int32
	row      []int32
}

// joinIndex is the sealed immutable build index shared by all probe
// morsels: every entry in build order plus a power-of-two bucket-head
// array over per-entry chains. No field is mutated after seal.
type joinIndex struct {
	joinPartial
	head  []int32 // 1-based entry, 0 = empty
	next  []int32
	mask  uint64
	bytes int64 // retained batches + index arrays
}

// mkBuildAbsorb returns a batchSink accumulating build entries into
// part. The sink owns its scratch — one per morsel (or one for the whole
// serial build). bsp receives the entry count.
func (js *joinState) mkBuildAbsorb(part *joinPartial, bsp *trace.Span) batchSink {
	gets, cols := newGetters(js.rKeys), make([]*vec.Col, len(js.rKeys))
	var kh keyHasher
	var ext vec.Batch // computed build keys, retained beside the batch
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
		stored, compacted := retainForBuild(b)
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
		bi := int32(len(part.retained))
		part.retained = append(part.retained, stored)
		kh.hash(cols, b)
		var appended int64
		for k := 0; k < cnt; k++ {
			if !kh.nonNull[k] {
				continue // null keys never join
			}
			// A compacted batch re-indexes: its physical row k is the
			// k-th live row of b.
			si := b.Index(k)
			if compacted {
				si = k
			}
			part.hashes = append(part.hashes, kh.sums[k])
			part.batch = append(part.batch, bi)
			part.row = append(part.row, int32(si))
			appended++
		}
		bsp.AddRows(appended)
		return nil
	}
}

// seal concatenates the morsel partials — in morsel order, which is
// build-scan order — into the shared immutable index and chains its
// buckets. The index arrays are charged against the query budget here
// (the retained batches were charged as they arrived).
func (js *joinState) seal(partials []*joinPartial) (*joinIndex, error) {
	total := 0
	for _, m := range partials {
		total += len(m.hashes)
	}
	idx := &joinIndex{joinPartial: joinPartial{
		hashes: make([]uint64, 0, total),
		batch:  make([]int32, 0, total),
		row:    make([]int32, 0, total),
	}}
	for _, m := range partials {
		base := int32(len(idx.retained))
		for i := range m.retained {
			idx.bytes += m.retained[i].MemoryBytes()
		}
		idx.retained = append(idx.retained, m.retained...)
		idx.hashes = append(idx.hashes, m.hashes...)
		idx.row = append(idx.row, m.row...)
		for _, bi := range m.batch {
			idx.batch = append(idx.batch, base+bi)
		}
	}
	// Power-of-two bucket heads plus per-entry chains, inserted in
	// reverse so each chain lists entries in build order (probe results
	// match the row-at-a-time engines exactly).
	tableSize := 1
	for tableSize < total*2 {
		tableSize *= 2
	}
	idx.mask = uint64(tableSize - 1)
	idx.head = make([]int32, tableSize)
	idx.next = make([]int32, total)
	for e := total - 1; e >= 0; e-- {
		slot := idx.hashes[e] & idx.mask
		idx.next[e] = idx.head[slot]
		idx.head[slot] = int32(e + 1)
	}
	indexBytes := int64(total)*(8+4+4+4) + int64(tableSize)*4
	if reserve := js.opts.MemReserve; reserve != nil {
		if err := reserve(indexBytes); err != nil {
			return nil, err
		}
	}
	idx.bytes += indexBytes
	return idx, nil
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
	entries := int64(len(idx.hashes))
	fold.SetAttr("build_rows", entries)
	fold.SetAttr("table_bytes", idx.bytes)
	if ct := opts.Counters; ct != nil {
		ct.JoinFolds.Add(1)
		ct.JoinBuildRows.Add(entries)
		raiseMax(&ct.JoinTableMaxBytes, idx.bytes)
	}
	return idx, fold, nil
}

// mkProber stages one probe pipeline over the sealed index: a batchSink
// probing each live row and packing matches into sink. All scratch
// (packer, row buffer, key getters, hashes) is per-prober, so one prober
// serves one serial run or one probe-morsel scan invocation. psp and the
// join counters accumulate the matches atomically across concurrent
// probers.
func (js *joinState) mkProber(idx *joinIndex, psp *trace.Span, sink batchSink) (probe batchSink, pk *vec.Packer) {
	pk = vec.NewPacker(js.lw+js.rw, js.opts.BatchSize, nil, sink)
	buf := make([]values.Value, js.lw+js.rw)
	gets, cols := newGetters(js.lKeys), make([]*vec.Col, len(js.lKeys))
	var kh keyHasher
	// keysEqual verifies a hash match key by key, typed where both
	// columns are (colValEqual boxes only boxed or mixed columns).
	keysEqual := func(i int, rb *vec.Batch, ri int) bool {
		for j, at := range js.rKeyAt {
			if !colValEqual(cols[j], i, &rb.Cols[at], ri) {
				return false
			}
		}
		return true
	}
	probe = func(b *vec.Batch) error {
		if err := getCols(gets, b, cols); err != nil {
			return err
		}
		kh.hash(cols, b)
		var delta int64
		for k, cnt := 0, b.Len(); k < cnt; k++ {
			if !kh.nonNull[k] {
				continue
			}
			h, i := kh.sums[k], b.Index(k)
			filled := false
			for e := idx.head[h&idx.mask]; e != 0; e = idx.next[e-1] {
				ei := e - 1
				if idx.hashes[ei] != h {
					continue
				}
				rb, ri := &idx.retained[idx.batch[ei]], int(idx.row[ei])
				if !keysEqual(i, rb, ri) {
					continue
				}
				if !filled {
					fillRow(b, i, buf[:js.lw])
					filled = true
				}
				for s := 0; s < js.rw; s++ {
					buf[js.lw+s] = rb.Cols[s].Value(ri)
				}
				delta++
				if err := pk.Add(buf); err != nil {
					return err
				}
			}
		}
		if delta != 0 {
			psp.AddRows(delta)
			if ct := js.opts.Counters; ct != nil {
				ct.JoinProbeRows.Add(delta)
			}
		}
		return nil
	}
	return probe, pk
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
		probe, pk := js.mkProber(idx, psp, sink)
		err = js.l.run(probe)
		if err == nil {
			err = pk.Flush()
		}
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
			probe, pk := js.mkProber(idx, psp, sink)
			if perr := pscan(lo, hi, probe); perr != nil {
				return perr
			}
			return pk.Flush()
		}, n, true
	}
	return cp
}
