package cache

import (
	"fmt"

	"vida/internal/colenc"
	"vida/internal/values"
	"vida/internal/vec"
)

// MemReserver is the slice of the engine's memory governor the decode
// path needs: encoded scans reserve their decode scratch against the
// budget for the duration of the scan.
type MemReserver interface {
	Reserve(n int64) error
	Release(n int64)
}

// ColumnsSource serves a columnar cache entry through the batch scan
// contract: slice windows of the typed column vectors, zero-copy (the
// cheapest access path in the engine). Encoded-tier entries decode per
// block on demand instead: dictionary string columns come back as
// vec.StrDict windows, which the JIT filters on codes. Iterate is the
// record view of the same batches, for callers that hold an
// algebra.Source.
type ColumnsSource struct {
	Entry   *Entry
	Dataset string
	// Mgr, when set, tallies decoded blocks into the manager's counters.
	Mgr *Manager
	// Mem, when set, charges decode scratch to the memory governor.
	Mem MemReserver
}

// Name implements algebra.Source.
func (s *ColumnsSource) Name() string { return s.Dataset }

// Iterate implements algebra.Source by boxing the rows of IterateBatches.
func (s *ColumnsSource) Iterate(fields []string, yield func(values.Value) error) error {
	fields = s.fieldList(fields)
	return s.IterateBatches(fields, vec.DefaultBatchSize, func(b *vec.Batch) error {
		return vec.BoxRecords(b, fields, yield)
	})
}

// fieldList defaults empty field requests to every resident column, in
// sorted order.
func (s *ColumnsSource) fieldList(fields []string) []string {
	if len(fields) > 0 {
		return fields
	}
	return s.Entry.ColumnNames()
}

// resolveCols maps requested fields (all cached fields when empty, in
// sorted order) to the entry's column vectors.
func (s *ColumnsSource) resolveCols(fields []string) ([]vec.Col, error) {
	fields = s.fieldList(fields)
	cols := make([]vec.Col, len(fields))
	for i, f := range fields {
		col, ok := s.Entry.Cols[f]
		if !ok {
			return nil, fmt.Errorf("cache: column %q not resident for %s", f, s.Dataset)
		}
		cols[i] = col
	}
	return cols, nil
}

// resolveEnc maps requested fields to the entry's encoded columns.
func (s *ColumnsSource) resolveEnc(fields []string) ([]*colenc.Col, error) {
	fields = s.fieldList(fields)
	cols := make([]*colenc.Col, len(fields))
	for i, f := range fields {
		col, ok := s.Entry.Enc.Cols[f]
		if !ok {
			return nil, fmt.Errorf("cache: column %q not resident for %s", f, s.Dataset)
		}
		cols[i] = col
	}
	return cols, nil
}

// IterateBatches implements the JIT's BatchSource contract: batches are
// slice windows into the cached typed vectors — zero copies, no boxing.
// Consumers must treat column storage as immutable (they do: filters
// refine the selection vector instead of compacting). Encoded entries
// serve decoded block windows instead.
func (s *ColumnsSource) IterateBatches(fields []string, batchSize int, yield func(*vec.Batch) error) error {
	if s.Entry.Enc != nil {
		cols, err := s.resolveEnc(fields)
		if err != nil {
			return err
		}
		return s.encodedScan(cols)(0, s.Entry.N, batchSize, yield)
	}
	cols, err := s.resolveCols(fields)
	if err != nil {
		return err
	}
	return s.rangeScan(cols)(0, s.Entry.N, batchSize, yield)
}

// OpenRange implements the JIT's RangeBatchSource contract. Columnar
// entries can always serve arbitrary row ranges; morsels over encoded
// entries decode only the blocks their range touches.
func (s *ColumnsSource) OpenRange(fields []string) (func(lo, hi, batchSize int, yield func(*vec.Batch) error) error, int, bool) {
	if s.Entry.Enc != nil {
		cols, err := s.resolveEnc(fields)
		if err != nil {
			return nil, 0, false
		}
		return s.encodedScan(cols), s.Entry.N, true
	}
	cols, err := s.resolveCols(fields)
	if err != nil {
		return nil, 0, false
	}
	return s.rangeScan(cols), s.Entry.N, true
}

// encodedScan returns a range scanner over encoded columns. Each call
// of the returned function owns its decode buffers (morsel workers scan
// disjoint ranges concurrently), decodes each touched block once, and
// yields sliced windows. Batches are not Stable: the buffers are reused
// when the scan moves to the next block, so consumers that retain rows
// copy them — exactly the contract raw-file scans already impose.
func (s *ColumnsSource) encodedScan(cols []*colenc.Col) func(lo, hi, batchSize int, yield func(*vec.Batch) error) error {
	return func(lo, hi, batchSize int, yield func(*vec.Batch) error) error {
		if batchSize <= 0 {
			batchSize = vec.DefaultBatchSize
		}
		dec := make([]vec.Col, len(cols))
		b := &vec.Batch{Cols: make([]vec.Col, len(cols))}
		cur := -1
		var reserved int64
		if s.Mem != nil {
			defer func() { s.Mem.Release(reserved) }()
		}
		for o := lo; o < hi; {
			bi := o / colenc.BlockRows
			blkStart := bi * colenc.BlockRows
			blkEnd := blkStart + colenc.BlockRows
			if blkEnd > s.Entry.N {
				blkEnd = s.Entry.N
			}
			if bi != cur {
				for i, c := range cols {
					if err := c.DecodeBlock(bi, &dec[i]); err != nil {
						return err
					}
				}
				cur = bi
				s.Mgr.noteDecodedBlocks(int64(len(cols)))
				if s.Mem != nil {
					var sz int64
					for i := range dec {
						sz += dec[i].SizeBytes()
					}
					if sz > reserved {
						if err := s.Mem.Reserve(sz - reserved); err != nil {
							return err
						}
						reserved = sz
					}
				}
			}
			end := o + batchSize
			if end > blkEnd {
				end = blkEnd
			}
			if end > hi {
				end = hi
			}
			for i := range dec {
				b.Cols[i] = dec[i].Slice(o-blkStart, end-blkStart)
			}
			b.N = end - o
			b.Sel = nil
			if err := yield(b); err != nil {
				return err
			}
			o = end
		}
		return nil
	}
}

func (s *ColumnsSource) rangeScan(cols []vec.Col) func(lo, hi, batchSize int, yield func(*vec.Batch) error) error {
	return func(lo, hi, batchSize int, yield func(*vec.Batch) error) error {
		if batchSize <= 0 {
			batchSize = vec.DefaultBatchSize
		}
		b := &vec.Batch{Cols: make([]vec.Col, len(cols)), Stable: true}
		for o := lo; o < hi; o += batchSize {
			end := o + batchSize
			if end > hi {
				end = hi
			}
			for i := range cols {
				b.Cols[i] = cols[i].Slice(o, end)
			}
			b.N = end - o
			b.Sel = nil
			if err := yield(b); err != nil {
				return err
			}
		}
		return nil
	}
}
