package rawcsv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"vida/internal/faultinject"
	"vida/internal/sdg"
	"vida/internal/values"
	"vida/internal/vec"
)

// This file implements the vectorized access path of the CSV plugin: the
// JIT executor's BatchSource and RangeBatchSource contracts. Once the
// positional map covers the requested columns, a scan fills whole column
// vectors per batch — int/float/string fields parse straight from the
// file bytes into typed slices, with no values.Value boxing anywhere on
// the path — and arbitrary row ranges can be served concurrently, which
// is what the JIT's morsel-parallel scheduler partitions over.

// colTag maps a schema kind to its batch column representation.
func colTag(k sdg.TypeKind) vec.Tag {
	switch k {
	case sdg.TInt:
		return vec.Int64
	case sdg.TFloat:
		return vec.Float64
	case sdg.TString:
		return vec.Str
	default:
		return vec.Boxed // bools and exotic kinds stay boxed
	}
}

// rowConverter is the shared per-row conversion scratch of the
// vectorized scan loops (full, anchored and range): the caller fills
// raws — one byte slice per requested column — then convert parses them
// per the column tags and commit appends the row to a batch. A row is
// committed only when every field converted, so malformed rows never
// leave partial column entries.
type rowConverter struct {
	rd     *Reader
	cols   []int
	tags   []vec.Tag
	raws   [][]byte
	ints   []int64
	floats []float64
	strs   []string
	boxed  []values.Value
	nulls  []bool
}

func (r *Reader) newRowConverter(cols []int, tags []vec.Tag) *rowConverter {
	return &rowConverter{
		rd: r, cols: cols, tags: tags,
		raws:   make([][]byte, len(cols)),
		ints:   make([]int64, len(cols)),
		floats: make([]float64, len(cols)),
		strs:   make([]string, len(cols)),
		boxed:  make([]values.Value, len(cols)),
		nulls:  make([]bool, len(cols)),
	}
}

// convert parses the filled raws; false flags a malformed row (the
// scratch is then meaningless and nothing may be committed).
func (c *rowConverter) convert() bool {
	for i, j := range c.cols {
		raw := c.raws[i]
		if string(raw) == c.rd.nullTok { // comparison only: no allocation
			c.nulls[i] = true
			continue
		}
		c.nulls[i] = false
		switch c.tags[i] {
		case vec.Int64:
			v, ok := parseIntBytes(raw)
			if !ok {
				return false
			}
			c.ints[i] = v
		case vec.Float64:
			v, ok := parseFloatBytes(raw)
			if !ok {
				return false
			}
			c.floats[i] = v
		case vec.Str:
			c.strs[i] = string(raw)
		default:
			v, ok := boxField(c.rd.rowType.Attrs[j].Type.Kind, raw)
			if !ok {
				return false
			}
			c.boxed[i] = v
		}
	}
	return true
}

// fill points raws at the row's spans and converts them.
func (c *rowConverter) fill(line []byte, spanS, spanE []int32) bool {
	for i := range c.raws {
		c.raws[i] = line[spanS[i]:spanE[i]]
	}
	return c.convert()
}

// commit appends the converted row across the batch's columns and
// advances its row count (valid only after convert returned true).
func (c *rowConverter) commit(b *vec.Batch) {
	for i := range c.cols {
		col := &b.Cols[i]
		if c.nulls[i] {
			col.AppendNull()
			continue
		}
		switch c.tags[i] {
		case vec.Int64:
			col.AppendInt(c.ints[i])
		case vec.Float64:
			col.AppendFloat(c.floats[i])
		case vec.Str:
			col.AppendStr(c.strs[i])
		default:
			col.AppendValue(c.boxed[i])
		}
	}
	b.N++
}

// IterateBatches implements the JIT's BatchSource contract, and is the
// reader's one scan: Iterate lowers it to records. With the positional
// map covering the fields it runs the typed jump scan over all rows;
// otherwise it tokenizes — every row on first touch, forward from the
// nearest mapped column once rows are indexed — installing what it
// located in the map as a side effect.
func (r *Reader) IterateBatches(fields []string, batchSize int, yield func(*vec.Batch) error) error {
	cols, err := r.resolveFields(fields)
	if err != nil {
		return err
	}
	if batchSize <= 0 {
		batchSize = vec.DefaultBatchSize
	}
	if scan, n, ok := r.openRangeCols(cols); ok {
		return scan(0, n, batchSize, yield)
	}
	// Cold or partially mapped: tokenize, and install what is located. The
	// scan takes no lock across its yields, so it never waits on another
	// scan's consumer — the two scans of a self-join run side by side in
	// the static executor, and a stalled cursor holds only its own scan.
	// Scans that overlap build the same positions from the same bytes, so
	// whichever installs last installs what the other would have.
	yield = injectCSVFaults(yield)
	// This scan pays the tokenizing build (it installs the positional map
	// as a side effect); record its cost so tracing can attribute it.
	start := time.Now()
	defer func() {
		r.stats.Builds.Add(1)
		r.stats.BuildNanos.Add(int64(time.Since(start)))
	}()
	if snap := r.pm.Snapshot(); len(snap.Rows) > 0 {
		return r.iterateAnchoredBatches(&snap, cols, batchSize, yield)
	}
	return r.iterateFullBatches(cols, batchSize, yield)
}

// injectCSVFaults interposes the chaos points on a batch yield:
// CSVSlowRead (delay faults — a slow disk mid-scan) and CSVRead (read
// errors — a truncated file, an I/O fault) fire once per delivered
// batch. Both are single disarmed atomic loads in production.
func injectCSVFaults(yield func(*vec.Batch) error) func(*vec.Batch) error {
	return func(b *vec.Batch) error {
		if err := faultinject.Hit(faultinject.CSVSlowRead); err != nil {
			return err
		}
		if err := faultinject.Hit(faultinject.CSVRead); err != nil {
			return err
		}
		return yield(b)
	}
}

// iterateAnchoredBatches serves a scan whose rows are indexed but whose
// columns are only partly mapped: mapped columns jump straight to their
// bytes, unmapped ones tokenize forward from the nearest anchor — the
// nearest mapped column to their left, or a just-parsed requested column
// — instead of from the row start (the positional map's "distance" term,
// paper §5 / NoDB). Newly located columns are installed in the map, so
// the next scan jumps everywhere.
func (r *Reader) iterateAnchoredBatches(snap *Snapshot, cols []int, batchSize int, yield func(*vec.Batch) error) error {
	r.stats.PosmapScans.Add(1)
	type colPlan struct {
		col          int
		out          int     // position in cols / batch
		starts       []int32 // non-nil: mapped, jump directly
		ends         []int32
		anchorStarts []int32 // for unmapped: nearest mapped anchor's starts (nil = row start)
		anchorCol    int     // field index of that anchor (0 with nil starts = row start)
	}
	// Process columns in ascending file order so the tokenizing cursor
	// only ever moves forward within a row.
	order := make([]int, len(cols))
	for i := range order {
		order[i] = i
	}
	sortByCol(order, cols)
	plans := make([]colPlan, 0, len(cols))
	nMapped := 0
	for _, i := range order {
		j := cols[i]
		p := colPlan{col: j, out: i}
		if s := snap.Cols[j]; s != nil {
			p.starts, p.ends = s, snap.Ends[j]
			nMapped++
		} else {
			best := -1
			for a, s := range snap.Cols {
				if a < j && a > best && s != nil {
					best = a
				}
			}
			if best >= 0 {
				p.anchorCol, p.anchorStarts = best, snap.Cols[best]
			}
		}
		plans = append(plans, p)
	}
	tags := r.colTags(cols)
	b := vec.NewTyped(tags, min(batchSize, len(snap.Rows)))

	// Span arrays of the unmapped columns, sized for every indexed row:
	// a column some row is too short for is refused by SetCol anyway.
	newStarts := make([][]int32, len(cols))
	newEnds := make([][]int32, len(cols))
	for _, p := range plans {
		if p.starts == nil {
			newStarts[p.out] = make([]int32, 0, len(snap.Rows))
			newEnds[p.out] = make([]int32, 0, len(snap.Rows))
		}
	}
	spanS := make([]int32, len(cols))
	spanE := make([]int32, len(cols))
	rc := r.newRowConverter(cols, tags)

	data := r.data
	delim := r.delim
	committed := 0
	tokenized := 0
	for row := 0; row < len(snap.Rows); row++ {
		line, _ := nextLine(data, snap.Rows[row])
		bad := false
		// Locate every requested column's span, advancing a forward-only
		// cursor for the unmapped ones. A located span is recorded for the
		// map whether or not its row converts: spans are positional.
		curField, curAt := 0, 0
		for _, p := range plans {
			if p.starts != nil {
				spanS[p.out] = p.starts[row]
				spanE[p.out] = p.ends[row]
				continue
			}
			f, at := curField, curAt
			if p.anchorStarts != nil && p.anchorCol >= f {
				f, at = p.anchorCol, int(p.anchorStarts[row])
			}
			for f < p.col {
				d := nextDelim(line, at, delim)
				if d == len(line) {
					bad = true // row ends before the column
					break
				}
				at = d + 1
				f++
				tokenized++
			}
			if bad {
				break
			}
			spanS[p.out] = int32(at)
			spanE[p.out] = int32(nextDelim(line, at, delim))
			newStarts[p.out] = append(newStarts[p.out], spanS[p.out])
			newEnds[p.out] = append(newEnds[p.out], spanE[p.out])
			curField, curAt = p.col, at
			tokenized++
		}
		if bad || !rc.fill(line, spanS, spanE) {
			r.stats.RowsSkipped.Add(1)
			if r.policy == FailOnBadRows {
				return fmt.Errorf("rawcsv: %s: malformed row %d", r.desc.Name, row)
			}
			continue
		}
		rc.commit(b)
		committed++
		if b.N >= batchSize {
			if err := yield(b); err != nil {
				return err
			}
			b.Reset()
		}
	}
	r.stats.FieldsTokenized.Add(int64(tokenized))
	r.stats.FieldsJumped.Add(int64(committed * nMapped))
	for _, p := range plans {
		if p.starts == nil {
			r.pm.SetCol(p.col, newStarts[p.out], newEnds[p.out])
		}
	}
	if b.N > 0 {
		return yield(b)
	}
	return nil
}

// sortByCol orders index positions by ascending schema column.
func sortByCol(order, cols []int) {
	for i := 1; i < len(order); i++ {
		for k := i; k > 0 && cols[order[k]] < cols[order[k-1]]; k-- {
			order[k], order[k-1] = order[k-1], order[k]
		}
	}
}

// colTags is the batch representation of each requested column.
func (r *Reader) colTags(cols []int) []vec.Tag {
	tags := make([]vec.Tag, len(cols))
	for i, j := range cols {
		tags[i] = colTag(r.rowType.Attrs[j].Type.Kind)
	}
	return tags
}

// nextLine returns the line starting at off, without its newline, and
// the offset of the line after it.
func nextLine(data []byte, off int64) (line []byte, next int64) {
	if i := bytes.IndexByte(data[off:], '\n'); i >= 0 {
		return data[off : off+int64(i)], off + int64(i) + 1
	}
	return data[off:], int64(len(data))
}

// outPositions inverts a column list for fieldSpans: outPos maps a schema
// column to its position in cols (-1 when not listed), maxCol is the
// highest listed column (-1 for an empty list).
func (r *Reader) outPositions(cols []int) (outPos []int, maxCol int) {
	outPos = make([]int, len(r.rowType.Attrs))
	for i := range outPos {
		outPos[i] = -1
	}
	maxCol = -1
	for i, j := range cols {
		outPos[j] = i
		if j > maxCol {
			maxCol = j
		}
	}
	return outPos, maxCol
}

// fieldSpans is the row tokenizer of the first-touch scan and of the
// append path: it walks line up to column maxCol and stores the
// [start,end) span of every listed column it passes at that column's
// position in spanS/spanE. It returns how many fields it passed: the
// listed columns below that count were found, a short row leaves the
// others untouched.
func (r *Reader) fieldSpans(line []byte, outPos []int, maxCol int, spanS, spanE []int32) (reached int) {
	col, start := 0, 0
	for {
		end := nextDelim(line, start, r.delim)
		if col < len(outPos) {
			if p := outPos[col]; p >= 0 {
				spanS[p], spanE[p] = int32(start), int32(end)
			}
		}
		col++
		if end == len(line) || col > maxCol {
			return col
		}
		start = end + 1
	}
}

// SWAR constants: one in every byte's low bit, and every byte's low seven
// bits.
const (
	lsbs = 0x0101010101010101
	low7 = 0x7f7f7f7f7f7f7f7f
)

// nextDelim returns the index of the first delim in line at or after i,
// or len(line) when there is none. It is the one delimiter finder of the
// tokenizing scans, and tests eight bytes a step: x = word ^ delim·lsbs
// has a zero byte exactly where the word holds delim, and
// ((x&low7)+low7)|x|low7 sets every byte's top bit except a zero byte's.
// No sum carries out of its byte, so a hit is never false — unlike the
// (x-lsbs)&^x test, whose borrows flag the byte after a delimiter when it
// holds delim^1 (",-").
func nextDelim(line []byte, i int, delim byte) int {
	pat := uint64(delim) * lsbs
	for ; i+8 <= len(line); i += 8 {
		x := binary.LittleEndian.Uint64(line[i:]) ^ pat
		if m := ^(((x & low7) + low7) | x | low7); m != 0 {
			return i + bits.TrailingZeros64(m)>>3
		}
	}
	for ; i < len(line); i++ {
		if line[i] == delim {
			return i
		}
	}
	return len(line)
}

// OpenRange implements the JIT's RangeBatchSource contract: ok only when
// the positional map already covers the requested columns (a cold file
// is first tokenized by IterateBatches, whose chunked first touch
// learns the row numbers ranges are cut by). The returned scan is safe for
// concurrent calls over disjoint ranges — it reads a one-time snapshot of
// the positional map and each call allocates its own batch.
func (r *Reader) OpenRange(fields []string) (func(lo, hi, batchSize int, yield func(*vec.Batch) error) error, int, bool) {
	cols, err := r.resolveFields(fields)
	if err != nil {
		return nil, 0, false
	}
	return r.openRangeCols(cols)
}

func (r *Reader) openRangeCols(cols []int) (func(lo, hi, batchSize int, yield func(*vec.Batch) error) error, int, bool) {
	snap := r.pm.Snapshot()
	if len(snap.Rows) == 0 || !snap.HasCols(cols) {
		return nil, 0, false
	}
	starts := make([][]int32, len(cols))
	ends := make([][]int32, len(cols))
	for i, j := range cols {
		starts[i], ends[i] = snap.Cols[j], snap.Ends[j]
	}
	tags := r.colTags(cols)
	data := r.data
	rows := snap.Rows
	var once sync.Once // stats count one logical scan, however many morsels
	scan := func(lo, hi, batchSize int, yield func(*vec.Batch) error) error {
		once.Do(func() { r.stats.PosmapScans.Add(1) })
		yield = injectCSVFaults(yield)
		if batchSize <= 0 {
			batchSize = vec.DefaultBatchSize
		}
		capRows := hi - lo
		if capRows > batchSize {
			capRows = batchSize
		}
		b := vec.NewTyped(tags, capRows)
		// Per-row scratch, allocated per scan call so concurrent morsels
		// never share it; a row commits to the column vectors only after
		// every requested field converted.
		rc := r.newRowConverter(cols, tags)
		for row := lo; row < hi; row++ {
			base := rows[row]
			for i := range cols {
				rc.raws[i] = data[base+int64(starts[i][row]) : base+int64(ends[i][row])]
			}
			if !rc.convert() {
				r.stats.RowsSkipped.Add(1)
				if r.policy == FailOnBadRows {
					return fmt.Errorf("rawcsv: %s: malformed row %d", r.desc.Name, row)
				}
				continue
			}
			rc.commit(b)
			if b.N >= batchSize {
				if err := yield(b); err != nil {
					return err
				}
				b.Reset()
			}
		}
		r.stats.FieldsJumped.Add(int64((hi - lo) * len(cols)))
		if b.N > 0 {
			return yield(b)
		}
		return nil
	}
	return scan, len(rows), true
}
