package rawcsv

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"vida/internal/sdg"
	"vida/internal/values"
)

// ErrorPolicy selects what happens when a row fails to parse (paper §7,
// data cleaning): skip it silently (recording it in Stats) or abort.
type ErrorPolicy uint8

// The error policies.
const (
	SkipBadRows ErrorPolicy = iota
	FailOnBadRows
)

// Stats counts the work a reader has done; the optimizer's CSV wrapper and
// the experiment harness read these.
type Stats struct {
	FullScans       atomic.Int64 // scans that tokenized whole rows
	PosmapScans     atomic.Int64 // scans served via positional map jumps
	FieldsTokenized atomic.Int64 // individual fields tokenized
	FieldsJumped    atomic.Int64 // individual fields located via posmap
	RowsSkipped     atomic.Int64 // malformed rows skipped
	BytesRead       atomic.Int64
	Builds          atomic.Int64 // tokenizing first-touch builds of the positional map
	BuildNanos      atomic.Int64 // wall time spent in those builds
}

// fileState is one immutable generation of the file: its bytes, their
// modification time and the positional map built over exactly those
// bytes. Scans load the pointer once and use a single generation
// throughout, so a concurrent Refresh can never hand a scan offsets
// into bytes they were not computed from.
//
// A generation that Refresh derived from its predecessor by an append
// (append.go) shares storage with it: data, the row index and the column
// offsets may be the predecessor's arrays, longer. That is sound because
// nothing published is ever written below its length — the older
// generation reads only its own prefix — and because every generation
// has exactly one successor (Refresh is serialized and always extends
// the current one).
type fileState struct {
	data  []byte
	mtime time.Time
	pm    *PosMap

	// crc memoizes the content checksum behind Generation: computed on
	// first demand, and carried over the tail by an appending Refresh.
	crcMu sync.Mutex
	crcOK bool
	crc   uint32
}

// Reader provides query access to one raw CSV file. It implements
// algebra.Source. Readers are safe for concurrent scans and for scans
// concurrent with Refresh.
type Reader struct {
	desc    *sdg.Description
	rowType *sdg.Type
	delim   byte
	header  bool
	policy  ErrorPolicy
	nullTok string
	state   atomic.Pointer[fileState]
	// buildMu single-flights the tokenizing first-touch scan of the
	// vectorized path: concurrent cold queries wait for one build and
	// then jump through the freshly installed positional map instead of
	// each re-tokenizing the whole file.
	buildMu sync.Mutex
	stats   Stats
	colIdx  map[string]int
	// refreshMu serializes Refresh, so each generation is extended at
	// most once (see fileState).
	refreshMu sync.Mutex
}

// Open loads the CSV file described by desc. Options honored (from
// desc.Options): "delim" (single character, default ","), "header"
// ("true"/"false", default "true"), "null" (token treated as null,
// default empty string), "onerror" ("skip"/"fail", default "skip").
func Open(desc *sdg.Description) (*Reader, error) {
	if err := desc.Validate(); err != nil {
		return nil, err
	}
	if desc.Format != sdg.FormatCSV {
		return nil, fmt.Errorf("rawcsv: %s is not a CSV source", desc.Name)
	}
	data, err := os.ReadFile(desc.Path)
	if err != nil {
		return nil, fmt.Errorf("rawcsv: %s: %w", desc.Name, err)
	}
	fi, err := os.Stat(desc.Path)
	if err != nil {
		return nil, err
	}
	r := &Reader{
		desc:    desc,
		rowType: desc.RowType(),
		delim:   ',',
		header:  true,
		nullTok: "",
		colIdx:  map[string]int{},
	}
	r.state.Store(&fileState{data: data, mtime: fi.ModTime(), pm: NewPosMap()})
	if d := desc.Option("delim", ","); len(d) == 1 {
		r.delim = d[0]
	}
	if desc.Option("header", "true") == "false" {
		r.header = false
	}
	r.nullTok = desc.Option("null", "")
	if desc.Option("onerror", "skip") == "fail" {
		r.policy = FailOnBadRows
	}
	for i, a := range r.rowType.Attrs {
		r.colIdx[a.Name] = i
	}
	return r, nil
}

// Name implements algebra.Source.
func (r *Reader) Name() string { return r.desc.Name }

// PosMap exposes the positional map (for the optimizer's cost model and
// the experiments). It belongs to the current file generation; Refresh
// installs a new one — extended from this one after an append, empty
// after any other change.
func (r *Reader) PosMap() *PosMap { return r.state.Load().pm }

// StatsSnapshot returns a copy of the counters.
func (r *Reader) StatsSnapshot() map[string]int64 {
	return map[string]int64{
		"full_scans":       r.stats.FullScans.Load(),
		"posmap_scans":     r.stats.PosmapScans.Load(),
		"fields_tokenized": r.stats.FieldsTokenized.Load(),
		"fields_jumped":    r.stats.FieldsJumped.Load(),
		"rows_skipped":     r.stats.RowsSkipped.Load(),
		"bytes_read":       r.stats.BytesRead.Load(),
		"builds":           r.stats.Builds.Load(),
		"build_nanos":      r.stats.BuildNanos.Load(),
	}
}

// BuildStats returns the cumulative count and wall time of tokenizing
// first-touch builds. The engine's tracer diffs it around a scan to
// attribute positional-map construction to the query that paid for it.
func (r *Reader) BuildStats() (builds, nanos int64) {
	return r.stats.Builds.Load(), r.stats.BuildNanos.Load()
}

// SizeBytes returns the raw file size.
func (r *Reader) SizeBytes() int64 { return int64(len(r.state.Load().data)) }

// ChangeKind classifies what Refresh found on disk.
type ChangeKind uint8

// The outcomes of a Refresh.
const (
	Unchanged ChangeKind = iota
	// Appended: the file is the previous generation plus a tail. The
	// reader kept its bytes and extended its positional map by the tail.
	Appended
	// Replaced: anything else. The file was re-read and the positional
	// map dropped (paper §2.1: "Updates to the underlying files result in
	// dropping the auxiliary structures affected").
	Replaced
)

// Change is the result of a Refresh.
type Change struct {
	Kind ChangeKind
	// OldRows and NewRows bound the appended rows, as indexes into the new
	// generation's row index (Appended only).
	OldRows, NewRows int
	// TailBytes is the number of bytes appended (Appended only).
	TailBytes int64
	// Reason says why a changed file was not treated as an append
	// (Replaced only).
	Reason string
}

// Refresh re-checks the file and publishes a new generation if it
// changed. The decision ladder, each rung falling through to Replaced:
// the file must be strictly longer than the generation in memory; that
// generation must have a row index (otherwise there is nothing to keep)
// and end on a row boundary (otherwise the tail continues its last row);
// and the first len(data) bytes on disk must equal the bytes in memory,
// compared in full — size and mtime cannot tell an append from a rewrite
// that happens to be longer. Past the ladder the reader reads only the
// tail, tokenizes only the tail, and publishes old bytes + tail with the
// positional map extended in step; see appendGeneration.
func (r *Reader) Refresh() (Change, error) {
	r.refreshMu.Lock()
	defer r.refreshMu.Unlock()
	st := r.state.Load()
	fi, err := os.Stat(r.desc.Path)
	if err != nil {
		return Change{}, err
	}
	if fi.ModTime().Equal(st.mtime) && fi.Size() == int64(len(st.data)) {
		return Change{}, nil
	}
	next, ch, err := r.appendGeneration(st)
	if err != nil {
		return Change{}, err
	}
	if next == nil {
		data, err := os.ReadFile(r.desc.Path)
		if err != nil {
			return Change{}, err
		}
		// A new generation with a fresh (empty) positional map; scans
		// holding the old generation keep a consistent data+map pair.
		next = &fileState{data: data, mtime: fi.ModTime(), pm: NewPosMap()}
	}
	r.state.Store(next)
	return ch, nil
}

// Iterate implements algebra.Source: it streams one record per CSV row,
// containing only the requested fields (all schema fields when fields is
// empty). The first scan tokenizes rows fully and installs row starts plus
// the touched columns in the positional map; subsequent scans jump.
func (r *Reader) Iterate(fields []string, yield func(values.Value) error) error {
	cols, err := r.resolveFields(fields)
	if err != nil {
		return err
	}
	st := r.state.Load()
	if snap := st.pm.Snapshot(); len(snap.Rows) > 0 && snap.HasCols(cols) {
		return r.iteratePosmap(st, &snap, cols, yield)
	}
	return r.iterateFull(st, cols, yield)
}

// IterateRow reads a single row by index through the positional map
// (PathRowID access). It requires a prior full scan.
func (r *Reader) IterateRow(rowIdx int, fields []string) (values.Value, error) {
	st := r.state.Load()
	if !st.pm.HasRows() {
		// Force the row index build with a cheap pass that tokenizes
		// nothing but newlines.
		if err := r.buildRowIndex(st); err != nil {
			return values.Null, err
		}
	}
	if rowIdx < 0 || rowIdx >= st.pm.NumRows() {
		return values.Null, fmt.Errorf("rawcsv: row %d out of range", rowIdx)
	}
	cols, err := r.resolveFields(fields)
	if err != nil {
		return values.Null, err
	}
	start := st.pm.Row(rowIdx)
	line := lineAt(st.data, start)
	rec, ok := r.parseRow(line, cols, nil, nil)
	if !ok {
		return values.Null, fmt.Errorf("rawcsv: row %d is malformed", rowIdx)
	}
	return rec, nil
}

func (r *Reader) resolveFields(fields []string) ([]int, error) {
	if len(fields) == 0 {
		cols := make([]int, len(r.rowType.Attrs))
		for i := range cols {
			cols[i] = i
		}
		return cols, nil
	}
	cols := make([]int, len(fields))
	for i, f := range fields {
		j, ok := r.colIdx[f]
		if !ok {
			return nil, fmt.Errorf("rawcsv: %s has no attribute %q", r.desc.Name, f)
		}
		cols[i] = j
	}
	return cols, nil
}

// lineAt returns the line starting at offset (without trailing newline).
func lineAt(data []byte, off int64) []byte {
	end := bytes.IndexByte(data[off:], '\n')
	if end < 0 {
		return data[off:]
	}
	return data[off : off+int64(end)]
}

// buildRowIndex records row starts without tokenizing fields.
func (r *Reader) buildRowIndex(st *fileState) error {
	var rows []int64
	off := int64(0)
	first := true
	for off < int64(len(st.data)) {
		end := bytes.IndexByte(st.data[off:], '\n')
		var next int64
		if end < 0 {
			next = int64(len(st.data))
		} else {
			next = off + int64(end) + 1
		}
		if first && r.header {
			first = false
		} else {
			if next-off > 1 || (next-off == 1 && st.data[off] != '\n') {
				rows = append(rows, off)
			}
			first = false
		}
		off = next
	}
	st.pm.SetRows(rows)
	r.stats.BytesRead.Add(int64(len(st.data)))
	return nil
}

// iterateFull tokenizes every row, yielding projected records and
// populating the positional map for the touched columns as a side effect.
func (r *Reader) iterateFull(st *fileState, cols []int, yield func(values.Value) error) error {
	r.stats.FullScans.Add(1)
	buildRows := !st.pm.HasRows()
	var rowStarts []int64
	colStarts := make(map[int][]int32, len(cols))
	colEnds := make(map[int][]int32, len(cols))
	for _, j := range cols {
		if !st.pm.HasCol(j) {
			colStarts[j] = nil
			colEnds[j] = nil
		}
	}

	recordCols := make([]int, 0, len(colStarts))
	for j := range colStarts {
		recordCols = append(recordCols, j)
	}

	off := int64(0)
	first := true
	rowIdx := 0
	scratch := make([]fieldSpan, len(recordCols))
	data := st.data
	for off < int64(len(data)) {
		nl := bytes.IndexByte(data[off:], '\n')
		var next int64
		var lineEnd int64
		if nl < 0 {
			next = int64(len(data))
			lineEnd = next
		} else {
			next = off + int64(nl) + 1
			lineEnd = next - 1
		}
		line := data[off:lineEnd]
		if first && r.header {
			first = false
			off = next
			continue
		}
		first = false
		if len(line) == 0 {
			off = next
			continue
		}
		// The row index covers every data line — a row malformed for this
		// column set is still a row (other columns may parse fine), so it
		// is indexed even when skipped from the yield.
		if buildRows {
			rowStarts = append(rowStarts, off)
		}
		rec, ok := r.parseRow(line, cols, recordCols, scratch)
		if !ok {
			r.stats.RowsSkipped.Add(1)
			if r.policy == FailOnBadRows {
				return fmt.Errorf("rawcsv: %s: malformed row at byte %d", r.desc.Name, off)
			}
			off = next
			continue
		}
		// Commit positions only after the whole row parsed cleanly, so a
		// malformed row can never leave a partial entry in the map.
		for i, j := range recordCols {
			colStarts[j] = append(colStarts[j], scratch[i].start)
			colEnds[j] = append(colEnds[j], scratch[i].end)
		}
		if err := yield(rec); err != nil {
			return err
		}
		rowIdx++
		off = next
	}
	r.stats.BytesRead.Add(int64(len(data)))
	if buildRows {
		st.pm.SetRows(rowStarts)
	}
	// Install a column only when its offsets cover every indexed row —
	// misaligned offsets would silently corrupt later posmap jumps. (The
	// record path records spans only for fully-parsed rows, so any
	// skipped row blocks installation; the batch scans are finer-grained.)
	for j, starts := range colStarts {
		if len(starts) == st.pm.NumRows() {
			st.pm.SetCol(j, starts, colEnds[j])
		}
	}
	return nil
}

// fieldSpan is the [start,end) byte range of a field within its row.
type fieldSpan struct{ start, end int32 }

// parseRow tokenizes a row, converting only the requested columns.
// recordCols lists columns whose spans must be captured into scratch
// (parallel to recordCols). ok=false flags a malformed row (wrong arity or
// conversion failure); scratch contents are then meaningless.
func (r *Reader) parseRow(line []byte, cols, recordCols []int, scratch []fieldSpan) (values.Value, bool) {
	need := make(map[int]int, len(cols)) // col -> position in output
	maxCol := -1
	for i, j := range cols {
		need[j] = i
		if j > maxCol {
			maxCol = j
		}
	}
	recIdx := make(map[int]int, len(recordCols))
	for i, j := range recordCols {
		recIdx[j] = i
		if j > maxCol {
			maxCol = j
		}
	}
	fields := make([]values.Field, len(cols))
	found := 0
	col := 0
	start := 0
	for i := 0; i <= len(line); i++ {
		if i != len(line) && line[i] != r.delim {
			continue
		}
		if col < len(r.rowType.Attrs) {
			if k, ok := recIdx[col]; ok {
				scratch[k] = fieldSpan{start: int32(start), end: int32(i)}
			}
			if outIdx, ok := need[col]; ok {
				r.stats.FieldsTokenized.Add(1)
				v, ok := r.convert(col, line[start:i])
				if !ok {
					return values.Null, false
				}
				fields[outIdx] = values.Field{Name: r.rowType.Attrs[col].Name, Val: v}
				found++
			}
		}
		col++
		start = i + 1
		if col > maxCol {
			break
		}
	}
	if found < len(cols) {
		// Row has fewer fields than the needed columns.
		return values.Null, false
	}
	return values.NewRecord(fields...), true
}

// iteratePosmap serves a scan entirely from recorded positions: no row
// tokenization, just direct jumps to the needed fields. It reads the
// positional map through a snapshot taken once per scan — the hot loop
// never touches the map's lock.
func (r *Reader) iteratePosmap(st *fileState, snap *Snapshot, cols []int, yield func(values.Value) error) error {
	r.stats.PosmapScans.Add(1)
	data := st.data
	n := len(snap.Rows)
	type colRef struct {
		out    int
		starts []int32
		ends   []int32
		name   string
		col    int
	}
	refs := make([]colRef, len(cols))
	for i, j := range cols {
		refs[i] = colRef{out: i, starts: snap.Cols[j], ends: snap.Ends[j], name: r.rowType.Attrs[j].Name, col: j}
	}
	for row := 0; row < n; row++ {
		base := snap.Rows[row]
		fields := make([]values.Field, len(cols))
		bad := false
		for _, ref := range refs {
			s := base + int64(ref.starts[row])
			e := base + int64(ref.ends[row])
			r.stats.FieldsJumped.Add(1)
			v, ok := r.convert(ref.col, data[s:e])
			if !ok {
				bad = true
				break
			}
			fields[ref.out] = values.Field{Name: ref.name, Val: v}
		}
		if bad {
			r.stats.RowsSkipped.Add(1)
			if r.policy == FailOnBadRows {
				return fmt.Errorf("rawcsv: %s: malformed row %d", r.desc.Name, row)
			}
			continue
		}
		if err := yield(values.NewRecord(fields...)); err != nil {
			return err
		}
	}
	return nil
}

// convert parses the raw bytes of column col per its schema type. It
// allocates only for string columns (the value must outlive the scan);
// numeric and boolean conversions work on the bytes in place.
func (r *Reader) convert(col int, raw []byte) (values.Value, bool) {
	if string(raw) == r.nullTok { // comparison only: no allocation
		return values.Null, true
	}
	switch r.rowType.Attrs[col].Type.Kind {
	case sdg.TInt:
		n, ok := parseIntBytes(raw)
		if !ok {
			return values.Null, false
		}
		return values.NewInt(n), true
	case sdg.TFloat:
		f, ok := parseFloatBytes(raw)
		if !ok {
			return values.Null, false
		}
		return values.NewFloat(f), true
	case sdg.TBool:
		switch string(raw) {
		case "true", "TRUE", "1", "t":
			return values.True, true
		case "false", "FALSE", "0", "f":
			return values.False, true
		}
		return values.Null, false
	default:
		return values.NewString(string(raw)), true
	}
}

// parseIntBytes parses a base-10 int64 from raw bytes with the same
// accepted syntax as strconv.ParseInt(s, 10, 64), without converting to a
// string first.
func parseIntBytes(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	switch b[0] {
	case '+':
		b = b[1:]
	case '-':
		neg = true
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		d := c - '0'
		if d > 9 {
			return 0, false
		}
		if n > (math.MaxUint64-uint64(d))/10 {
			return 0, false
		}
		n = n*10 + uint64(d)
	}
	if neg {
		if n > 1<<63 {
			return 0, false
		}
		return -int64(n), true
	}
	if n > 1<<63-1 {
		return 0, false
	}
	return int64(n), true
}

// parseFloatBytes parses a float64 from raw bytes without copying them
// into a string: the unsafe view never escapes strconv, and the file
// buffer is never written below a published length (it is replaced
// wholesale, or extended past its end by an appending Refresh).
func parseFloatBytes(b []byte) (float64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	f, err := strconv.ParseFloat(unsafe.String(&b[0], len(b)), 64)
	return f, err == nil
}

// NumRows returns the row count, building the row index if needed.
func (r *Reader) NumRows() (int, error) {
	st := r.state.Load()
	if !st.pm.HasRows() {
		if err := r.buildRowIndex(st); err != nil {
			return 0, err
		}
	}
	return st.pm.NumRows(), nil
}
