package rawcsv

import (
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"vida/internal/faultinject"
	"vida/internal/sched"
	"vida/internal/sdg"
	"vida/internal/values"
	"vida/internal/vec"
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
	BuildNanos      atomic.Int64 // wall time of those builds, not the CPU time of their helpers
}

// Reader provides query access to one generation of a raw CSV file: its
// bytes, their mtime and the positional map built over exactly those
// bytes. It implements algebra.Source and is safe for concurrent scans.
// A generation never changes: Refresh returns the next one, so a scan
// reads one file from start to end whatever Refresh does meanwhile.
//
// A successor derived by an append (append.go) may share data, the row
// index and the column offsets with its predecessor, longer. Nothing a
// generation holds is written below its length, and its spare capacity
// goes to the first successor that claims it (extended); later
// successors of the same generation copy.
type Reader struct {
	*shared
	data     []byte
	mtime    time.Time
	pm       *PosMap
	extended atomic.Bool

	// crc memoizes the content checksum behind Generation: computed on
	// first demand, and carried over the tail by an appending Refresh.
	crcMu sync.Mutex
	crcOK bool
	crc   uint32
}

// shared is what every generation of one file has in common; its
// counters stay cumulative across generations.
type shared struct {
	desc    *sdg.Description
	rowType *sdg.Type
	delim   byte
	header  bool
	policy  ErrorPolicy
	nullTok string
	stats   Stats
	names   []string // schema attribute names, in file order
	colIdx  map[string]int
	// pool and workers are where a cold scan finds help (UseScheduler).
	pool    *sched.Pool
	workers int
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
	data, mtime, err := load(desc.Path)
	if err != nil {
		return nil, fmt.Errorf("rawcsv: %s: %w", desc.Name, err)
	}
	sh := &shared{desc: desc, rowType: desc.RowType(), delim: ',', colIdx: map[string]int{},
		header: desc.Option("header", "true") != "false", nullTok: desc.Option("null", "")}
	if d := desc.Option("delim", ","); len(d) == 1 {
		sh.delim = d[0]
	}
	if desc.Option("onerror", "skip") == "fail" {
		sh.policy = FailOnBadRows
	}
	for i, a := range sh.rowType.Attrs {
		sh.names = append(sh.names, a.Name)
		sh.colIdx[a.Name] = i
	}
	return &Reader{shared: sh, data: data, mtime: mtime, pm: NewPosMap()}, nil
}

// load reads the file at path with the mtime of the handle it reads: a
// rename over path in between must not pair one file's mtime with
// another's bytes, which Refresh would take for unchanged for good.
func load(path string) ([]byte, time.Time, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, time.Time{}, err
	}
	defer f.Close()
	_ = faultinject.Hit(faultinject.FileLoad) // a pause point: see its doc
	fi, err := f.Stat()
	if err != nil {
		return nil, time.Time{}, err
	}
	data := make([]byte, fi.Size())
	_, err = io.ReadFull(f, data)
	return data, fi.ModTime(), err
}

// Name implements algebra.Source.
func (r *Reader) Name() string { return r.desc.Name }

// PosMap exposes the positional map (for the optimizer's cost model and
// the experiments). It belongs to this generation; a successor has its
// own — extended from this one after an append, empty after any other
// change.
func (r *Reader) PosMap() *PosMap { return r.pm }

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
func (r *Reader) SizeBytes() int64 { return int64(len(r.data)) }

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

// Refresh re-checks the file and returns the generation that describes
// it: the receiver when the file is unchanged, else a successor. It never
// changes the receiver. The decision ladder, each rung falling through to
// Replaced: the file must be strictly longer than this generation, which
// must have a row index (else there is nothing to keep) and end on a row
// boundary (else the tail continues its last row); and the first
// len(data) bytes on disk must equal the bytes in memory, compared in
// full — size and mtime cannot tell an append from a longer rewrite. Past
// the ladder the successor reads and tokenizes only the tail; see
// appendGeneration.
func (r *Reader) Refresh() (*Reader, Change, error) {
	fi, err := os.Stat(r.desc.Path)
	if err != nil {
		return nil, Change{}, err
	}
	if fi.ModTime().Equal(r.mtime) && fi.Size() == int64(len(r.data)) {
		return r, Change{}, nil
	}
	next, ch, err := r.appendGeneration()
	if next != nil || err != nil {
		return next, ch, err
	}
	data, mtime, err := load(r.desc.Path)
	if err != nil {
		return nil, Change{}, err
	}
	return &Reader{shared: r.shared, data: data, mtime: mtime, pm: NewPosMap()}, ch, nil
}

// Iterate implements algebra.Source. The record view is the batch scan
// lowered: the same tokenizer, conversions, malformed-row rule and
// positional-map side effects as IterateBatches, with every row boxed
// into a record of the requested fields (all schema fields when fields is
// empty).
func (r *Reader) Iterate(fields []string, yield func(values.Value) error) error {
	if len(fields) == 0 {
		fields = r.names
	}
	return r.IterateBatches(fields, vec.DefaultBatchSize, func(b *vec.Batch) error {
		return vec.BoxRecords(b, fields, yield)
	})
}

// NumRows returns the row count, indexing the rows with a scan of the
// first column when no scan has yet.
func (r *Reader) NumRows() (int, error) {
	if pm := r.PosMap(); pm.HasRows() {
		return pm.NumRows(), nil
	}
	if err := r.IterateBatches(r.names[:min(1, len(r.names))], 0, func(*vec.Batch) error { return nil }); err != nil {
		return 0, err
	}
	return r.PosMap().NumRows(), nil
}

// Mapped reports whether the positional map locates every listed field,
// so a scan of them jumps instead of tokenizing (the cost model asks).
func (r *Reader) Mapped(fields []string) bool {
	for _, f := range fields {
		if j, ok := r.colIdx[f]; !ok || !r.pm.HasCol(j) {
			return false
		}
	}
	return r.pm.HasRows()
}

// resolveFields maps field names to schema columns; no fields means every
// column. A field named twice is refused: each requested column owns one
// position in the batch and in the record.
func (r *Reader) resolveFields(fields []string) ([]int, error) {
	if len(fields) == 0 {
		fields = r.names
	}
	cols := make([]int, len(fields))
	seen := make([]bool, len(r.names))
	for i, f := range fields {
		j, ok := r.colIdx[f]
		if !ok {
			return nil, fmt.Errorf("rawcsv: %s has no attribute %q", r.desc.Name, f)
		}
		if seen[j] {
			return nil, fmt.Errorf("rawcsv: %s: attribute %q requested twice", r.desc.Name, f)
		}
		seen[j] = true
		cols[i] = j
	}
	return cols, nil
}

// boxField converts a field of a column that has no typed vector: bools,
// and any other kind as its text.
func boxField(k sdg.TypeKind, raw []byte) (values.Value, bool) {
	if k != sdg.TBool {
		return values.NewString(string(raw)), true
	}
	switch string(raw) {
	case "true", "TRUE", "1", "t":
		return values.True, true
	case "false", "FALSE", "0", "f":
		return values.False, true
	}
	return values.Null, false
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
