package rawcsv

import (
	"fmt"
	"log/slog"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"vida/internal/rawfile"
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
	AuxLoads        atomic.Int64 // loads of a sidecar recorded by UseAux, usable or not
	AuxLoadNanos    atomic.Int64 // wall time of those loads
}

// Reader provides query access to one generation of a raw CSV file (a
// rawfile.Generation) and the positional map built over exactly its
// bytes. It implements algebra.Source and is safe for concurrent scans.
// A generation never changes: Follow returns the next one, so a scan
// reads one file from start to end whatever a refresh does meanwhile.
//
// A successor derived by an append may share the bytes, the row index and
// the column offsets with its predecessor, longer. Each has its own owner
// of the spare capacity: the file generation's first successor (rawfile)
// and the positional map's (extended), as readers over one path share the
// bytes but not the map.
//
// A reader may start from a persisted map (UseAux): the sidecar loads
// into pm the first time something needs the map, so a restart whose
// queries the cache serves never reads it.
type Reader struct {
	*shared
	file     *rawfile.Generation
	data     []byte // file.Bytes(), held for the scan loops
	pm       *PosMap
	extended atomic.Bool // a successor claimed pm's spare capacity (Follow)
	sidecar  string      // the sidecar pm starts from (UseAux), loaded once by LoadPosMap
	loadOnce sync.Once
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

// Open loads the CSV file described by desc and builds a reader over it.
func Open(desc *sdg.Description) (*Reader, error) {
	file, err := rawfile.Load(desc.Path)
	if err != nil {
		return nil, fmt.Errorf("rawcsv: %s: %w", desc.Name, err)
	}
	return New(desc, file)
}

// New returns a reader over one generation of the CSV file described by
// desc, with an empty positional map. Options honored (from
// desc.Options): "delim" (single character, default ","), "header"
// ("true"/"false", default "true"), "null" (token treated as null,
// default empty string), "onerror" ("skip"/"fail", default "skip").
func New(desc *sdg.Description, file *rawfile.Generation) (*Reader, error) {
	if err := desc.Validate(); err != nil {
		return nil, err
	}
	if desc.Format != sdg.FormatCSV {
		return nil, fmt.Errorf("rawcsv: %s is not a CSV source", desc.Name)
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
	return &Reader{shared: sh, file: file, data: file.Bytes(), pm: NewPosMap()}, nil
}

// Name implements algebra.Source.
func (r *Reader) Name() string { return r.desc.Name }

// File returns the file generation this reader reads.
func (r *Reader) File() *rawfile.Generation { return r.file }

// PosMap exposes the positional map (for the optimizer's cost model and
// the experiments), first loading the sidecar UseAux recorded. It belongs
// to this generation; a successor has its own — extended from this one
// after an append, empty after any other change.
func (r *Reader) PosMap() *PosMap {
	r.LoadPosMap()
	return r.pm
}

// LoadedPosMap returns the positional map as scans and a sidecar load
// have left it, without loading a recorded sidecar: statistics and
// estimates read it, so they never pay for a load.
func (r *Reader) LoadedPosMap() *PosMap { return r.pm }

// UseAux records the positional-map sidecar at path (SaveAux) for this
// generation to start from. Nothing is read until something needs the
// map — a scan, OpenRange, Mapped, NumRows, PosMap, Follow or SaveAux —
// which then loads it through LoadAux, once. Call it before the reader is
// shared.
func (r *Reader) UseAux(path string) { r.sidecar = path }

// LoadPosMap loads the sidecar UseAux recorded unless some call already
// has, and reports how long the load took to the one call that ran it,
// so its cost lands on the query that paid for it. A sidecar that is
// absent or stale loads nothing, and one that is unusable is logged;
// either way the map stays empty and the next scan builds it.
func (r *Reader) LoadPosMap() (took time.Duration, loaded bool) {
	if r.sidecar == "" {
		return 0, false
	}
	r.loadOnce.Do(func() {
		start := time.Now()
		_, err := r.LoadAux(r.sidecar)
		took, loaded = time.Since(start), true
		r.stats.AuxLoads.Add(1)
		r.stats.AuxLoadNanos.Add(int64(took))
		if err != nil {
			slog.Warn("rawcsv: posmap sidecar unusable, rebuilding on demand", "dataset", r.desc.Name, "err", err)
		}
	})
	return took, loaded
}

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
		"aux_loads":        r.stats.AuxLoads.Load(),
		"aux_load_nanos":   r.stats.AuxLoadNanos.Load(),
	}
}

// BuildStats returns the cumulative count and wall time of tokenizing
// first-touch builds. The engine's tracer diffs it around a scan to
// attribute positional-map construction to the query that paid for it.
func (r *Reader) BuildStats() (builds, nanos int64) {
	return r.stats.Builds.Load(), r.stats.BuildNanos.Load()
}

// AuxName names the auxiliary structure this reader builds.
func (r *Reader) AuxName() string { return "posmap" }

// AuxBytes returns the positional map's memory, loading no sidecar.
func (r *Reader) AuxBytes() int64 { return r.pm.MemoryBytes() }

// SizeBytes returns the raw file size.
func (r *Reader) SizeBytes() int64 { return int64(len(r.data)) }

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
	pm := r.PosMap()
	for _, f := range fields {
		if j, ok := r.colIdx[f]; !ok || !pm.HasCol(j) {
			return false
		}
	}
	return pm.HasRows()
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
// wholesale, or extended past its end by an appending Generation.Next).
func parseFloatBytes(b []byte) (float64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	f, err := strconv.ParseFloat(unsafe.String(&b[0], len(b)), 64)
	return f, err == nil
}
