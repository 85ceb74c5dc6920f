package rawjson

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vida/internal/faultinject"
	"vida/internal/rawfile"
	"vida/internal/sdg"
	"vida/internal/values"
)

// Stats counts reader work for the optimizer and experiments.
type Stats struct {
	FullParses     atomic.Int64 // objects fully parsed
	PartialParses  atomic.Int64 // objects parsed with field skipping
	IndexedReads   atomic.Int64 // field values read via the semi-index
	ObjectsSkipped atomic.Int64 // malformed objects skipped (onerror=skip)
	BytesRead      atomic.Int64
	Builds         atomic.Int64 // skip-scan builds of the object index
	BuildNanos     atomic.Int64 // wall time spent in those builds
}

// span is a [start,end) byte range within the file.
type span struct{ start, end int64 }

// SemiIndex is the structural index of one JSON file: spans of top-level
// objects plus spans of touched top-level fields per object. It grows
// adaptively and drops on file change, like the CSV positional map.
type SemiIndex struct {
	mu      sync.RWMutex
	objects []span
	fields  map[string][]span // field -> per-object value span; {-1,-1} = absent
	bad     []bool            // objects discovered malformed (skipped everywhere)
}

// markBad flags object i as malformed; every later pass skips it.
func (ix *SemiIndex) markBad(i int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for len(ix.bad) <= i {
		ix.bad = append(ix.bad, false)
	}
	ix.bad[i] = true
}

func (ix *SemiIndex) isBad(i int) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return i < len(ix.bad) && ix.bad[i]
}

func newSemiIndex() *SemiIndex { return &SemiIndex{fields: map[string][]span{}} }

// HasObjects reports whether object spans are recorded.
func (ix *SemiIndex) HasObjects() bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.objects != nil
}

// NumObjects returns the number of top-level objects.
func (ix *SemiIndex) NumObjects() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.objects)
}

// HasField reports whether the named field's spans are recorded.
func (ix *SemiIndex) HasField(name string) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.fields[name] != nil
}

// MemoryBytes estimates the index footprint.
func (ix *SemiIndex) MemoryBytes() int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	total := int64(len(ix.objects) * 16)
	for _, s := range ix.fields {
		total += int64(len(s) * 16)
	}
	return total
}

// Reader provides query access to one generation of a raw JSON file
// holding either a top-level array of objects or newline-delimited
// objects (a rawfile.Generation) and the semi-index built over exactly its
// bytes. It implements algebra.Source and is safe for concurrent scans. A
// generation never changes: a changed file gets a new reader (New) over
// its successor, with the semi-index built again.
type Reader struct {
	desc      *sdg.Description
	failOnBad bool
	stats     Stats
	file      *rawfile.Generation
	data      []byte // file.Bytes(), held for the parse loops
	ix        *SemiIndex
	// buildMu single-flights the object-index skip scan so concurrent
	// cold queries don't all walk the whole file.
	buildMu sync.Mutex
}

// Open loads the JSON file described by desc and builds a reader over it.
func Open(desc *sdg.Description) (*Reader, error) {
	file, err := rawfile.Load(desc.Path)
	if err != nil {
		return nil, fmt.Errorf("rawjson: %s: %w", desc.Name, err)
	}
	return New(desc, file)
}

// New returns a reader over one generation of the JSON file described by
// desc, with an empty semi-index. The "onerror" option ("skip" default,
// "fail") selects what happens to malformed objects — the paper's
// conservative cleaning strategy skips them (§7).
func New(desc *sdg.Description, file *rawfile.Generation) (*Reader, error) {
	if err := desc.Validate(); err != nil {
		return nil, err
	}
	if desc.Format != sdg.FormatJSON {
		return nil, fmt.Errorf("rawjson: %s is not a JSON source", desc.Name)
	}
	return &Reader{desc: desc, failOnBad: desc.Option("onerror", "skip") == "fail",
		file: file, data: file.Bytes(), ix: newSemiIndex()}, nil
}

// Name implements algebra.Source.
func (r *Reader) Name() string { return r.desc.Name }

// File returns the file generation this reader reads.
func (r *Reader) File() *rawfile.Generation { return r.file }

// SemiIndex exposes the structural index of this generation.
func (r *Reader) SemiIndex() *SemiIndex { return r.ix }

// AuxName names the auxiliary structure this reader builds.
func (r *Reader) AuxName() string { return "semiindex" }

// AuxBytes returns the memory the semi-index holds.
func (r *Reader) AuxBytes() int64 { return r.ix.MemoryBytes() }

// SizeBytes returns the raw file size.
func (r *Reader) SizeBytes() int64 { return int64(len(r.data)) }

// StatsSnapshot returns a copy of the counters.
func (r *Reader) StatsSnapshot() map[string]int64 {
	return map[string]int64{
		"full_parses":     r.stats.FullParses.Load(),
		"partial_parses":  r.stats.PartialParses.Load(),
		"indexed_reads":   r.stats.IndexedReads.Load(),
		"objects_skipped": r.stats.ObjectsSkipped.Load(),
		"bytes_read":      r.stats.BytesRead.Load(),
		"builds":          r.stats.Builds.Load(),
		"build_nanos":     r.stats.BuildNanos.Load(),
	}
}

// BuildStats returns the cumulative count and wall time of object-index
// builds, diffed by the engine's tracer around a scan.
func (r *Reader) BuildStats() (builds, nanos int64) {
	return r.stats.Builds.Load(), r.stats.BuildNanos.Load()
}

// buildObjectIndex records the span of every top-level object using the
// skip scanner (no materialization). Concurrent builders single-flight:
// the first walks the file, the rest find the index installed.
func (r *Reader) buildObjectIndex() error {
	if r.ix.HasObjects() {
		return nil
	}
	r.buildMu.Lock()
	defer r.buildMu.Unlock()
	if r.ix.HasObjects() {
		return nil
	}
	// This caller pays the skip scan; record its cost for tracing.
	start := time.Now()
	defer func() {
		r.stats.Builds.Add(1)
		r.stats.BuildNanos.Add(int64(time.Since(start)))
	}()
	data := r.data
	var objs []span
	pos := skipWS(data, 0)
	arrayFile := pos < len(data) && data[pos] == '['
	if arrayFile {
		pos++
	}
	for {
		pos = skipWS(data, pos)
		if pos >= len(data) {
			break
		}
		if arrayFile && data[pos] == ']' {
			break
		}
		if data[pos] == ',' {
			pos++
			continue
		}
		start := pos
		next, err := SkipValue(data, pos)
		if err != nil {
			if r.failOnBad {
				return err
			}
			// Structural resync: jump to the next line and keep going
			// (newline-delimited layouts recover; array files usually
			// fail to the end, which truncates cleanly).
			r.stats.ObjectsSkipped.Add(1)
			nl := -1
			for i := start; i < len(data); i++ {
				if data[i] == '\n' {
					nl = i
					break
				}
			}
			if nl < 0 {
				break
			}
			pos = nl + 1
			continue
		}
		objs = append(objs, span{start: int64(start), end: int64(next)})
		pos = next
	}
	r.ix.mu.Lock()
	r.ix.objects = objs
	r.ix.mu.Unlock()
	r.stats.BytesRead.Add(int64(len(data)))
	return nil
}

// NumObjects returns the number of top-level objects.
func (r *Reader) NumObjects() (int, error) {
	if err := r.buildObjectIndex(); err != nil {
		return 0, err
	}
	return r.ix.NumObjects(), nil
}

// Iterate implements algebra.Source: one record per top-level object,
// materializing only the requested top-level fields (all when empty). The
// first pass over a projection records field spans; later passes parse
// exactly the spans.
func (r *Reader) Iterate(fields []string, yield func(values.Value) error) error {
	if err := r.buildObjectIndex(); err != nil {
		return err
	}
	// Chaos point: JSONRead fires once per delivered object (read error
	// or delay mid-scan). A single disarmed atomic load in production.
	inner := yield
	yield = func(v values.Value) error {
		if err := faultinject.Hit(faultinject.JSONRead); err != nil {
			return err
		}
		return inner(v)
	}
	if len(fields) == 0 {
		return r.iterateFull(yield)
	}
	if r.ix.HasFields(fields) {
		return r.iterateIndexed(fields, yield)
	}
	return r.iteratePartial(fields, yield)
}

// HasFields reports whether every listed field's spans are recorded.
func (ix *SemiIndex) HasFields(fields []string) bool {
	for _, f := range fields {
		if !ix.HasField(f) {
			return false
		}
	}
	return true
}

func objects(ix *SemiIndex) []span {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.objects
}

func (r *Reader) iterateFull(yield func(values.Value) error) error {
	for i, o := range objects(r.ix) {
		if r.ix.isBad(i) {
			continue
		}
		r.stats.FullParses.Add(1)
		v, _, err := ParseValue(r.data, int(o.start))
		if err != nil {
			if r.failOnBad {
				return err
			}
			r.stats.ObjectsSkipped.Add(1)
			r.ix.markBad(i)
			continue
		}
		if err := yield(v); err != nil {
			return err
		}
	}
	return nil
}

// iteratePartial parses each object skipping unrequested fields, and
// records the spans of the requested ones into the semi-index.
func (r *Reader) iteratePartial(fields []string, yield func(values.Value) error) error {
	want := make(map[string]bool, len(fields))
	for _, f := range fields {
		want[f] = true
	}
	objs := objects(r.ix)
	newSpans := make(map[string][]span, len(fields))
	for _, f := range fields {
		newSpans[f] = make([]span, 0, len(objs))
	}
	for i, o := range objs {
		if r.ix.isBad(i) {
			for _, f := range fields {
				newSpans[f] = append(newSpans[f], span{start: -1, end: -1})
			}
			continue
		}
		r.stats.PartialParses.Add(1)
		spans := map[string][2]int{}
		v, _, err := parseObject(r.data, int(o.start), want, spans)
		if err != nil {
			if r.failOnBad {
				return err
			}
			r.stats.ObjectsSkipped.Add(1)
			r.ix.markBad(i)
			for _, f := range fields {
				newSpans[f] = append(newSpans[f], span{start: -1, end: -1})
			}
			continue
		}
		for _, f := range fields {
			if s, ok := spans[f]; ok {
				newSpans[f] = append(newSpans[f], span{start: int64(s[0]), end: int64(s[1])})
			} else {
				newSpans[f] = append(newSpans[f], span{start: -1, end: -1})
			}
		}
		if err := yield(projectInOrder(v, fields)); err != nil {
			return err
		}
	}
	r.ix.mu.Lock()
	for f, s := range newSpans {
		r.ix.fields[f] = s
	}
	r.ix.mu.Unlock()
	return nil
}

// iterateIndexed serves the projection straight from recorded spans.
func (r *Reader) iterateIndexed(fields []string, yield func(values.Value) error) error {
	objs := objects(r.ix)
	fieldSpans := make([][]span, len(fields))
	r.ix.mu.RLock()
	for i, f := range fields {
		fieldSpans[i] = r.ix.fields[f]
	}
	r.ix.mu.RUnlock()
	for objIdx := range objs {
		if r.ix.isBad(objIdx) {
			continue
		}
		recFields := make([]values.Field, len(fields))
		for i, f := range fields {
			s := fieldSpans[i][objIdx]
			if s.start < 0 {
				recFields[i] = values.Field{Name: f, Val: values.Null}
				continue
			}
			r.stats.IndexedReads.Add(1)
			v, _, err := ParseValue(r.data, int(s.start))
			if err != nil {
				return err
			}
			recFields[i] = values.Field{Name: f, Val: v}
		}
		if err := yield(values.NewRecord(recFields...)); err != nil {
			return err
		}
	}
	return nil
}

// projectInOrder rebuilds the record with fields in the requested order,
// inserting nulls for absent fields (raw JSON objects are heterogeneous).
func projectInOrder(v values.Value, fields []string) values.Value {
	out := make([]values.Field, len(fields))
	for i, f := range fields {
		if fv, ok := v.Get(f); ok {
			out[i] = values.Field{Name: f, Val: fv}
		} else {
			out[i] = values.Field{Name: f, Val: values.Null}
		}
	}
	return values.NewRecord(out...)
}

// ObjectSpan returns the [start,end) byte span of object i — the
// positional-range representation of Figure 4(d): a query can carry these
// two integers through evaluation and assemble the object only at result
// projection.
func (r *Reader) ObjectSpan(i int) (start, end int64, err error) {
	s, err := r.objectSpan(i)
	return s.start, s.end, err
}

// objectSpan resolves object i, building the object index on demand.
func (r *Reader) objectSpan(i int) (span, error) {
	if err := r.buildObjectIndex(); err != nil {
		return span{}, err
	}
	objs := objects(r.ix)
	if i < 0 || i >= len(objs) {
		return span{}, fmt.Errorf("rawjson: object %d out of range", i)
	}
	return objs[i], nil
}

// ObjectBytes returns the raw bytes of object i (Figure 4a layout).
func (r *Reader) ObjectBytes(i int) ([]byte, error) {
	s, err := r.objectSpan(i)
	if err != nil {
		return nil, err
	}
	return r.data[s.start:s.end], nil
}

// ParseObject fully parses object i (Figure 4c layout).
func (r *Reader) ParseObject(i int) (values.Value, error) {
	s, err := r.objectSpan(i)
	if err != nil {
		return values.Null, err
	}
	r.stats.FullParses.Add(1)
	v, _, err := ParseValue(r.data, int(s.start))
	return v, err
}

// ExtractPath parses only the value at a dotted path ("coords.x") within
// object i, skipping everything else.
func (r *Reader) ExtractPath(i int, path string) (values.Value, error) {
	s, err := r.objectSpan(i)
	if err != nil {
		return values.Null, err
	}
	parts := strings.Split(path, ".")
	pos := int(s.start)
	for depth, part := range parts {
		vpos, ok, err := findField(r.data, pos, part)
		if err != nil {
			return values.Null, err
		}
		if !ok {
			return values.Null, nil
		}
		if depth == len(parts)-1 {
			v, _, err := ParseValue(r.data, vpos)
			return v, err
		}
		pos = vpos
	}
	return values.Null, nil
}

// findField scans the object starting at pos for the named top-level key,
// returning the offset of its value.
func findField(data []byte, pos int, name string) (int, bool, error) {
	pos = skipWS(data, pos)
	if pos >= len(data) || data[pos] != '{' {
		return 0, false, nil
	}
	pos++
	for {
		pos = skipWS(data, pos)
		if pos >= len(data) {
			return 0, false, perr(pos, "unterminated object")
		}
		if data[pos] == '}' {
			return 0, false, nil
		}
		if data[pos] == ',' {
			pos++
			continue
		}
		key, next, err := parseString(data, pos)
		if err != nil {
			return 0, false, err
		}
		pos = skipWS(data, next)
		if pos >= len(data) || data[pos] != ':' {
			return 0, false, perr(pos, "expected ':'")
		}
		pos = skipWS(data, pos+1)
		if key == name {
			return pos, true, nil
		}
		pos, err = SkipValue(data, pos)
		if err != nil {
			return 0, false, err
		}
	}
}
