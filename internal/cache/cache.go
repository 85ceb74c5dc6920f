package cache

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"vida/internal/colenc"
	"vida/internal/values"
	"vida/internal/vec"
)

// Layout enumerates the cache representations of Figure 4 plus the
// columnar re-shaping of §5.
type Layout uint8

// The cache layouts.
const (
	LayoutColumns Layout = iota // typed column vectors (tabular re-shape)
	LayoutRows                  // record values in row order ("C++ object" analogue, Fig 4c)
	LayoutBSON                  // binary JSON documents (Fig 4b)
	LayoutSpans                 // (start,end) byte positions into the raw file (Fig 4d)
)

// String returns the layout name.
func (l Layout) String() string {
	switch l {
	case LayoutColumns:
		return "columns"
	case LayoutRows:
		return "rows"
	case LayoutBSON:
		return "bson"
	case LayoutSpans:
		return "spans"
	default:
		return fmt.Sprintf("layout(%d)", uint8(l))
	}
}

// Span is a byte range into a raw file.
type Span struct{ Start, End int64 }

// Entry is one cached representation of (part of) a dataset.
type Entry struct {
	Dataset string
	Layout  Layout
	N       int // row/object count

	// Cols holds the columnar layout: one vector per attribute, kept in
	// the typed representation the harvesting scan produced (boxed only
	// for mixed-type or generic columns). Published columns are
	// immutable — scans serve slice windows of them zero-copy.
	Cols  map[string]vec.Col // LayoutColumns
	Rows  []values.Value     // LayoutRows
	Docs  [][]byte           // LayoutBSON
	Spans []Span             // LayoutSpans

	// Enc is the second-tier representation: when non-nil the entry holds
	// encoded blocks instead of flat vectors (Cols is then nil) and size
	// accounts the encoded bytes, so one budget holds far more rows. Scans
	// decode windows on demand through ColumnsSource.
	Enc *colenc.Table

	size int64
	tick uint64
	hits int64
}

// SizeBytes returns the entry's estimated memory footprint.
func (e *Entry) SizeBytes() int64 { return e.size }

// Hits returns how many lookups this entry served.
func (e *Entry) Hits() int64 { return e.hits }

// Encoded reports whether the entry lives in the encoded tier.
func (e *Entry) Encoded() bool { return e.Enc != nil }

// HasColumns reports whether the entry covers all the given fields.
func (e *Entry) HasColumns(fields []string) bool {
	if e.Layout != LayoutColumns {
		return false
	}
	if e.Enc != nil {
		return e.Enc.HasColumns(fields)
	}
	for _, f := range fields {
		if _, ok := e.Cols[f]; !ok {
			return false
		}
	}
	return true
}

// ColumnNames lists the attributes a columnar entry holds, in either
// tier (nil for the other layouts).
func (e *Entry) ColumnNames() []string {
	var names []string
	if e.Enc != nil {
		for name := range e.Enc.Cols {
			names = append(names, name)
		}
	} else {
		for name := range e.Cols {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// Stats aggregates cache activity for the experiments (E4: cache-hit
// ratio over the 150-query workload).
type Stats struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	Insertions int64
	BytesUsed  int64
	BytesLimit int64
	Entries    int
	// Tier accounting: flat-vector bytes vs encoded-block bytes, and the
	// traffic between the tiers and the spill directory.
	HotBytes         int64
	EncodedBytes     int64
	Encodes          int64
	DecodedBlocks    int64
	SpillWrites      int64
	RehydratedBlocks int64
	SpillCorrupt     int64
}

// Config parameterizes a Manager beyond the byte budget.
type Config struct {
	// BudgetBytes bounds all resident entries, both tiers (<=0: unlimited).
	BudgetBytes int64
	// HotBytes bounds the flat-vector tier: once exceeded, the coldest
	// columnar entries transition to encoded blocks in memory (<=0:
	// tiering disabled, everything stays hot).
	HotBytes int64
	// SpillDir, when set, persists encoded columnar entries as generation
	// keyed spill files so a restarted engine rehydrates instead of
	// re-scanning raw files.
	SpillDir string
}

// Manager owns all cache entries under one byte budget.
type Manager struct {
	mu      sync.Mutex
	cfg     Config
	budget  int64
	used    int64 // hotUsed + encodedUsed: every resident entry's size
	tick    uint64
	entries map[string]*Entry
	hits    int64
	misses  int64
	evicted int64
	puts    int64

	hotUsed     int64
	encodedUsed int64
	encodes     int64
	spillWrites int64
	rehydrated  int64
	corrupt     int64
	// spillKeys maps a dataset to its current raw-file generation (the
	// spill key); only keyed datasets spill.
	spillKeys map[string]func() string
	// decodedBlocks is written by concurrent scans outside mu.
	decodedBlocks atomic.Int64
}

// New creates a Manager with the given byte budget (<=0 means unlimited).
func New(budgetBytes int64) *Manager {
	return NewWithConfig(Config{BudgetBytes: budgetBytes})
}

// NewWithConfig creates a Manager with tiering and spill configured.
func NewWithConfig(cfg Config) *Manager {
	return &Manager{cfg: cfg, budget: cfg.BudgetBytes, entries: map[string]*Entry{}, spillKeys: map[string]func() string{}}
}

// SetSpillKey registers the generation provider of a dataset: spill
// files are keyed by its value so a raw-file change strands (and the
// cache then deletes) the stale spill. A nil gen removes the key — the
// dataset stops spilling, and the manager lets go of the provider (and
// of whatever reader it is bound to).
func (m *Manager) SetSpillKey(dataset string, gen func() string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if gen == nil {
		delete(m.spillKeys, dataset)
		return
	}
	m.spillKeys[dataset] = gen
}

func key(dataset string, layout Layout) string {
	return dataset + "\x00" + layout.String()
}

// EstimateValueBytes approximates the in-memory footprint of a value; it
// is deliberately cheap rather than exact.
func EstimateValueBytes(v values.Value) int64 {
	const base = 56 // tagged struct overhead
	switch v.Kind() {
	case values.KindNull, values.KindBool, values.KindInt, values.KindFloat:
		return base
	case values.KindString:
		return base + int64(v.Len())
	case values.KindRecord:
		total := int64(base)
		for _, f := range v.Fields() {
			total += int64(len(f.Name)) + EstimateValueBytes(f.Val)
		}
		return total
	default:
		total := int64(base)
		for _, e := range v.Elems() {
			total += EstimateValueBytes(e)
		}
		return total
	}
}

// EstimateColBytes approximates the in-memory footprint of a cached
// column: the physical payload for typed vectors, a per-value deep
// estimate for boxed ones. This is what eviction accounts against, so a
// typed entry charges the budget its true (much smaller) size.
func EstimateColBytes(c *vec.Col) int64 {
	if c.Tag == vec.Boxed {
		var sz int64
		for _, v := range c.Boxed {
			sz += EstimateValueBytes(v)
		}
		return sz + int64(len(c.Nulls))
	}
	return c.SizeBytes()
}

// PutColumnVectors installs (or extends) the columnar entry of a
// dataset with typed column vectors. All columns must hold n rows.
// Existing columns are kept, so the entry accumulates attributes across
// queries — exactly how ViDa's caches grow with the workload. Extension
// is copy-on-write: scans hold Entry pointers outside the manager lock,
// so a published entry is never mutated — a grown replacement entry
// (sharing the column storage) takes its place instead. Ownership of
// the column storage transfers to the cache; callers must not retain
// mutable references.
func (m *Manager) PutColumnVectors(dataset string, n int, cols map[string]vec.Col) error {
	for name, col := range cols {
		if col.Len() != n {
			return fmt.Errorf("cache: column %q has %d values, want %d", name, col.Len(), n)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	k := key(dataset, LayoutColumns)
	old := m.entries[k]
	if old != nil && old.N != n {
		// A harvest of a different row count is a different file generation
		// (or a column set with different malformed rows): columns of two
		// lengths never share an entry, so the new harvest replaces the old
		// one wholesale. A file that merely grew does not come through here
		// — Refresh extends the entry in place with ExtendColumns.
		m.removeLocked(k)
		old = nil
	}
	e := &Entry{Dataset: dataset, Layout: LayoutColumns, N: n, Cols: make(map[string]vec.Col, len(cols))}
	if old != nil {
		e.tick, e.hits = old.tick, old.hits
		oldCols := old.Cols
		if old.Enc != nil {
			// The entry sits in the encoded tier: materialize it so the
			// fresh columns merge into one hot entry (which may transition
			// right back below if the hot tier is over budget).
			dec, err := old.Enc.DecodeAll()
			if err != nil {
				// Unreachable for blocks we encoded; drop the old entry
				// rather than serve questionable data.
				dec = nil
			}
			oldCols = dec
		}
		for name, col := range oldCols {
			e.Cols[name] = col
		}
		m.removeLocked(k)
	} else {
		m.puts++
	}
	for name, col := range cols {
		if _, exists := e.Cols[name]; exists {
			continue
		}
		e.Cols[name] = col
	}
	// Recomputing from the live columns (rather than trusting the old
	// entry's incremental sum) keeps tracked bytes drift-free across
	// merge, decode and replace churn.
	for name := range e.Cols {
		col := e.Cols[name]
		e.size += EstimateColBytes(&col)
	}
	m.entries[k] = e
	m.used += e.size
	m.hotUsed += e.size
	m.touchLocked(e)
	m.maybeEncodeLocked()
	m.spillLocked(e)
	m.evictLocked()
	return nil
}

// ExtendColumns grows the columnar entry of a dataset whose file was
// appended to: tail holds, for exactly the attributes the entry holds,
// the rows past oldN. Like every other change to a published entry it is
// copy-on-write — a successor entry takes the old one's place, and the
// scans still reading the old one see nothing move. A hot entry's vectors
// are extended (in their spare capacity when the tail fits, which never
// touches rows below oldN; reallocated with bounded headroom otherwise);
// an encoded entry re-encodes from its last full block boundary. It
// reports false, changing nothing, when the entry cannot be extended — no
// entry, a row count other than oldN, a different attribute set, tail
// columns of unequal length or another representation, or rows/BSON/spans
// entries of the same dataset that would be left stale. The caller then
// invalidates the dataset.
func (m *Manager) ExtendColumns(dataset string, oldN int, tail map[string]vec.Col) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.entries {
		if e.Dataset == dataset && e.Layout != LayoutColumns {
			return false
		}
	}
	k := key(dataset, LayoutColumns)
	old := m.entries[k]
	if old == nil || old.N != oldN {
		return false
	}
	names := old.ColumnNames()
	if len(names) == 0 || len(names) != len(tail) {
		return false
	}
	add := -1
	e := &Entry{Dataset: dataset, Layout: LayoutColumns, tick: old.tick, hits: old.hits}
	if old.Enc != nil {
		e.Enc = &colenc.Table{Cols: make(map[string]*colenc.Col, len(names))}
	} else {
		e.Cols = make(map[string]vec.Col, len(names))
	}
	for _, name := range names {
		t, ok := tail[name]
		if !ok || (add >= 0 && t.Len() != add) {
			return false
		}
		add = t.Len()
		if old.Enc != nil {
			col, err := old.Enc.Cols[name].Append(&t)
			if err != nil {
				return false
			}
			e.Enc.Cols[name] = col
			continue
		}
		oc := old.Cols[name]
		col, ok := oc.Extend(&t)
		if !ok {
			return false
		}
		e.Cols[name] = col
		e.size += EstimateColBytes(&col)
	}
	e.N = oldN + add
	m.removeLocked(k)
	m.entries[k] = e
	if e.Enc != nil {
		e.Enc.N = e.N
		e.size = e.Enc.SizeBytes()
		m.encodedUsed += e.size
	} else {
		m.hotUsed += e.size
	}
	m.used += e.size
	m.maybeEncodeLocked()
	// The spill file is keyed by the file's content: the old generation's
	// no longer matches anything on disk.
	m.removeSpillFilesLocked(dataset)
	m.spillLocked(m.entries[k])
	m.evictLocked()
	return true
}

// maybeEncodeLocked transitions the coldest columnar entries from flat
// vectors to encoded blocks while the hot tier is over its budget. The
// swap is copy-on-write: in-flight scans keep reading the flat entry
// they resolved; new lookups see the encoded one.
func (m *Manager) maybeEncodeLocked() {
	if m.cfg.HotBytes <= 0 {
		return
	}
	for m.hotUsed > m.cfg.HotBytes {
		var coldestKey string
		var coldest *Entry
		for k, e := range m.entries {
			if e.Layout != LayoutColumns || e.Enc != nil || e.Cols == nil {
				continue
			}
			if coldest == nil || e.tick < coldest.tick {
				coldest, coldestKey = e, k
			}
		}
		if coldest == nil {
			return
		}
		tab, err := colenc.EncodeColumns(coldest.Cols, coldest.N)
		if err != nil {
			// Should not happen; leave the tier as is rather than loop.
			return
		}
		enc := &Entry{
			Dataset: coldest.Dataset, Layout: LayoutColumns, N: coldest.N,
			Enc: tab, size: tab.SizeBytes(), tick: coldest.tick, hits: coldest.hits,
		}
		m.entries[coldestKey] = enc
		m.used += enc.size - coldest.size
		m.hotUsed -= coldest.size
		m.encodedUsed += enc.size
		m.encodes++
	}
}

// PutRows installs the row-layout entry for a dataset.
func (m *Manager) PutRows(dataset string, rows []values.Value) {
	var sz int64
	for _, r := range rows {
		sz += EstimateValueBytes(r)
	}
	m.put(&Entry{Dataset: dataset, Layout: LayoutRows, N: len(rows), Rows: rows, size: sz})
}

// PutBSON installs the binary-JSON entry for a dataset.
func (m *Manager) PutBSON(dataset string, docs [][]byte) {
	var sz int64
	for _, d := range docs {
		sz += int64(len(d))
	}
	m.put(&Entry{Dataset: dataset, Layout: LayoutBSON, N: len(docs), Docs: docs, size: sz})
}

// PutSpans installs the positional entry for a dataset.
func (m *Manager) PutSpans(dataset string, spans []Span) {
	m.put(&Entry{Dataset: dataset, Layout: LayoutSpans, N: len(spans), Spans: spans, size: int64(len(spans) * 16)})
}

func (m *Manager) put(e *Entry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := key(e.Dataset, e.Layout)
	m.removeLocked(k)
	m.entries[k] = e
	m.used += e.size
	m.hotUsed += e.size
	m.puts++
	m.touchLocked(e)
	m.evictLocked()
}

// Get returns the entry of a dataset in a specific layout.
func (m *Manager) Get(dataset string, layout Layout) (*Entry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key(dataset, layout)]
	if !ok {
		m.misses++
		return nil, false
	}
	m.hits++
	e.hits++
	m.touchLocked(e)
	return e, true
}

// GetColumns returns the columnar entry if it covers all fields.
func (m *Manager) GetColumns(dataset string, fields []string) (*Entry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key(dataset, LayoutColumns)]
	if !ok || !e.HasColumns(fields) {
		m.misses++
		return nil, false
	}
	m.hits++
	e.hits++
	m.touchLocked(e)
	return e, true
}

// Touch records a served lookup (hit + LRU bump) for an entry that was
// resolved via Peek — the deferred-accounting path range scans use so
// that probing for parallelizability does not double-count hits.
func (m *Manager) Touch(dataset string, layout Layout) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[key(dataset, layout)]; ok {
		m.hits++
		e.hits++
		m.touchLocked(e)
	}
}

// Peek is Get without statistics or LRU effects (used by the optimizer's
// cost model to probe residency without distorting hit rates).
func (m *Manager) Peek(dataset string, layout Layout) (*Entry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key(dataset, layout)]
	return e, ok
}

// PeekColumns probes columnar coverage without statistics effects.
func (m *Manager) PeekColumns(dataset string, fields []string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key(dataset, LayoutColumns)]
	return ok && e.HasColumns(fields)
}

// Invalidate drops every entry of a dataset (file changed), along with
// any spill files: their generation no longer exists.
func (m *Manager) Invalidate(dataset string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, e := range m.entries {
		if e.Dataset == dataset {
			m.removeLocked(k)
		}
	}
	m.removeSpillFilesLocked(dataset)
}

// Clear drops everything.
func (m *Manager) Clear() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k := range m.entries {
		m.removeLocked(k)
	}
}

// Stats returns an activity snapshot.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Hits:             m.hits,
		Misses:           m.misses,
		Evictions:        m.evicted,
		Insertions:       m.puts,
		BytesUsed:        m.used,
		BytesLimit:       m.budget,
		Entries:          len(m.entries),
		HotBytes:         m.hotUsed,
		EncodedBytes:     m.encodedUsed,
		Encodes:          m.encodes,
		DecodedBlocks:    m.decodedBlocks.Load(),
		SpillWrites:      m.spillWrites,
		RehydratedBlocks: m.rehydrated,
		SpillCorrupt:     m.corrupt,
	}
}

// Describe lists the resident entries, for the CLI's \caches command.
func (m *Manager) Describe() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]string, 0, len(m.entries))
	for k := range m.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		e := m.entries[k]
		fmt.Fprintf(&sb, "%s [%s] n=%d size=%dB hits=%d", e.Dataset, e.Layout, e.N, e.size, e.hits)
		if e.Encoded() {
			fmt.Fprintf(&sb, " tier=encoded blocks=%d", e.Enc.NumBlocks())
		}
		if e.Layout == LayoutColumns && e.Cols != nil {
			cols := make([]string, 0, len(e.Cols))
			for c := range e.Cols {
				col := e.Cols[c]
				cols = append(cols, c+":"+col.Tag.String())
			}
			sort.Strings(cols)
			fmt.Fprintf(&sb, " cols=%v", cols)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func (m *Manager) touchLocked(e *Entry) {
	m.tick++
	e.tick = m.tick
}

func (m *Manager) removeLocked(k string) {
	if e, ok := m.entries[k]; ok {
		m.used -= e.size
		if e.Encoded() {
			m.encodedUsed -= e.size
		} else {
			m.hotUsed -= e.size
		}
		delete(m.entries, k)
	}
}

// evictLocked drops least-recently-used entries until under budget.
func (m *Manager) evictLocked() {
	if m.budget <= 0 {
		return
	}
	for m.used > m.budget && len(m.entries) > 0 {
		var oldestKey string
		var oldest *Entry
		for k, e := range m.entries {
			if oldest == nil || e.tick < oldest.tick {
				oldest, oldestKey = e, k
			}
		}
		m.removeLocked(oldestKey)
		m.evicted++
	}
}
