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

// Layout names the one shape a cache entry has: typed columns (§5,
// "cache replicas of tabular, row-oriented data in a columnar format").
// It survives only as the second argument of Peek, which the benchmark
// harness calls; drop both together.
type Layout uint8

// LayoutColumns is the columnar layout, the only one.
const LayoutColumns Layout = 0

// Entry is the cached columns of one dataset.
type Entry struct {
	Dataset string
	N       int // row count

	// Cols holds one vector per attribute, kept in the typed
	// representation the harvesting scan produced (boxed only for
	// mixed-type or generic columns). Published columns are immutable —
	// scans serve slice windows of them zero-copy.
	Cols map[string]vec.Col

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

// ColumnNames lists the attributes the entry holds, in either tier.
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

// Manager owns all cache entries under one byte budget, at most one
// entry per dataset.
type Manager struct {
	mu      sync.Mutex
	cfg     Config
	budget  int64
	used    int64 // hotUsed + encodedUsed: every resident entry's size
	tick    uint64
	entries map[string]*Entry // by dataset
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
// mutable references. A Str column that passes the dictionary rule
// (vec.DictEncode) is installed as StrDict; the encode runs before the
// manager lock is taken.
func (m *Manager) PutColumnVectors(dataset string, n int, cols map[string]vec.Col) error {
	hot := make(map[string]vec.Col, len(cols))
	for name, col := range cols {
		if col.Len() != n {
			return fmt.Errorf("cache: column %q has %d values, want %d", name, col.Len(), n)
		}
		if col.Tag == vec.Str {
			if d, ok := vec.DictEncode(&col); ok {
				col = d
			}
		}
		hot[name] = col
	}
	cols = hot
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.entries[dataset]
	if old != nil && old.N != n {
		// A harvest of a different row count is a different file generation
		// (or a column set with different malformed rows): columns of two
		// lengths never share an entry, so the new harvest replaces the old
		// one wholesale. A file that merely grew does not come through here
		// — Refresh extends the entry in place with ExtendColumns.
		m.removeLocked(dataset)
		old = nil
	}
	e := &Entry{Dataset: dataset, N: n, Cols: make(map[string]vec.Col, len(cols))}
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
		m.removeLocked(dataset)
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
	m.entries[dataset] = e
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
// columns of unequal length or another representation, or an entry
// replaced while the extension was built. The caller then
// invalidates the dataset.
//
// The extended columns are built outside the manager lock (a new string
// re-encodes a whole dictionary column); the successor is published only
// if the entry it was built from is still the current one, and false is
// reported otherwise. Extensions of one dataset must not run
// concurrently: a hot vector's spare capacity has one writer.
func (m *Manager) ExtendColumns(dataset string, oldN int, tail map[string]vec.Col) bool {
	m.mu.Lock()
	old := m.entries[dataset]
	m.mu.Unlock()
	if old == nil || old.N != oldN {
		return false
	}
	e := extendEntry(old, tail)
	if e == nil {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries[dataset] != old {
		return false
	}
	e.tick, e.hits = old.tick, old.hits
	m.removeLocked(dataset)
	m.entries[dataset] = e
	if e.Enc != nil {
		m.encodedUsed += e.size
	} else {
		m.hotUsed += e.size
	}
	m.used += e.size
	m.maybeEncodeLocked()
	// The spill file is keyed by the file's content: the old generation's
	// no longer matches anything on disk.
	m.removeSpillFilesLocked(dataset)
	m.spillLocked(m.entries[dataset])
	m.evictLocked()
	return true
}

// extendEntry returns the unpublished successor of the entry old grown
// by tail, or nil when old cannot be extended by it.
func extendEntry(old *Entry, tail map[string]vec.Col) *Entry {
	names := old.ColumnNames()
	if len(names) == 0 || len(names) != len(tail) {
		return nil
	}
	add := -1
	e := &Entry{Dataset: old.Dataset}
	if old.Enc != nil {
		e.Enc = &colenc.Table{Cols: make(map[string]*colenc.Col, len(names))}
	} else {
		e.Cols = make(map[string]vec.Col, len(names))
	}
	for _, name := range names {
		t, ok := tail[name]
		if !ok || (add >= 0 && t.Len() != add) {
			return nil
		}
		add = t.Len()
		if old.Enc != nil {
			col, err := old.Enc.Cols[name].Append(&t)
			if err != nil {
				return nil
			}
			e.Enc.Cols[name] = col
			continue
		}
		oc := old.Cols[name]
		col, ok := oc.Extend(&t)
		if !ok {
			return nil
		}
		e.Cols[name] = col
		e.size += EstimateColBytes(&col)
	}
	e.N = old.N + add
	if e.Enc != nil {
		e.Enc.N = e.N
		e.size = e.Enc.SizeBytes()
	}
	return e
}

// maybeEncodeLocked transitions the coldest entries from flat
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
			if e.Enc != nil {
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
			Dataset: coldest.Dataset, N: coldest.N,
			Enc: tab, size: tab.SizeBytes(), tick: coldest.tick, hits: coldest.hits,
		}
		m.entries[coldestKey] = enc
		m.used += enc.size - coldest.size
		m.hotUsed -= coldest.size
		m.encodedUsed += enc.size
		m.encodes++
	}
}

// GetColumns returns the dataset's entry if it covers all fields.
func (m *Manager) GetColumns(dataset string, fields []string) (*Entry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[dataset]
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
func (m *Manager) Touch(dataset string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[dataset]; ok {
		m.hits++
		e.hits++
		m.touchLocked(e)
	}
}

// Peek returns the dataset's entry without statistics or LRU effects
// (used by the optimizer's cost model to probe residency without
// distorting hit rates).
func (m *Manager) Peek(dataset string, _ Layout) (*Entry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[dataset]
	return e, ok
}

// PeekColumns probes columnar coverage without statistics effects.
func (m *Manager) PeekColumns(dataset string, fields []string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[dataset]
	return ok && e.HasColumns(fields)
}

// Invalidate drops a dataset's entry (file changed), along with any
// spill files: their generation no longer exists.
func (m *Manager) Invalidate(dataset string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.removeLocked(dataset)
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
		fmt.Fprintf(&sb, "%s n=%d size=%dB hits=%d", e.Dataset, e.N, e.size, e.hits)
		if e.Encoded() {
			fmt.Fprintf(&sb, " tier=encoded blocks=%d", e.Enc.NumBlocks())
		}
		if e.Cols != nil {
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

func (m *Manager) removeLocked(dataset string) {
	if e, ok := m.entries[dataset]; ok {
		m.used -= e.size
		if e.Encoded() {
			m.encodedUsed -= e.size
		} else {
			m.hotUsed -= e.size
		}
		delete(m.entries, dataset)
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
