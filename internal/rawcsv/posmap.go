// Package rawcsv implements ViDa's CSV access path: a scanner that treats
// raw CSV files as first-class query inputs, backed by NoDB-style
// positional maps (paper §5, [Alagiannis et al., SIGMOD 2012]). The first
// touch of a file records row-start offsets; the first touch of an
// attribute records the byte position of that attribute in every row.
// Later queries jump straight to the bytes they need instead of
// re-tokenizing the prefix of each row, which is what makes repeated raw
// access competitive with a loaded store.
package rawcsv

import "sync"

// PosMap is the positional map of one CSV file generation: row starts
// plus per-column field offsets (relative to row start) for the columns
// queries have touched so far. It grows adaptively as a side effect of
// scans. When the file changes, Refresh gives the new generation a new
// map: after an append, this one's rows and columns extended by the tail
// (sharing storage — nothing installed here is ever written below its
// length); after any other change, an empty one (paper §2.1).
type PosMap struct {
	mu   sync.RWMutex
	rows []int64         // byte offset of each data row start
	cols map[int][]int32 // column index -> per-row offset of field start, relative to row start
	ends map[int][]int32 // column index -> per-row offset one past field end
}

// NewPosMap returns an empty positional map.
func NewPosMap() *PosMap {
	return &PosMap{cols: map[int][]int32{}, ends: map[int][]int32{}}
}

// HasRows reports whether row starts have been recorded.
func (m *PosMap) HasRows() bool { return m.NumRows() > 0 }

// NumRows returns the number of recorded rows.
func (m *PosMap) NumRows() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.rows)
}

// SetRows installs the row-start offsets, dropping any column that does
// not cover them (see SetCol).
func (m *PosMap) SetRows(rows []int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rows = rows
	for j, c := range m.cols {
		if len(c) != len(rows) {
			delete(m.cols, j)
			delete(m.ends, j)
		}
	}
}

// HasCol reports whether column j's positions are recorded.
func (m *PosMap) HasCol(j int) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.cols[j] != nil
}

// SetCol installs the per-row [start,end) offsets of column j, provided
// they cover every indexed row, and drops them otherwise. This is the
// map's one installation rule, whichever scan located the spans: a
// column is mapped for every row or not at all, so a jump can never land
// on offsets recorded for a different row. A span is positional — it is
// recorded for every row long enough to hold the column, whether or not
// the field converts — so only a row too short for the column keeps it
// out of the map, and the next scan that asks for it locates it again.
func (m *PosMap) SetCol(j int, starts, ends []int32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.rows) == 0 || len(starts) != len(m.rows) || len(ends) != len(m.rows) {
		return
	}
	m.cols[j] = starts
	m.ends[j] = ends
}

// Snapshot is an immutable view of a PosMap taken at one instant: scan
// loops read it without taking the map's lock per row. The row and
// column slices are shared with the map (they are replaced wholesale or
// extended past their length, never mutated below it), so a snapshot
// stays internally consistent even if the map grows or is dropped
// concurrently.
type Snapshot struct {
	Rows []int64
	Cols map[int][]int32
	Ends map[int][]int32
}

// HasCols reports whether every listed column is present in the snapshot.
func (s *Snapshot) HasCols(cols []int) bool {
	for _, j := range cols {
		if s.Cols[j] == nil {
			return false
		}
	}
	return true
}

// Snapshot captures the current rows and columns under one lock
// acquisition. Hot scan paths call it once per scan instead of locking
// per row (the maps are shallow-copied; the slices are shared).
func (m *PosMap) Snapshot() Snapshot {
	m.mu.RLock()
	defer m.mu.RUnlock()
	cols := make(map[int][]int32, len(m.cols))
	for j, c := range m.cols {
		cols[j] = c
	}
	ends := make(map[int][]int32, len(m.ends))
	for j, c := range m.ends {
		ends[j] = c
	}
	return Snapshot{Rows: m.rows, Cols: cols, Ends: ends}
}

// MemoryBytes estimates the map's footprint, reported by the engine's
// statistics (auxiliary structures trade memory for raw-access speed).
func (m *PosMap) MemoryBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	total := int64(len(m.rows) * 8)
	for _, c := range m.cols {
		total += int64(len(c) * 4)
	}
	for _, c := range m.ends {
		total += int64(len(c) * 4)
	}
	return total
}
