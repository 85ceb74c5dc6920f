package rawcsv

import (
	"vida/internal/rawfile"
	"vida/internal/vec"
)

// Follow returns the reader over next, the successor of r's file that
// rawfile.Generation.Next reported as ch (Appended or Replaced), and the
// change as the positional map takes it. It never changes the receiver and
// reads nothing of the data file. An append extends the positional map by
// the tail — a sidecar recorded by UseAux loads first — provided this
// generation has a row index (else there is nothing to keep) and ends on a
// row boundary (else the tail continues its last row); any other change,
// or a failed rung, starts the successor on an empty map (Replaced).
// Either way the successor answers exactly like a reader built fresh over
// next.
func (r *Reader) Follow(next *rawfile.Generation, ch rawfile.Change) (*Reader, rawfile.Change) {
	succ := &Reader{shared: r.shared, file: next, data: next.Bytes(), pm: NewPosMap()}
	if ch.Kind == rawfile.Replaced {
		return succ, ch
	}
	snap := r.PosMap().Snapshot()
	switch {
	case len(snap.Rows) == 0:
		return succ, rawfile.Change{Kind: rawfile.Replaced, Reason: "no positional map to extend"}
	case r.data[len(r.data)-1] != '\n':
		return succ, rawfile.Change{Kind: rawfile.Replaced, Reason: "previous generation ended mid-row"}
	}
	if !r.extended.CompareAndSwap(false, true) {
		snap.clip()
	}
	succ.pm = r.extendPosMap(&snap, succ.data, int64(len(r.data)))
	ch.OldRows, ch.NewRows = len(snap.Rows), succ.pm.NumRows()
	r.stats.BytesRead.Add(ch.TailBytes)
	return succ, ch
}

// clipped returns s without its spare capacity, so appending to it copies.
func clipped[T any](s []T) []T { return s[:len(s):len(s)] }

// clip drops the spare capacity of every array of the snapshot.
func (s *Snapshot) clip() {
	s.Rows = clipped(s.Rows)
	for j := range s.Cols {
		s.Cols[j], s.Ends[j] = clipped(s.Cols[j]), clipped(s.Ends[j])
	}
}

// extendPosMap builds the positional map of data from snap, the map of
// its first `from` bytes: the lines past from are indexed as rows and
// tokenized for exactly the columns snap has mapped, under the map's one
// installation rule (PosMap.SetCol) — a mapped column that some tail row
// is too short to hold is left out of the result and located again by
// the next scan that asks for it.
func (r *Reader) extendPosMap(snap *Snapshot, data []byte, from int64) *PosMap {
	cols := make([]int, 0, len(snap.Cols))
	for j := range snap.Cols {
		cols = append(cols, j)
	}
	outPos, maxCol := r.outPositions(cols)
	var rows []int64
	starts := make([][]int32, len(cols))
	ends := make([][]int32, len(cols))
	spanS := make([]int32, len(cols))
	spanE := make([]int32, len(cols))
	for off := from; off < int64(len(data)); {
		line, next := nextLine(data, off)
		if len(line) > 0 {
			rows = append(rows, off)
			reached := r.fieldSpans(line, outPos, maxCol, spanS, spanE)
			for i, j := range cols {
				if j < reached {
					starts[i] = append(starts[i], spanS[i])
					ends[i] = append(ends[i], spanE[i])
				}
			}
		}
		off = next
	}
	r.stats.FieldsTokenized.Add(int64(len(rows) * len(cols)))
	pm := NewPosMap()
	pm.SetRows(vec.AppendBounded(snap.Rows, rows))
	for i, j := range cols {
		pm.SetCol(j, vec.AppendBounded(snap.Cols[j], starts[i]), vec.AppendBounded(snap.Ends[j], ends[i]))
	}
	return pm
}
