package rawcsv

import (
	"bytes"
	"hash/crc32"
	"io"
	"os"

	"vida/internal/vec"
)

// This file is the append path of Refresh: a file that only grew keeps
// the generation in memory and pays for the tail alone — one streaming
// comparison of the old prefix, one read and one tokenizing pass of the
// new bytes. Every intermediate state answers exactly like a reader
// opened fresh on the grown file; anything that is not provably an append
// returns no successor and Refresh rebuilds wholesale.

// verifyChunk is the buffer the prefix comparison streams the file
// through: large enough that read syscalls do not dominate, small enough
// to stay out of the way of the heap (a 24 MB prefix verifies in ~3 ms).
const verifyChunk = 1 << 20

// appendGeneration derives the successor of r when the file on disk is
// r's bytes plus a tail. It returns no successor and a Replaced change
// naming the failed rung otherwise.
func (r *Reader) appendGeneration() (*Reader, Change, error) {
	replaced := func(reason string) (*Reader, Change, error) {
		return nil, Change{Kind: Replaced, Reason: reason}, nil
	}
	f, err := os.Open(r.desc.Path)
	if err != nil {
		return nil, Change{}, err
	}
	defer f.Close()
	// Size and mtime come from the handle the bytes are read through: an
	// atomic-rename replace between the caller's stat and this open must
	// not pair one file's mtime with another's content.
	fi, err := f.Stat()
	if err != nil {
		return nil, Change{}, err
	}
	old, size := int64(len(r.data)), fi.Size()
	snap := r.pm.Snapshot()
	switch {
	case size <= old:
		return replaced("file did not grow")
	case len(snap.Rows) == 0:
		return replaced("no positional map to extend")
	case r.data[old-1] != '\n':
		return replaced("previous generation ended mid-row")
	}
	same, err := prefixEqual(f, r.data)
	if err != nil {
		return nil, Change{}, err
	}
	if !same {
		return replaced("prefix differs from the generation in memory")
	}
	// The first successor takes r's spare capacity, invisible to r, and
	// reads the tail into it when it fits; a later successor, or a tail
	// that does not fit, reallocates with bounded headroom.
	data := r.data
	if !r.extended.CompareAndSwap(false, true) {
		data = clipped(data)
		snap.clip()
	}
	if int64(cap(data)) < size {
		data = make([]byte, old, size+int64(vec.Spare(int(size))))
		copy(data, r.data)
	}
	data = data[:size]
	if _, err := io.ReadFull(f, data[old:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return replaced("file shrank while its tail was read")
		}
		return nil, Change{}, err
	}
	next := &Reader{shared: r.shared, data: data, mtime: fi.ModTime(), pm: r.extendPosMap(&snap, data, old)}
	r.crcMu.Lock()
	if r.crcOK {
		next.crc, next.crcOK = crc32.Update(r.crc, auxCRCTable, data[old:]), true
	}
	r.crcMu.Unlock()
	ch := Change{Kind: Appended, OldRows: len(snap.Rows), NewRows: next.pm.NumRows(), TailBytes: size - old}
	r.stats.BytesRead.Add(ch.TailBytes)
	return next, ch, nil
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

// prefixEqual reports whether f starts with want, reading it through a
// fixed buffer. A file shorter than want is simply not equal.
func prefixEqual(f io.Reader, want []byte) (bool, error) {
	buf := make([]byte, min(verifyChunk, len(want)))
	for len(want) > 0 {
		n, err := io.ReadFull(f, buf[:min(len(buf), len(want))])
		if !bytes.Equal(buf[:n], want[:n]) {
			return false, nil
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return false, nil
		}
		if err != nil {
			return false, err
		}
		want = want[n:]
	}
	return true, nil
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
