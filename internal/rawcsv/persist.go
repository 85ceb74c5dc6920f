package rawcsv

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// This file persists the per-file auxiliary state across restarts:
//
//   - Generation keys the current file content (a memoized content
//     hash), so spilled cache blocks written against one generation are
//     never trusted for another.
//   - SaveAux/LoadAux write and read a positional-map sidecar. The
//     sidecar is versioned, validated against the file's current
//     mtime+size, and CRC-protected; any mismatch falls back to a
//     fresh first-touch build instead of trusting stale offsets.

var auxMagic = []byte("VAUX")

const auxVersion = 1

var auxCRCTable = crc32.MakeTable(crc32.Castagnoli)

// Generation returns a short hex key for the current file content. Two
// files with identical bytes share a generation regardless of path or
// mtime, which is what lets a regenerated-but-identical demo dataset
// rehydrate spilled cache blocks after a restart. The checksum is
// computed once per reader (every cache spill asks for it), and a
// successor derived by an appending Refresh extends its predecessor's
// over the tail instead of re-hashing the file.
func (r *Reader) Generation() string {
	r.crcMu.Lock()
	if !r.crcOK {
		r.crc, r.crcOK = crc32.Checksum(r.data, auxCRCTable), true
	}
	crc := r.crc
	r.crcMu.Unlock()
	return fmt.Sprintf("%08x-%x", crc, len(r.data))
}

// SaveAux writes the positional map to path (atomically, via
// temp+rename). A map with no recorded rows is not worth persisting and
// saves nothing.
func (r *Reader) SaveAux(path string) error {
	snap := r.pm.Snapshot()
	if len(snap.Rows) == 0 {
		return nil
	}
	body := make([]byte, 0, 64+8*len(snap.Rows))
	body = binary.AppendVarint(body, r.mtime.UnixNano())
	body = binary.AppendUvarint(body, uint64(len(r.data)))
	body = binary.AppendUvarint(body, uint64(len(snap.Rows)))
	for _, off := range snap.Rows {
		body = binary.AppendUvarint(body, uint64(off))
	}
	body = binary.AppendUvarint(body, uint64(len(snap.Cols)))
	for j, starts := range snap.Cols { // every mapped column covers every row (PosMap.SetCol)
		ends := snap.Ends[j]
		body = binary.AppendUvarint(body, uint64(j))
		for i := range starts {
			body = binary.AppendUvarint(body, uint64(uint32(starts[i])))
			body = binary.AppendUvarint(body, uint64(uint32(ends[i])))
		}
	}
	buf := make([]byte, 0, len(auxMagic)+2+len(body)+4)
	buf = append(buf, auxMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, auxVersion)
	buf = append(buf, body...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, auxCRCTable))

	tmp, err := os.CreateTemp(filepath.Dir(path), ".aux-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadAux installs a previously saved positional map, provided the
// sidecar is intact and still describes the file on disk (same mtime
// and size). Returns false when the sidecar is absent, stale, or
// corrupt — the caller then just rebuilds on first touch; a malformed
// sidecar is also an error so callers can log it.
func (r *Reader) LoadAux(path string) (bool, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	if len(raw) < len(auxMagic)+6 || string(raw[:len(auxMagic)]) != string(auxMagic) {
		return false, fmt.Errorf("rawcsv: %s: not a posmap sidecar", path)
	}
	off := len(auxMagic)
	if v := binary.LittleEndian.Uint16(raw[off:]); v != auxVersion {
		return false, fmt.Errorf("rawcsv: %s: unsupported sidecar version %d", path, v)
	}
	off += 2
	body := raw[off : len(raw)-4]
	if got := binary.LittleEndian.Uint32(raw[len(raw)-4:]); got != crc32.Checksum(body, auxCRCTable) {
		return false, fmt.Errorf("rawcsv: %s: sidecar checksum mismatch", path)
	}

	pos := 0
	uv := func() (uint64, error) {
		v, w := binary.Uvarint(body[pos:])
		if w <= 0 {
			return 0, fmt.Errorf("rawcsv: %s: truncated sidecar", path)
		}
		pos += w
		return v, nil
	}
	mtime, w := binary.Varint(body[pos:])
	if w <= 0 {
		return false, fmt.Errorf("rawcsv: %s: truncated sidecar", path)
	}
	pos += w
	size, err := uv()
	if err != nil {
		return false, err
	}
	if r.mtime.UnixNano() != mtime || uint64(len(r.data)) != size {
		return false, nil // file changed since the sidecar was written
	}
	nRows, err := uv()
	if err != nil {
		return false, err
	}
	if nRows > uint64(len(r.data))+1 {
		return false, fmt.Errorf("rawcsv: %s: implausible row count %d", path, nRows)
	}
	rows := make([]int64, nRows)
	for i := range rows {
		v, err := uv()
		if err != nil {
			return false, err
		}
		if v > uint64(len(r.data)) {
			return false, fmt.Errorf("rawcsv: %s: row offset %d out of range", path, v)
		}
		rows[i] = int64(v)
	}
	nCols, err := uv()
	if err != nil {
		return false, err
	}
	if nCols > uint64(len(r.rowType.Attrs)) {
		return false, fmt.Errorf("rawcsv: %s: implausible column count %d", path, nCols)
	}
	type colPair struct {
		j            int
		starts, ends []int32
	}
	var cols []colPair
	for c := uint64(0); c < nCols; c++ {
		j, err := uv()
		if err != nil {
			return false, err
		}
		if j >= uint64(len(r.rowType.Attrs)) {
			return false, fmt.Errorf("rawcsv: %s: column index %d out of range", path, j)
		}
		starts := make([]int32, nRows)
		ends := make([]int32, nRows)
		for i := uint64(0); i < nRows; i++ {
			s, err := uv()
			if err != nil {
				return false, err
			}
			e, err := uv()
			if err != nil {
				return false, err
			}
			starts[i], ends[i] = int32(uint32(s)), int32(uint32(e))
		}
		cols = append(cols, colPair{j: int(j), starts: starts, ends: ends})
	}
	r.pm.SetRows(rows)
	for _, c := range cols {
		r.pm.SetCol(c.j, c.starts, c.ends)
	}
	return true, nil
}
