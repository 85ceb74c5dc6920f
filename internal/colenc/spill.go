package colenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"vida/internal/vec"
)

// spillMagic and spillVersion gate spill files: an unknown magic is a
// parse error, which callers treat as corruption; a known magic with
// another version is ErrSpillVersion, a file of another format that the
// cache rebuilds from raw. Version 2 bit-packs int and dictionary blocks.
var spillMagic = []byte("VCSP")

const spillVersion = 2

// ErrSpillVersion reports a spill file written in another format version.
var ErrSpillVersion = errors.New("unsupported spill version")

// SpillMeta identifies what a spill file holds: the dataset and the raw
// file generation (content hash) it was encoded from.
type SpillMeta struct {
	Dataset    string
	Generation string
}

func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// WriteSpillFile atomically writes the encoded table to path (temp file
// + rename, so readers never observe a half-written spill).
func WriteSpillFile(path string, meta SpillMeta, t *Table) error {
	header := make([]byte, 0, 256)
	header = appendStr(header, meta.Dataset)
	header = appendStr(header, meta.Generation)
	header = binary.AppendUvarint(header, uint64(t.N))
	header = binary.AppendUvarint(header, uint64(len(t.Cols)))
	var names []string
	for name := range t.Cols {
		names = append(names, name)
	}
	// Deterministic column order keeps the file byte-stable across writes.
	sortStrings(names)
	var body []byte
	for _, name := range names {
		c := t.Cols[name]
		header = appendStr(header, name)
		header = append(header, byte(c.Tag), byte(c.Enc))
		header = binary.AppendUvarint(header, uint64(len(c.Dict)))
		for _, s := range c.Dict {
			header = appendStr(header, s)
		}
		header = binary.AppendUvarint(header, uint64(len(c.Blocks)))
		for i := range c.Blocks {
			b := &c.Blocks[i]
			header = binary.AppendUvarint(header, uint64(b.Rows))
			header = binary.AppendUvarint(header, uint64(len(b.Data)))
			header = binary.LittleEndian.AppendUint32(header, b.CRC)
			body = append(body, b.Data...)
		}
	}
	buf := make([]byte, 0, len(spillMagic)+2+4+len(header)+4+len(body))
	buf = append(buf, spillMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, spillVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(header)))
	buf = append(buf, header...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(header, castagnoli))
	buf = append(buf, body...)

	tmp, err := os.CreateTemp(filepath.Dir(path), ".spill-*")
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

// ReadSpillFile parses and fully validates a spill file: magic, version,
// header checksum, and every block checksum. Any deviation — truncation,
// bit rot, unknown layout — returns an error without panicking, so the
// cache layer can quarantine the file.
func ReadSpillFile(path string) (SpillMeta, *Table, error) {
	var meta SpillMeta
	raw, err := os.ReadFile(path)
	if err != nil {
		return meta, nil, err
	}
	if len(raw) < len(spillMagic)+6 || string(raw[:len(spillMagic)]) != string(spillMagic) {
		return meta, nil, fmt.Errorf("colenc: %s: not a spill file", path)
	}
	off := len(spillMagic)
	if v := binary.LittleEndian.Uint16(raw[off:]); v != spillVersion {
		return meta, nil, fmt.Errorf("colenc: %s: %w %d", path, ErrSpillVersion, v)
	}
	off += 2
	hlen := int(binary.LittleEndian.Uint32(raw[off:]))
	off += 4
	if hlen < 0 || len(raw) < off+hlen+4 {
		return meta, nil, fmt.Errorf("colenc: %s: truncated header", path)
	}
	header := raw[off : off+hlen]
	off += hlen
	if got := binary.LittleEndian.Uint32(raw[off:]); got != crc32.Checksum(header, castagnoli) {
		return meta, nil, fmt.Errorf("colenc: %s: header checksum mismatch", path)
	}
	off += 4

	pos := 0
	uv := func() (uint64, error) {
		v, w := binary.Uvarint(header[pos:])
		if w <= 0 {
			return 0, fmt.Errorf("colenc: %s: truncated header varint", path)
		}
		pos += w
		return v, nil
	}
	str := func() (string, error) {
		n, err := uv()
		if err != nil {
			return "", err
		}
		if uint64(len(header)-pos) < n {
			return "", fmt.Errorf("colenc: %s: truncated header string", path)
		}
		s := string(header[pos : pos+int(n)])
		pos += int(n)
		return s, nil
	}
	if meta.Dataset, err = str(); err != nil {
		return meta, nil, err
	}
	if meta.Generation, err = str(); err != nil {
		return meta, nil, err
	}
	nRows, err := uv()
	if err != nil {
		return meta, nil, err
	}
	nCols, err := uv()
	if err != nil {
		return meta, nil, err
	}
	if nCols > 1<<20 {
		return meta, nil, fmt.Errorf("colenc: %s: implausible column count %d", path, nCols)
	}
	t := &Table{N: int(nRows), Cols: make(map[string]*Col, nCols)}
	for ci := uint64(0); ci < nCols; ci++ {
		name, err := str()
		if err != nil {
			return meta, nil, err
		}
		if pos+2 > len(header) {
			return meta, nil, fmt.Errorf("colenc: %s: truncated column header", path)
		}
		c := &Col{Tag: vec.Tag(header[pos]), Enc: Encoding(header[pos+1]), N: int(nRows)}
		pos += 2
		nDict, err := uv()
		if err != nil {
			return meta, nil, err
		}
		if nDict > vec.MaxDictSize {
			return meta, nil, fmt.Errorf("colenc: %s: implausible dictionary size %d", path, nDict)
		}
		for di := uint64(0); di < nDict; di++ {
			s, err := str()
			if err != nil {
				return meta, nil, err
			}
			c.Dict = append(c.Dict, s)
		}
		nBlocks, err := uv()
		if err != nil {
			return meta, nil, err
		}
		rows := 0
		for bi := uint64(0); bi < nBlocks; bi++ {
			r, err := uv()
			if err != nil {
				return meta, nil, err
			}
			dlen, err := uv()
			if err != nil {
				return meta, nil, err
			}
			if pos+4 > len(header) {
				return meta, nil, fmt.Errorf("colenc: %s: truncated block header", path)
			}
			crc := binary.LittleEndian.Uint32(header[pos:])
			pos += 4
			if uint64(len(raw)-off) < dlen {
				return meta, nil, fmt.Errorf("colenc: %s: truncated block data", path)
			}
			data := raw[off : off+int(dlen)]
			off += int(dlen)
			if crc32.Checksum(data, castagnoli) != crc {
				return meta, nil, fmt.Errorf("colenc: %s: block checksum mismatch (column %q block %d)", path, name, bi)
			}
			// Scans find a row's block by dividing by BlockRows: only the
			// last block may be short.
			if r > BlockRows || (r < BlockRows && bi+1 < nBlocks) {
				return meta, nil, fmt.Errorf("colenc: %s: column %q block %d holds %d rows", path, name, bi, r)
			}
			c.Blocks = append(c.Blocks, Block{Rows: int(r), Data: data, CRC: crc})
			rows += int(r)
		}
		if rows != int(nRows) {
			return meta, nil, fmt.Errorf("colenc: %s: column %q holds %d rows, want %d", path, name, rows, nRows)
		}
		t.Cols[name] = c
	}
	return meta, t, nil
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
