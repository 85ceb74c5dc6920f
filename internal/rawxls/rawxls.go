// Package rawxls implements ViDa's spreadsheet access path. The paper's
// prototype "supports queries over JSON, CSV, XLS, ROOT, and files
// containing binary arrays" (§6); real XLS is a proprietary OLE compound
// format, so this package defines a small binary sheet format with typed
// cells (the simulation substitute per DESIGN.md) exercising the same
// plugin machinery: typed columns, nullable cells, row-unit access.
//
// File layout (little-endian):
//
//	magic "VXLS" | version u16 | ncols u16
//	cols : ncols × { nameLen u8, name, type u8 (0=int,1=float,2=string,3=bool) }
//	nrows u32
//	rows : cells in column order; each cell = tag u8 (0=null, 1=value)
//	       followed by the value encoding (i64 | f64 | u32 len + bytes | u8)
package rawxls

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"vida/internal/rawfile"
	"vida/internal/sdg"
	"vida/internal/values"
)

const magic = "VXLS"

// ColType is the declared type of a sheet column.
type ColType uint8

// The column types.
const (
	ColInt ColType = iota
	ColFloat
	ColString
	ColBool
)

// Sheet describes a spreadsheet's columns.
type Sheet struct {
	ColNames []string
	ColTypes []ColType
}

// Write creates a sheet file; next is called once per row and returns the
// row's cell values (values.Null for empty cells), or false to finish.
func Write(path string, s *Sheet, rows [][]values.Value) error {
	if len(s.ColNames) != len(s.ColTypes) {
		return fmt.Errorf("rawxls: column names/types mismatch")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, 0, 1024)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint16(buf, 1)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s.ColNames)))
	for i, n := range s.ColNames {
		buf = append(buf, byte(len(n)))
		buf = append(buf, n...)
		buf = append(buf, byte(s.ColTypes[i]))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rows)))
	for _, row := range rows {
		if len(row) != len(s.ColNames) {
			return fmt.Errorf("rawxls: row has %d cells, want %d", len(row), len(s.ColNames))
		}
		for c, v := range row {
			if v.IsNull() {
				buf = append(buf, 0)
				continue
			}
			buf = append(buf, 1)
			switch s.ColTypes[c] {
			case ColInt:
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Int()))
			case ColFloat:
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float()))
			case ColString:
				str := v.Str()
				buf = binary.LittleEndian.AppendUint32(buf, uint32(len(str)))
				buf = append(buf, str...)
			case ColBool:
				if v.Bool() {
					buf = append(buf, 1)
				} else {
					buf = append(buf, 0)
				}
			}
		}
	}
	_, err = f.Write(buf)
	return err
}

// Reader provides row-unit access to one sheet file; it implements
// algebra.Source.
type Reader struct {
	desc    *sdg.Description
	file    *rawfile.Generation
	sheet   Sheet
	rowOffs []int
	data    []byte
	colIdx  map[string]int
}

// Open loads the sheet file described by desc and builds a reader over it.
func Open(desc *sdg.Description) (*Reader, error) {
	file, err := rawfile.Load(desc.Path)
	if err != nil {
		return nil, fmt.Errorf("rawxls: %s: %w", desc.Name, err)
	}
	return New(desc, file)
}

// File returns the file generation this reader reads.
func (r *Reader) File() *rawfile.Generation { return r.file }

// New indexes the rows of one generation of the sheet file described by
// desc. A row count the body cannot hold — every cell takes at least its
// tag byte — is refused before anything is allocated for it, and so is a
// sheet without columns that claims rows.
func New(desc *sdg.Description, file *rawfile.Generation) (*Reader, error) {
	raw := file.Bytes()
	if len(raw) < 8 || string(raw[:4]) != magic {
		return nil, fmt.Errorf("rawxls: %s: bad magic", desc.Name)
	}
	pos := 4
	if v := binary.LittleEndian.Uint16(raw[pos:]); v != 1 {
		return nil, fmt.Errorf("rawxls: %s: unsupported version %d", desc.Name, v)
	}
	pos += 2
	ncols := int(binary.LittleEndian.Uint16(raw[pos:]))
	pos += 2
	r := &Reader{desc: desc, file: file, data: raw, colIdx: map[string]int{}}
	for i := 0; i < ncols; i++ {
		if pos >= len(raw) {
			return nil, fmt.Errorf("rawxls: %s: truncated columns", desc.Name)
		}
		n := int(raw[pos])
		pos++
		if pos+n+1 > len(raw) {
			return nil, fmt.Errorf("rawxls: %s: truncated column name", desc.Name)
		}
		r.sheet.ColNames = append(r.sheet.ColNames, string(raw[pos:pos+n]))
		pos += n
		r.sheet.ColTypes = append(r.sheet.ColTypes, ColType(raw[pos]))
		pos++
	}
	if pos+4 > len(raw) {
		return nil, fmt.Errorf("rawxls: %s: truncated row count", desc.Name)
	}
	nrows := int(binary.LittleEndian.Uint32(raw[pos:]))
	pos += 4
	switch {
	case ncols == 0 && nrows > 0:
		return nil, fmt.Errorf("rawxls: %s: %d rows without a column", desc.Name, nrows)
	case ncols > 0 && nrows > (len(raw)-pos)/ncols:
		return nil, fmt.Errorf("rawxls: %s: %d rows of %d cells do not fit %d bytes", desc.Name, nrows, ncols, len(raw)-pos)
	}
	// Index row offsets up front: cells are variable width (strings).
	r.rowOffs = make([]int, 0, nrows)
	for i := 0; i < nrows; i++ {
		r.rowOffs = append(r.rowOffs, pos)
		for c := 0; c < ncols; c++ {
			if pos >= len(raw) {
				return nil, fmt.Errorf("rawxls: %s: truncated row %d", desc.Name, i)
			}
			tag := raw[pos]
			pos++
			if tag == 0 {
				continue
			}
			switch r.sheet.ColTypes[c] {
			case ColInt, ColFloat:
				pos += 8
			case ColString:
				if pos+4 > len(raw) {
					return nil, fmt.Errorf("rawxls: %s: truncated string cell", desc.Name)
				}
				pos += 4 + int(binary.LittleEndian.Uint32(raw[pos:]))
			case ColBool:
				pos++
			}
			if pos > len(raw) {
				return nil, fmt.Errorf("rawxls: %s: truncated cell payload", desc.Name)
			}
		}
	}
	for i, n := range r.sheet.ColNames {
		r.colIdx[n] = i
	}
	return r, nil
}

// Name implements algebra.Source.
func (r *Reader) Name() string { return r.desc.Name }

// NumRows returns the sheet's row count.
func (r *Reader) NumRows() int { return len(r.rowOffs) }

// Columns returns the sheet header.
func (r *Reader) Columns() Sheet { return r.sheet }

// Row decodes row i, optionally projecting the named fields.
func (r *Reader) Row(i int, fields []string) (values.Value, error) {
	if i < 0 || i >= len(r.rowOffs) {
		return values.Null, fmt.Errorf("rawxls: row %d out of range", i)
	}
	need := map[int]bool{}
	if len(fields) == 0 {
		for c := range r.sheet.ColNames {
			need[c] = true
		}
	} else {
		for _, f := range fields {
			c, ok := r.colIdx[f]
			if !ok {
				return values.Null, fmt.Errorf("rawxls: %s has no column %q", r.desc.Name, f)
			}
			need[c] = true
		}
	}
	pos := r.rowOffs[i]
	out := make([]values.Field, 0, len(need))
	for c := 0; c < len(r.sheet.ColNames); c++ {
		tag := r.data[pos]
		pos++
		var v values.Value
		width := 0
		if tag != 0 {
			switch r.sheet.ColTypes[c] {
			case ColInt:
				v = values.NewInt(int64(binary.LittleEndian.Uint64(r.data[pos:])))
				width = 8
			case ColFloat:
				v = values.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(r.data[pos:])))
				width = 8
			case ColString:
				n := int(binary.LittleEndian.Uint32(r.data[pos:]))
				v = values.NewString(string(r.data[pos+4 : pos+4+n]))
				width = 4 + n
			case ColBool:
				v = values.NewBool(r.data[pos] != 0)
				width = 1
			}
		}
		if need[c] {
			out = append(out, values.Field{Name: r.sheet.ColNames[c], Val: v})
		}
		pos += width
	}
	return values.NewRecord(out...), nil
}

// Iterate implements algebra.Source.
func (r *Reader) Iterate(fields []string, yield func(values.Value) error) error {
	for i := range r.rowOffs {
		v, err := r.Row(i, fields)
		if err != nil {
			return err
		}
		if err := yield(v); err != nil {
			return err
		}
	}
	return nil
}

// SizeBytes returns the file size.
func (r *Reader) SizeBytes() int64 { return int64(len(r.data)) }
