// Package rawarr implements ViDa's binary array access path. The paper's
// prototype queries "files containing binary arrays" (§6) — the data shape
// of scientific formats like ROOT, FITS and NetCDF (§3.1). This package
// defines a compact binary matrix format (the simulation substitute for
// those proprietary formats, per DESIGN.md) and a reader that exposes the
// access units the paper enumerates: single elements, rows, columns and
// n×m chunks.
//
// File layout (little-endian):
//
//	magic "VARR" | version u16 | ndims u8 | nfields u8
//	dims   : ndims  × u32
//	fields : nfields × { nameLen u8, name, type u8 (0=int64, 1=float64) }
//	data   : Π(dims) cells × nfields × 8 bytes, row-major, field-major
package rawarr

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"vida/internal/rawfile"
	"vida/internal/sdg"
	"vida/internal/values"
)

const magic = "VARR"

// FieldType is the storage type of one cell field.
type FieldType uint8

// The cell field types.
const (
	FieldInt FieldType = iota
	FieldFloat
)

// Header describes the array stored in a file.
type Header struct {
	Dims       []int
	FieldNames []string
	FieldTypes []FieldType
}

// Cells returns the total number of cells.
func (h *Header) Cells() int {
	n := 1
	for _, d := range h.Dims {
		n *= d
	}
	return n
}

func (h *Header) cellBytes() int { return len(h.FieldNames) * 8 }

// fits checks that the header's cells fill exactly payload bytes:
// Π(dims) × 8·nfields, computed without wrapping. Cells never outnumber
// payload bytes, so a header with cells but no field does not fit either.
func (h *Header) fits(payload int) error {
	cells := 1
	for _, d := range h.Dims {
		if d != 0 && cells > payload/d {
			return fmt.Errorf("%d dims claim more cells than a %d-byte payload holds", len(h.Dims), payload)
		}
		cells *= d
	}
	if cells*h.cellBytes() != payload {
		return fmt.Errorf("payload is %d bytes, want %d", payload, cells*h.cellBytes())
	}
	return nil
}

// Write creates an array file with the given header and cell data
// supplied by next, called once per cell in row-major order; each call
// returns the field values for one cell.
func Write(path string, h *Header, next func(cell int) ([]values.Value, error)) error {
	if len(h.FieldNames) != len(h.FieldTypes) {
		return fmt.Errorf("rawarr: field names/types mismatch")
	}
	if len(h.FieldNames) == 0 {
		return fmt.Errorf("rawarr: an array needs a field")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, 0, 256)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint16(buf, 1)
	buf = append(buf, byte(len(h.Dims)), byte(len(h.FieldNames)))
	for _, d := range h.Dims {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
	}
	for i, name := range h.FieldNames {
		if len(name) > 255 {
			return fmt.Errorf("rawarr: field name too long")
		}
		buf = append(buf, byte(len(name)))
		buf = append(buf, name...)
		buf = append(buf, byte(h.FieldTypes[i]))
	}
	if _, err := f.Write(buf); err != nil {
		return err
	}
	cells := h.Cells()
	row := make([]byte, h.cellBytes())
	for c := 0; c < cells; c++ {
		vals, err := next(c)
		if err != nil {
			return err
		}
		if len(vals) != len(h.FieldNames) {
			return fmt.Errorf("rawarr: cell %d has %d fields, want %d", c, len(vals), len(h.FieldNames))
		}
		for i, v := range vals {
			var u uint64
			switch h.FieldTypes[i] {
			case FieldInt:
				u = uint64(v.Int())
			case FieldFloat:
				u = math.Float64bits(v.Float())
			}
			binary.LittleEndian.PutUint64(row[i*8:], u)
		}
		if _, err := f.Write(row); err != nil {
			return err
		}
	}
	return nil
}

// Reader provides access-unit reads over one array file. It implements
// algebra.Source: iteration yields one record per cell carrying the dim
// indices plus the cell fields.
type Reader struct {
	desc     *sdg.Description
	file     *rawfile.Generation
	hdr      Header
	data     []byte // cell payload only
	dimNames []string
	colIdx   map[string]int
}

// Open loads the array file described by desc and builds a reader over it.
func Open(desc *sdg.Description) (*Reader, error) {
	file, err := rawfile.Load(desc.Path)
	if err != nil {
		return nil, fmt.Errorf("rawarr: %s: %w", desc.Name, err)
	}
	return New(desc, file)
}

// File returns the file generation this reader reads.
func (r *Reader) File() *rawfile.Generation { return r.file }

// New parses the header of one generation of the array file described by
// desc. Dimension names come from the description's Array schema when
// present (d0, d1, ... otherwise). A header whose cells do not fill the
// payload exactly (Header.fits), or whose rank is not the described
// array's, is refused: the reader then never addresses past the file, and
// it yields no more cells than the file has bytes.
func New(desc *sdg.Description, file *rawfile.Generation) (*Reader, error) {
	raw := file.Bytes()
	if len(raw) < 8 || string(raw[:4]) != magic {
		return nil, fmt.Errorf("rawarr: %s: bad magic", desc.Name)
	}
	pos := 4
	version := binary.LittleEndian.Uint16(raw[pos:])
	if version != 1 {
		return nil, fmt.Errorf("rawarr: %s: unsupported version %d", desc.Name, version)
	}
	pos += 2
	ndims := int(raw[pos])
	nfields := int(raw[pos+1])
	pos += 2
	var h Header
	if len(raw) < pos+4*ndims {
		return nil, fmt.Errorf("rawarr: %s: truncated dims", desc.Name)
	}
	for i := 0; i < ndims; i++ {
		h.Dims = append(h.Dims, int(binary.LittleEndian.Uint32(raw[pos:])))
		pos += 4
	}
	for i := 0; i < nfields; i++ {
		if pos >= len(raw) {
			return nil, fmt.Errorf("rawarr: %s: truncated fields", desc.Name)
		}
		n := int(raw[pos])
		pos++
		if pos+n+1 > len(raw) {
			return nil, fmt.Errorf("rawarr: %s: truncated field name", desc.Name)
		}
		h.FieldNames = append(h.FieldNames, string(raw[pos:pos+n]))
		pos += n
		h.FieldTypes = append(h.FieldTypes, FieldType(raw[pos]))
		pos++
	}
	if err := h.fits(len(raw) - pos); err != nil {
		return nil, fmt.Errorf("rawarr: %s: %w", desc.Name, err)
	}
	r := &Reader{desc: desc, file: file, hdr: h, data: raw[pos:], colIdx: map[string]int{}}
	if desc.Schema != nil && desc.Schema.Kind == sdg.TArray {
		if len(desc.Schema.Dims) != ndims {
			return nil, fmt.Errorf("rawarr: %s: the file has %d dims, its description %d", desc.Name, ndims, len(desc.Schema.Dims))
		}
		for _, d := range desc.Schema.Dims {
			r.dimNames = append(r.dimNames, d.Name)
		}
	}
	for len(r.dimNames) < ndims {
		r.dimNames = append(r.dimNames, fmt.Sprintf("d%d", len(r.dimNames)))
	}
	for i, n := range h.FieldNames {
		r.colIdx[n] = i
	}
	return r, nil
}

// Name implements algebra.Source.
func (r *Reader) Name() string { return r.desc.Name }

// Header returns the parsed file header.
func (r *Reader) Header() Header { return r.hdr }

// DimNames returns the dimension variable names.
func (r *Reader) DimNames() []string { return r.dimNames }

// field reads field f of flattened cell c.
func (r *Reader) field(c, f int) values.Value {
	off := c*r.hdr.cellBytes() + f*8
	u := binary.LittleEndian.Uint64(r.data[off:])
	if r.hdr.FieldTypes[f] == FieldInt {
		return values.NewInt(int64(u))
	}
	return values.NewFloat(math.Float64frombits(u))
}

// Cell returns the record of one cell's fields at the given indices
// (UnitElement access).
func (r *Reader) Cell(idx ...int) (values.Value, error) {
	c, err := r.flatten(idx)
	if err != nil {
		return values.Null, err
	}
	fields := make([]values.Field, len(r.hdr.FieldNames))
	for f, n := range r.hdr.FieldNames {
		fields[f] = values.Field{Name: n, Val: r.field(c, f)}
	}
	return values.NewRecord(fields...), nil
}

func (r *Reader) flatten(idx []int) (int, error) {
	if len(idx) != len(r.hdr.Dims) {
		return 0, fmt.Errorf("rawarr: index rank %d != array rank %d", len(idx), len(r.hdr.Dims))
	}
	c := 0
	for d, i := range idx {
		if i < 0 || i >= r.hdr.Dims[d] {
			return 0, fmt.Errorf("rawarr: index %d out of range for dim %d", i, d)
		}
		c = c*r.hdr.Dims[d] + i
	}
	return c, nil
}

// Row returns all cells of row i of a 2-D array (UnitRow access).
func (r *Reader) Row(i int) ([]values.Value, error) {
	if len(r.hdr.Dims) != 2 {
		return nil, fmt.Errorf("rawarr: Row needs a 2-D array")
	}
	if i < 0 || i >= r.hdr.Dims[0] {
		return nil, fmt.Errorf("rawarr: row %d out of range", i)
	}
	out := make([]values.Value, r.hdr.Dims[1])
	for j := range out {
		v, err := r.Cell(i, j)
		if err != nil {
			return nil, err
		}
		out[j] = v
	}
	return out, nil
}

// Column returns all cells of column j of a 2-D array (UnitColumn access).
func (r *Reader) Column(j int) ([]values.Value, error) {
	if len(r.hdr.Dims) != 2 {
		return nil, fmt.Errorf("rawarr: Column needs a 2-D array")
	}
	if j < 0 || j >= r.hdr.Dims[1] {
		return nil, fmt.Errorf("rawarr: column %d out of range", j)
	}
	out := make([]values.Value, r.hdr.Dims[0])
	for i := range out {
		v, err := r.Cell(i, j)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Chunk yields cells [lo,hi) in flattened row-major order (UnitChunk
// access, the customary unit for array stores).
func (r *Reader) Chunk(lo, hi int, yield func(cell int, v values.Value) error) error {
	if lo < 0 || hi > r.hdr.Cells() || lo > hi {
		return fmt.Errorf("rawarr: chunk [%d,%d) out of range", lo, hi)
	}
	for c := lo; c < hi; c++ {
		fields := make([]values.Field, len(r.hdr.FieldNames))
		for f, n := range r.hdr.FieldNames {
			fields[f] = values.Field{Name: n, Val: r.field(c, f)}
		}
		if err := yield(c, values.NewRecord(fields...)); err != nil {
			return err
		}
	}
	return nil
}

// Iterate implements algebra.Source: every cell becomes a record of dim
// indices plus cell fields, optionally projected.
func (r *Reader) Iterate(fields []string, yield func(values.Value) error) error {
	type colSel struct {
		name  string
		dim   int // >= 0: dimension index; -1: data field
		field int
	}
	var sel []colSel
	if len(fields) == 0 {
		for d, n := range r.dimNames {
			sel = append(sel, colSel{name: n, dim: d})
		}
		for f, n := range r.hdr.FieldNames {
			sel = append(sel, colSel{name: n, dim: -1, field: f})
		}
	} else {
		for _, f := range fields {
			if fi, ok := r.colIdx[f]; ok {
				sel = append(sel, colSel{name: f, dim: -1, field: fi})
				continue
			}
			found := false
			for d, n := range r.dimNames {
				if n == f {
					sel = append(sel, colSel{name: f, dim: d})
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("rawarr: %s has no field %q", r.desc.Name, f)
			}
		}
	}
	cells := r.hdr.Cells()
	idx := make([]int, len(r.hdr.Dims))
	for c := 0; c < cells; c++ {
		recFields := make([]values.Field, len(sel))
		for i, s := range sel {
			if s.dim >= 0 {
				recFields[i] = values.Field{Name: s.name, Val: values.NewInt(int64(idx[s.dim]))}
			} else {
				recFields[i] = values.Field{Name: s.name, Val: r.field(c, s.field)}
			}
		}
		if err := yield(values.NewRecord(recFields...)); err != nil {
			return err
		}
		// Advance the multi-dimensional index.
		for d := len(idx) - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < r.hdr.Dims[d] {
				break
			}
			idx[d] = 0
		}
	}
	return nil
}

// SizeBytes returns the file payload size.
func (r *Reader) SizeBytes() int64 { return int64(len(r.data)) }
