package rawarr

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"vida/internal/sdg"
	"vida/internal/values"
)

// writeTestArray writes a 3x4 elevation/temperature matrix — the paper's
// §3.1 example schema — where elevation(i,j) = 100*i+j and
// temperature(i,j) = float(i+j)/2.
func writeTestArray(t testing.TB) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.varr")
	h := &Header{
		Dims:       []int{3, 4},
		FieldNames: []string{"elevation", "temperature"},
		FieldTypes: []FieldType{FieldInt, FieldFloat},
	}
	err := Write(path, h, func(c int) ([]values.Value, error) {
		i, j := c/4, c%4
		return []values.Value{
			values.NewInt(int64(100*i + j)),
			values.NewFloat(float64(i+j) / 2),
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func paperDesc(path string) *sdg.Description {
	schema := sdg.Array(
		[]sdg.Dim{{Name: "i", Type: sdg.Int}, {Name: "j", Type: sdg.Int}},
		sdg.Record(
			sdg.Attr{Name: "elevation", Type: sdg.Int},
			sdg.Attr{Name: "temperature", Type: sdg.Float},
		),
	)
	return sdg.DefaultDescription("M", sdg.FormatArray, path, schema)
}

func TestCellAccess(t *testing.T) {
	r, err := Open(paperDesc(writeTestArray(t)))
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.Cell(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v.MustGet("elevation").Int() != 203 {
		t.Fatalf("cell(2,3) = %v", v)
	}
	if v.MustGet("temperature").Float() != 2.5 {
		t.Fatalf("cell(2,3) = %v", v)
	}
	if _, err := r.Cell(3, 0); err == nil {
		t.Fatal("out of range cell should fail")
	}
	if _, err := r.Cell(1); err == nil {
		t.Fatal("rank mismatch should fail")
	}
}

func TestRowColumnChunkUnits(t *testing.T) {
	r, err := Open(paperDesc(writeTestArray(t)))
	if err != nil {
		t.Fatal(err)
	}
	row, err := r.Row(1)
	if err != nil || len(row) != 4 {
		t.Fatalf("Row = %v, %v", row, err)
	}
	if row[2].MustGet("elevation").Int() != 102 {
		t.Fatalf("row[2] = %v", row[2])
	}
	col, err := r.Column(0)
	if err != nil || len(col) != 3 {
		t.Fatalf("Column = %v, %v", col, err)
	}
	if col[2].MustGet("elevation").Int() != 200 {
		t.Fatalf("col[2] = %v", col[2])
	}
	var chunk []values.Value
	if err := r.Chunk(5, 8, func(c int, v values.Value) error {
		chunk = append(chunk, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(chunk) != 3 || chunk[0].MustGet("elevation").Int() != 101 {
		t.Fatalf("chunk = %v", chunk)
	}
	if err := r.Chunk(10, 14, func(int, values.Value) error { return nil }); err == nil {
		t.Fatal("out-of-range chunk should fail")
	}
}

func TestIterateWithDims(t *testing.T) {
	r, err := Open(paperDesc(writeTestArray(t)))
	if err != nil {
		t.Fatal(err)
	}
	var rows []values.Value
	if err := r.Iterate(nil, func(v values.Value) error {
		rows = append(rows, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("cells = %d", len(rows))
	}
	// Row-major: cell 5 is (i=1, j=1).
	if rows[5].MustGet("i").Int() != 1 || rows[5].MustGet("j").Int() != 1 {
		t.Fatalf("cell 5 dims = %v", rows[5])
	}
	if rows[5].MustGet("elevation").Int() != 101 {
		t.Fatalf("cell 5 = %v", rows[5])
	}
}

func TestIterateProjection(t *testing.T) {
	r, err := Open(paperDesc(writeTestArray(t)))
	if err != nil {
		t.Fatal(err)
	}
	var rows []values.Value
	if err := r.Iterate([]string{"temperature", "i"}, func(v values.Value) error {
		rows = append(rows, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rows[0].Len() != 2 {
		t.Fatalf("projected cell = %v", rows[0])
	}
	if err := r.Iterate([]string{"nope"}, func(values.Value) error { return nil }); err == nil {
		t.Fatal("unknown field should fail")
	}
}

func TestDimNamesDefaultWithoutSchema(t *testing.T) {
	path := writeTestArray(t)
	d := &sdg.Description{Name: "M", Format: sdg.FormatArray, Path: path}
	r, err := Open(d)
	if err != nil {
		t.Fatal(err)
	}
	names := r.DimNames()
	if len(names) != 2 || names[0] != "d0" || names[1] != "d1" {
		t.Fatalf("default dim names = %v", names)
	}
}

func TestOpenRejectsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	cases := map[string][]byte{
		"short.varr":   []byte("VA"),
		"badmag.varr":  []byte("NOPE0000"),
		"truncd.varr":  append([]byte("VARR"), 1, 0, 2, 1),
		"version.varr": append([]byte("VARR"), 9, 0, 1, 1, 4, 0, 0, 0),
		"wraps.varr":   overflowingHeader(),
		"nofield.varr": append([]byte("VARR"), 1, 0, 1, 0, 3, 0, 0, 0),
	}
	for name, data := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(&sdg.Description{Name: name, Format: sdg.FormatArray, Path: path}); err == nil {
			t.Fatalf("%s should fail to open", name)
		}
	}
	// Payload size mismatch.
	path := writeTestArray(t)
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-8], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(paperDesc(path)); err == nil {
		t.Fatal("truncated payload should fail")
	}
	// A rank other than the described array's.
	d := sdg.DefaultDescription("M", sdg.FormatArray, writeTestArray(t), sdg.Array(
		[]sdg.Dim{{Name: "i", Type: sdg.Int}}, sdg.Record(sdg.Attr{Name: "elevation", Type: sdg.Int})))
	if _, err := Open(d); err == nil {
		t.Fatal("a 2-D file under a 1-D description should fail")
	}
}

// overflowingHeader is a 23-byte file whose dims [2³¹, 2³¹, 4] of one int
// field need 2⁶⁷ payload bytes, a product that wraps to 0 in int64.
func overflowingHeader() []byte {
	b := append([]byte("VARR"), 1, 0, 3, 1)
	for _, d := range []uint32{1 << 31, 1 << 31, 4} {
		b = binary.LittleEndian.AppendUint32(b, d)
	}
	return append(b, 1, 'v', byte(FieldInt))
}

// FuzzOpen: an array file that opens never makes an access unit panic,
// and opening it allocates in proportion to its size.
func FuzzOpen(f *testing.F) {
	path := writeTestArray(f)
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(overflowingHeader())
	f.Add(append([]byte("VARR"), 1, 0, 1, 1, 2, 0, 0, 0, 1, 'x', byte(FieldFloat), 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.varr")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, d := range []*sdg.Description{{Name: "F", Format: sdg.FormatArray, Path: path}, paperDesc(path)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r, err := Open(d)
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(data))+1<<16 {
				t.Fatalf("Open of %d bytes allocated %d", len(data), grew)
			}
			if err != nil {
				continue
			}
			drive(t, r)
		}
	})
}

// drive reads every access unit of r; any error is fine, a panic is not.
func drive(t *testing.T, r *Reader) {
	nop := func(values.Value) error { return nil }
	h := r.Header()
	_ = r.Iterate(nil, nop)
	dims := r.DimNames()
	_ = r.Iterate(append(dims[:min(1, len(dims)):min(1, len(dims))], h.FieldNames...), nop)
	_ = r.Chunk(0, h.Cells(), func(int, values.Value) error { return nil })
	first, last := make([]int, len(h.Dims)), make([]int, len(h.Dims))
	for i, d := range h.Dims {
		last[i] = d - 1
	}
	_, _ = r.Cell(first...)
	_, _ = r.Cell(last...)
	if len(h.Dims) == 2 {
		_, _ = r.Row(0)
		_, _ = r.Column(h.Dims[1] - 1)
	}
}

func TestWriteValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.varr")
	h := &Header{Dims: []int{2}, FieldNames: []string{"a"}, FieldTypes: []FieldType{FieldInt, FieldFloat}}
	if err := Write(path, h, nil); err == nil {
		t.Fatal("mismatched header should fail")
	}
	if err := Write(path, &Header{Dims: []int{3}}, nil); err == nil {
		t.Fatal("an array without a field should fail")
	}
	h = &Header{Dims: []int{2}, FieldNames: []string{"a"}, FieldTypes: []FieldType{FieldInt}}
	err := Write(path, h, func(c int) ([]values.Value, error) {
		return []values.Value{values.NewInt(1), values.NewInt(2)}, nil
	})
	if err == nil {
		t.Fatal("wrong cell arity should fail")
	}
}
