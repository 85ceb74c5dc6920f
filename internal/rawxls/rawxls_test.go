package rawxls

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"vida/internal/sdg"
	"vida/internal/values"
)

func writeSheet(t testing.TB) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s.vxls")
	s := &Sheet{
		ColNames: []string{"id", "label", "amount", "flag"},
		ColTypes: []ColType{ColInt, ColString, ColFloat, ColBool},
	}
	rows := [][]values.Value{
		{values.NewInt(1), values.NewString("alpha"), values.NewFloat(10.5), values.True},
		{values.NewInt(2), values.Null, values.NewFloat(-3.25), values.False},
		{values.NewInt(3), values.NewString("gamma"), values.Null, values.True},
	}
	if err := Write(path, s, rows); err != nil {
		t.Fatal(err)
	}
	return path
}

func sheetDesc(path string) *sdg.Description {
	schema := sdg.Bag(sdg.Record(
		sdg.Attr{Name: "id", Type: sdg.Int},
		sdg.Attr{Name: "label", Type: sdg.String},
		sdg.Attr{Name: "amount", Type: sdg.Float},
		sdg.Attr{Name: "flag", Type: sdg.Bool},
	))
	return sdg.DefaultDescription("sheet", sdg.FormatXLS, path, schema)
}

func TestRoundTrip(t *testing.T) {
	r, err := Open(sheetDesc(writeSheet(t)))
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 3 {
		t.Fatalf("rows = %d", r.NumRows())
	}
	var rows []values.Value
	if err := r.Iterate(nil, func(v values.Value) error {
		rows = append(rows, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rows[0].MustGet("label").Str() != "alpha" || rows[0].MustGet("amount").Float() != 10.5 {
		t.Fatalf("row 0 = %v", rows[0])
	}
	if !rows[1].MustGet("label").IsNull() {
		t.Fatalf("null cell lost: %v", rows[1])
	}
	if !rows[2].MustGet("amount").IsNull() {
		t.Fatalf("null cell lost: %v", rows[2])
	}
}

func TestProjection(t *testing.T) {
	r, err := Open(sheetDesc(writeSheet(t)))
	if err != nil {
		t.Fatal(err)
	}
	row, err := r.Row(2, []string{"id", "flag"})
	if err != nil {
		t.Fatal(err)
	}
	if row.Len() != 2 || row.MustGet("id").Int() != 3 || !row.MustGet("flag").Bool() {
		t.Fatalf("projected row = %v", row)
	}
	if _, err := r.Row(0, []string{"nope"}); err == nil {
		t.Fatal("unknown column should fail")
	}
	if _, err := r.Row(9, nil); err == nil {
		t.Fatal("out of range row should fail")
	}
}

func TestCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	cases := map[string][]byte{
		"short":  []byte("VX"),
		"magic":  []byte("NOPE\x01\x00\x01\x00"),
		"vers":   []byte("VXLS\x09\x00\x01\x00"),
		"trunc":  []byte("VXLS\x01\x00\x02\x00\x02ab"),
		"norows": append([]byte("VXLS\x01\x00\x01\x00\x01a\x00"), 5, 0, 0, 0),
		"nocols": columnlessRows(),
	}
	for name, data := range cases {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(&sdg.Description{Name: name, Format: sdg.FormatXLS, Path: p}); err == nil {
			t.Fatalf("%s should fail", name)
		}
	}
}

func TestWriteValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.vxls")
	s := &Sheet{ColNames: []string{"a"}, ColTypes: []ColType{ColInt, ColBool}}
	if err := Write(path, s, nil); err == nil {
		t.Fatal("mismatched sheet should fail")
	}
	s = &Sheet{ColNames: []string{"a"}, ColTypes: []ColType{ColInt}}
	rows := [][]values.Value{{values.NewInt(1), values.NewInt(2)}}
	if err := Write(path, s, rows); err == nil {
		t.Fatal("wrong row arity should fail")
	}
}

// columnlessRows is a 12-byte sheet without columns that claims 5 000 000
// rows.
func columnlessRows() []byte {
	return binary.LittleEndian.AppendUint32([]byte("VXLS\x01\x00\x00\x00"), 5_000_000)
}

// FuzzOpen: a sheet that opens never makes a row read panic, and opening
// it allocates in proportion to its size.
func FuzzOpen(f *testing.F) {
	data, err := os.ReadFile(writeSheet(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(columnlessRows())
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.vxls")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := Open(sheetDesc(path))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(data))+1<<16 {
			t.Fatalf("Open of %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		nop := func(values.Value) error { return nil }
		_ = r.Iterate(nil, nop)
		cols := r.Columns().ColNames
		_ = r.Iterate(cols[max(0, len(cols)-1):], nop)
		for i := -1; i <= r.NumRows(); i++ {
			_, _ = r.Row(i, cols[:min(1, len(cols))])
		}
	})
}
