package rawcsv

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"vida/internal/sdg"
	"vida/internal/values"
	"vida/internal/vec"
)

func batchTestReader(t *testing.T, content string) *Reader {
	t.Helper()
	path := filepath.Join(t.TempDir(), "b.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	schema := sdg.Bag(sdg.Record(
		sdg.Attr{Name: "id", Type: sdg.Int},
		sdg.Attr{Name: "name", Type: sdg.String},
		sdg.Attr{Name: "score", Type: sdg.Float},
		sdg.Attr{Name: "flag", Type: sdg.Bool},
	))
	desc := sdg.DefaultDescription("B", sdg.FormatCSV, path, schema)
	r, err := Open(desc)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// collectBatches drains IterateBatches, boxing every row for comparison.
func collectBatches(t *testing.T, r *Reader, fields []string, batchSize int) ([][]values.Value, []int) {
	t.Helper()
	var rows [][]values.Value
	var sizes []int
	err := r.IterateBatches(fields, batchSize, func(b *vec.Batch) error {
		sizes = append(sizes, b.Len())
		for k := 0; k < b.Len(); k++ {
			i := b.Index(k)
			row := make([]values.Value, len(b.Cols))
			for c := range b.Cols {
				row[c] = b.Cols[c].Value(i)
			}
			rows = append(rows, row)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows, sizes
}

func TestIterateBatchesTypedAndBoundaries(t *testing.T) {
	content := "id,name,score,flag\n" +
		"1,ada,1.5,true\n" +
		"2,bob,2.5,false\n" +
		"3,eve,3.5,true\n" +
		"4,dan,4.5,false\n" +
		"5,zoe,5.5,true\n"
	r := batchTestReader(t, content)
	// Cold pass (tokenizing full scan) then warm pass (posmap jumps):
	// both must chunk [2,2,1] at batchSize 2 and agree on every value.
	for pass := 0; pass < 2; pass++ {
		rows, sizes := collectBatches(t, r, []string{"id", "name", "score", "flag"}, 2)
		if len(rows) != 5 {
			t.Fatalf("pass %d: got %d rows", pass, len(rows))
		}
		if fmt.Sprint(sizes) != "[2 2 1]" {
			t.Fatalf("pass %d: batch sizes %v", pass, sizes)
		}
		if rows[2][0].Int() != 3 || rows[2][1].Str() != "eve" || rows[2][2].Float() != 3.5 || !rows[2][3].Bool() {
			t.Fatalf("pass %d: row 2 = %v", pass, rows[2])
		}
	}
	if r.StatsSnapshot()["posmap_scans"] == 0 {
		t.Fatal("second pass did not use the positional map")
	}
}

func TestIterateBatchesEmptyAndSingle(t *testing.T) {
	empty := batchTestReader(t, "id,name,score,flag\n")
	rows, sizes := collectBatches(t, empty, []string{"id"}, 4)
	if len(rows) != 0 || len(sizes) != 0 {
		t.Fatalf("empty file: rows=%d batches=%d", len(rows), len(sizes))
	}
	single := batchTestReader(t, "id,name,score,flag\n7,solo,9.5,true\n")
	rows, _ = collectBatches(t, single, []string{"id", "score"}, 4)
	if len(rows) != 1 || rows[0][0].Int() != 7 || rows[0][1].Float() != 9.5 {
		t.Fatalf("single row: %v", rows)
	}
}

func TestIterateBatchesNullsAndBadRows(t *testing.T) {
	content := "id,name,score,flag\n" +
		"1,ada,1.5,true\n" +
		",bob,2.5,false\n" + // null id -> typed column null mask
		"oops,eve,3.5,true\n" + // malformed id -> row skipped
		"4,dan,4.5,false\n"
	r := batchTestReader(t, content)
	rows, _ := collectBatches(t, r, []string{"id", "name"}, 8)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3 (bad row skipped)", len(rows))
	}
	if !rows[1][0].IsNull() || rows[1][1].Str() != "bob" {
		t.Fatalf("null id row = %v", rows[1])
	}
	if got := r.StatsSnapshot()["rows_skipped"]; got != 1 {
		t.Fatalf("rows_skipped = %d", got)
	}
}

// TestAnchoredScan: after a first scan maps columns {0,2}, a scan asking
// for columns {1,3} must serve correct values by tokenizing forward from
// the recorded anchors, and install the new columns in the map.
func TestAnchoredScan(t *testing.T) {
	content := "id,name,score,flag\n" +
		"1,ada,1.5,true\n" +
		"2,bob,2.5,false\n" +
		"3,eve,3.5,true\n"
	r := batchTestReader(t, content)
	if _, sizes := collectBatches(t, r, []string{"id", "score"}, 8); len(sizes) != 1 {
		t.Fatal("seed scan failed")
	}
	if !r.PosMap().HasCol(0) || !r.PosMap().HasCol(2) {
		t.Fatal("seed scan did not install columns 0 and 2")
	}
	rows, _ := collectBatches(t, r, []string{"name", "flag"}, 8)
	want := [][2]string{{"ada", "true"}, {"bob", "false"}, {"eve", "true"}}
	for i, w := range want {
		if rows[i][0].Str() != w[0] || fmt.Sprint(rows[i][1].Bool()) != w[1] {
			t.Fatalf("anchored row %d = %v, want %v", i, rows[i], w)
		}
	}
	if !r.PosMap().HasCol(1) || !r.PosMap().HasCol(3) {
		t.Fatal("anchored scan did not install the new columns")
	}
}

// TestOpenRangeConcurrent splits the row range across goroutines and
// checks the union of batches covers every row exactly once.
func TestOpenRangeConcurrent(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("id,name,score,flag\n")
	for i := 0; i < 257; i++ {
		fmt.Fprintf(&sb, "%d,n%d,%d.5,true\n", i, i, i)
	}
	r := batchTestReader(t, sb.String())
	if rows, _ := collectBatches(t, r, []string{"id"}, 64); len(rows) != 257 {
		t.Fatalf("seed scan rows = %d", len(rows))
	}
	scan, n, ok := r.OpenRange([]string{"id"})
	if !ok || n != 257 {
		t.Fatalf("OpenRange ok=%v n=%d", ok, n)
	}
	const parts = 4
	seen := make([][]int64, parts)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		lo := p * n / parts
		hi := (p + 1) * n / parts
		wg.Add(1)
		go func(p, lo, hi int) {
			defer wg.Done()
			_ = scan(lo, hi, 32, func(b *vec.Batch) error {
				for k := 0; k < b.Len(); k++ {
					seen[p] = append(seen[p], b.Cols[0].Value(b.Index(k)).Int())
				}
				return nil
			})
		}(p, lo, hi)
	}
	wg.Wait()
	var all []int64
	for _, s := range seen {
		all = append(all, s...)
	}
	if len(all) != 257 {
		t.Fatalf("range union has %d rows", len(all))
	}
	for p := 0; p < parts; p++ {
		lo := p * 257 / parts
		for i, v := range seen[p] {
			if v != int64(lo+i) {
				t.Fatalf("part %d row %d = %d, want %d", p, i, v, lo+i)
			}
		}
	}
}

func TestPosMapSnapshot(t *testing.T) {
	m := NewPosMap()
	m.SetRows([]int64{0, 10, 20})
	m.SetCol(1, []int32{2, 2, 2}, []int32{5, 5, 5})
	snap := m.Snapshot()
	if len(snap.Rows) != 3 || !snap.HasCols([]int{1}) || snap.HasCols([]int{0}) {
		t.Fatalf("snapshot state: %+v", snap)
	}
	// Mutating the map afterwards must not disturb the snapshot view.
	m.SetCol(0, []int32{0, 0, 0}, []int32{1, 1, 1})
	m.SetRows(nil)
	if len(snap.Rows) != 3 || snap.Cols[1] == nil {
		t.Fatal("snapshot not immune to later map mutations")
	}
}

func TestParseIntBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true}, {"42", 42, true}, {"-7", -7, true}, {"+9", 9, true},
		{"9223372036854775807", 9223372036854775807, true},
		{"-9223372036854775808", -9223372036854775808, true},
		{"9223372036854775808", 0, false},
		{"", 0, false}, {"-", 0, false}, {"1.5", 0, false}, {"x", 0, false},
		{"12 ", 0, false},
	}
	for _, c := range cases {
		got, ok := parseIntBytes([]byte(c.in))
		if ok != c.ok || (ok && got != c.want) {
			t.Fatalf("parseIntBytes(%q) = %d,%v want %d,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

// TestRowIndexIndependentOfScannedColumns is the regression test for a
// latent seed bug the batch fast paths amplified: a row malformed only
// in column A used to be dropped from the shared row index by a scan of
// A, making every later scan of other columns lose that row — and
// column offsets could be installed misaligned against the index. The
// row index must cover every data line; per-scan conversion failures
// only skip yielding.
func TestRowIndexIndependentOfScannedColumns(t *testing.T) {
	content := "id,name,score,flag\n" +
		"1,ada,1.5,true\n" +
		"bad,bob,2.5,false\n" + // malformed id only
		"3,eve,3.5,true\n"
	r := batchTestReader(t, content)
	// Scan id: the malformed row is skipped from the yield but stays in
	// the row index, and id's spans (positional) still cover all rows.
	rows, _ := collectBatches(t, r, []string{"id"}, 8)
	if len(rows) != 2 || r.PosMap().NumRows() != 3 {
		t.Fatalf("id scan: rows=%d indexed=%d, want 2/3", len(rows), r.PosMap().NumRows())
	}
	// Scans of other columns see every row, on the record path...
	var names []string
	if err := r.Iterate([]string{"name"}, func(v values.Value) error {
		f, _ := v.Get("name")
		names = append(names, f.Str())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(names) != "[ada bob eve]" {
		t.Fatalf("record scan names = %v", names)
	}
	// ...and on the batch path (anchored, then posmap-backed).
	for pass := 0; pass < 2; pass++ {
		rows, _ = collectBatches(t, r, []string{"name"}, 8)
		want := []string{"ada", "bob", "eve"}
		for i, w := range want {
			if i >= len(rows) || rows[i][0].Str() != w {
				t.Fatalf("pass %d: batch name scan = %v, want %v", pass, rows, want)
			}
		}
	}
	// The id scan still skips the malformed row on the warm path.
	rows, _ = collectBatches(t, r, []string{"id"}, 8)
	if len(rows) != 2 || rows[0][0].Int() != 1 || rows[1][0].Int() != 3 {
		t.Fatalf("warm id scan = %v", rows)
	}
}
