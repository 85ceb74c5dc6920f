package rawcsv

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vida/internal/rawfile"
	"vida/internal/sdg"
	"vida/internal/values"
)

func writeFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func desc(t testing.TB, path string, opts map[string]string) *sdg.Description {
	t.Helper()
	schema := sdg.Bag(sdg.Record(
		sdg.Attr{Name: "id", Type: sdg.Int},
		sdg.Attr{Name: "name", Type: sdg.String},
		sdg.Attr{Name: "score", Type: sdg.Float},
		sdg.Attr{Name: "active", Type: sdg.Bool},
	))
	d := sdg.DefaultDescription("t", sdg.FormatCSV, path, schema)
	d.Options = opts
	return d
}

const sample = `id,name,score,active
1,ada,9.5,true
2,bob,8.0,false
3,eve,7.25,true
`

func collect(t *testing.T, r *Reader, fields []string) []values.Value {
	t.Helper()
	var out []values.Value
	if err := r.Iterate(fields, func(v values.Value) error {
		out = append(out, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestIterateAllFields(t *testing.T) {
	r, err := Open(desc(t, writeFile(t, sample), nil))
	if err != nil {
		t.Fatal(err)
	}
	rows := collect(t, r, nil)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	r0 := rows[0]
	if r0.MustGet("id").Int() != 1 || r0.MustGet("name").Str() != "ada" ||
		r0.MustGet("score").Float() != 9.5 || !r0.MustGet("active").Bool() {
		t.Fatalf("row 0 = %v", r0)
	}
}

func TestProjection(t *testing.T) {
	r, err := Open(desc(t, writeFile(t, sample), nil))
	if err != nil {
		t.Fatal(err)
	}
	rows := collect(t, r, []string{"score"})
	if len(rows) != 3 || rows[0].Len() != 1 {
		t.Fatalf("projected rows = %v", rows)
	}
	if rows[2].MustGet("score").Float() != 7.25 {
		t.Fatalf("row 2 = %v", rows[2])
	}
}

func TestPosmapPopulatedAndUsed(t *testing.T) {
	r, err := Open(desc(t, writeFile(t, sample), nil))
	if err != nil {
		t.Fatal(err)
	}
	// First scan: full tokenization, posmap side effect.
	first := collect(t, r, []string{"score"})
	if got := r.StatsSnapshot()["full_scans"]; got != 1 {
		t.Fatalf("full_scans = %d", got)
	}
	if !r.PosMap().HasRows() || !r.PosMap().HasCol(2) {
		t.Fatal("posmap not populated")
	}
	// Second scan of the same column: served by posmap jumps.
	second := collect(t, r, []string{"score"})
	st := r.StatsSnapshot()
	if st["posmap_scans"] != 1 {
		t.Fatalf("posmap_scans = %d (stats %v)", st["posmap_scans"], st)
	}
	for i := range first {
		if !values.Equal(first[i], second[i]) {
			t.Fatalf("posmap scan diverged at %d: %v vs %v", i, first[i], second[i])
		}
	}
}

func TestPosmapDifferentColumnFallsBack(t *testing.T) {
	r, err := Open(desc(t, writeFile(t, sample), nil))
	if err != nil {
		t.Fatal(err)
	}
	collect(t, r, []string{"id"})
	// name column not recorded yet: the rows are indexed, so the scan
	// tokenizes forward from the mapped id column instead of re-reading
	// whole rows, and records name.
	collect(t, r, []string{"name"})
	st := r.StatsSnapshot()
	if st["full_scans"] != 1 || st["posmap_scans"] != 1 || !r.PosMap().HasCol(1) {
		t.Fatalf("name scan: stats %v, name mapped %v", st, r.PosMap().HasCol(1))
	}
	collect(t, r, []string{"name", "id"})
	st = r.StatsSnapshot()
	if st["full_scans"] != 1 || st["posmap_scans"] != 2 || st["fields_jumped"] != 3*2 {
		t.Fatalf("name,id scan: stats %v", st)
	}
}

func TestMalformedRowsSkipped(t *testing.T) {
	content := `id,name,score,active
1,ada,9.5,true
oops,bad,row,xx
3,eve,7.25,true
2,bob
`
	r, err := Open(desc(t, writeFile(t, content), nil))
	if err != nil {
		t.Fatal(err)
	}
	rows := collect(t, r, nil)
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 (bad rows skipped)", len(rows))
	}
	if got := r.StatsSnapshot()["rows_skipped"]; got != 2 {
		t.Fatalf("rows_skipped = %d", got)
	}
	// Posmap must stay consistent despite the skips: re-scan and compare.
	again := collect(t, r, nil)
	if len(again) != 2 || !values.Equal(rows[0], again[0]) || !values.Equal(rows[1], again[1]) {
		t.Fatalf("re-scan diverged: %v vs %v", rows, again)
	}
}

func TestFailOnBadRowsPolicy(t *testing.T) {
	content := "id,name,score,active\nbad,row,here,x\n"
	d := desc(t, writeFile(t, content), map[string]string{"onerror": "fail"})
	r, err := Open(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Iterate(nil, func(values.Value) error { return nil }); err == nil {
		t.Fatal("fail policy should surface malformed rows")
	}
}

func TestCustomDelimiterAndNull(t *testing.T) {
	content := "id|name|score|active\n1|ada|NULL|true\n"
	d := desc(t, writeFile(t, content), map[string]string{"delim": "|", "null": "NULL"})
	r, err := Open(d)
	if err != nil {
		t.Fatal(err)
	}
	rows := collect(t, r, nil)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !rows[0].MustGet("score").IsNull() {
		t.Fatalf("NULL token not honored: %v", rows[0])
	}
}

func TestNoHeader(t *testing.T) {
	content := "1,ada,9.5,true\n2,bob,8.0,false\n"
	d := desc(t, writeFile(t, content), map[string]string{"header": "false"})
	r, err := Open(d)
	if err != nil {
		t.Fatal(err)
	}
	if rows := collect(t, r, nil); len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestRefreshInvalidatesOnChange(t *testing.T) {
	path := writeFile(t, sample)
	r, err := Open(desc(t, path, nil))
	if err != nil {
		t.Fatal(err)
	}
	collect(t, r, []string{"id"})
	if !r.PosMap().HasCol(0) {
		t.Fatal("posmap missing after scan")
	}

	// Rewrite the file with a different first row and a new mtime (bumped
	// explicitly: filesystem mtime granularity can be coarse). The file
	// also grew, so only the byte comparison tells it from an append.
	newContent := strings.Replace(sample, "ada", "eve", 1) + "4,zed,1.0,false\n"
	if err := os.WriteFile(path, []byte(newContent), 0o644); err != nil {
		t.Fatal(err)
	}
	bumped := fileTimePlus(t, path)
	if err := os.Chtimes(path, bumped, bumped); err != nil {
		t.Fatal(err)
	}
	old := r
	r, ch, err := follow(r)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Kind != rawfile.Replaced || ch.Reason == "" {
		t.Fatalf("Refresh = %+v, want Replaced with a reason", ch)
	}
	if r.PosMap().HasRows() {
		t.Fatal("posmap survived invalidation")
	}
	// Refresh never changes its receiver: the old generation still
	// answers for the bytes it read.
	if !old.PosMap().HasCol(0) || collect(t, old, nil)[0].MustGet("name").Str() != "ada" {
		t.Fatal("Refresh changed the generation it was called on")
	}
	rows := collect(t, r, nil)
	if len(rows) != 4 {
		t.Fatalf("rows after refresh = %d", len(rows))
	}
	if got := rows[0].MustGet("name").Str(); got != "eve" {
		t.Fatalf("first row name after refresh = %q, want the rewritten value", got)
	}
}

func TestRefreshNoChange(t *testing.T) {
	path := writeFile(t, sample)
	r, err := Open(desc(t, path, nil))
	if err != nil {
		t.Fatal(err)
	}
	next, ch, err := follow(r)
	if err != nil || ch.Kind != rawfile.Unchanged || next != r {
		t.Fatalf("Refresh = %p, %+v, %v; want %p, Unchanged, nil", next, ch, err, r)
	}
}

func TestNumRowsWithoutScan(t *testing.T) {
	r, err := Open(desc(t, writeFile(t, sample), nil))
	if err != nil {
		t.Fatal(err)
	}
	n, err := r.NumRows()
	if err != nil || n != 3 {
		t.Fatalf("NumRows = %d, %v", n, err)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(desc(t, "/nonexistent/nope.csv", nil)); err == nil {
		t.Fatal("missing file should fail")
	}
	d := desc(t, writeFile(t, sample), nil)
	d.Format = sdg.FormatJSON
	if _, err := Open(d); err == nil {
		t.Fatal("non-CSV format should fail")
	}
}

// TestPosmapEquivalenceProperty: for random files, scanning any projection
// via posmap yields byte-identical results to a full scan.
func TestPosmapEquivalenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		nRows := 1 + r.Intn(40)
		var sb strings.Builder
		sb.WriteString("id,name,score,active\n")
		for i := 0; i < nRows; i++ {
			fmt.Fprintf(&sb, "%d,n%d,%g,%v\n", i, r.Intn(100), float64(r.Intn(1000))/8, r.Intn(2) == 0)
		}
		rd, err := Open(desc(t, writeFile(t, sb.String()), nil))
		if err != nil {
			t.Fatal(err)
		}
		projections := [][]string{{"id"}, {"score"}, {"name", "active"}, nil}
		baseline := map[string][]values.Value{}
		for _, p := range projections {
			key := strings.Join(p, ",")
			baseline[key] = collect(t, rd, p)
		}
		// All columns now recorded; repeat scans must match exactly.
		for _, p := range projections {
			key := strings.Join(p, ",")
			again := collect(t, rd, p)
			if len(again) != len(baseline[key]) {
				t.Fatalf("row count drift for %q", key)
			}
			for i := range again {
				if !values.Equal(again[i], baseline[key][i]) {
					t.Fatalf("posmap drift for %q row %d: %v vs %v", key, i, again[i], baseline[key][i])
				}
			}
		}
		if rd.StatsSnapshot()["posmap_scans"] == 0 {
			t.Fatal("expected posmap scans in second pass")
		}
	}
}

func fileTimePlus(t *testing.T, path string) time.Time {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.ModTime().Add(2 * time.Second)
}
