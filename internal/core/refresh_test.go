package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vida/internal/rawarr"
	"vida/internal/rawxls"
	"vida/internal/sdg"
	"vida/internal/values"
)

// refreshTemplates read every column of T between them: a count, a
// filtered sum and the whole table in id order.
var refreshTemplates = []string{
	`for { t <- T } yield sum 1`,
	`for { t <- T, t.g = 1 } yield sum t.v`,
	`for { t <- T } yield list (id := t.id, g := t.g, v := t.v) order by t.id`,
}

// writes makes the mtimes writeFormat sets increase strictly.
var writes atomic.Int64

// writeFormat writes rows [0, n) of the matrix table (matrixRow) to path
// in format, with g shifted by shift, and moves the file's mtime forward
// (filesystem mtime granularity can be coarser than the test). A CSV or
// NDJSON file written again with more rows and the same shift grew by a
// tail; the binary formats carry their row count in a header.
func writeFormat(t *testing.T, format sdg.Format, path string, n int, shift int64) {
	t.Helper()
	var err error
	row := func(i int) (int64, int64, float64) {
		id, g, v := matrixRow(i)
		return id, g + shift, v
	}
	switch format {
	case sdg.FormatCSV, sdg.FormatJSON:
		var sb strings.Builder
		if format == sdg.FormatCSV {
			sb.WriteString("id,g,v\n")
		}
		for i := 0; i < n; i++ {
			id, g, v := row(i)
			if format == sdg.FormatCSV {
				fmt.Fprintf(&sb, "%d,%d,%.1f\n", id, g, v)
			} else {
				fmt.Fprintf(&sb, "{\"id\": %d, \"g\": %d, \"v\": %.1f}\n", id, g, v)
			}
		}
		err = os.WriteFile(path, []byte(sb.String()), 0o644)
	case sdg.FormatXLS:
		var rows [][]values.Value
		for i := 0; i < n; i++ {
			id, g, v := row(i)
			rows = append(rows, []values.Value{values.NewInt(id), values.NewInt(g), values.NewFloat(v)})
		}
		err = rawxls.Write(path, &rawxls.Sheet{
			ColNames: []string{"id", "g", "v"},
			ColTypes: []rawxls.ColType{rawxls.ColInt, rawxls.ColInt, rawxls.ColFloat},
		}, rows)
	case sdg.FormatArray:
		err = rawarr.Write(path, &rawarr.Header{
			Dims:       []int{n},
			FieldNames: []string{"g", "v"},
			FieldTypes: []rawarr.FieldType{rawarr.FieldInt, rawarr.FieldFloat},
		}, func(cell int) ([]values.Value, error) {
			_, g, v := row(cell)
			return []values.Value{values.NewInt(g), values.NewFloat(v)}, nil
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	at := time.Now().Add(time.Duration(writes.Add(1)) * time.Second)
	if err := os.Chtimes(path, at, at); err != nil {
		t.Fatal(err)
	}
}

// TestRefreshEveryFormat: Refresh re-checks every file-backed source, in
// every format, with and without the cache. After each change the engine
// answers like a fresh engine over the file, and the change is tallied as
// an append exactly when the source kept what it built (a CSV file that
// grew) and as a replacement otherwise.
func TestRefreshEveryFormat(t *testing.T) {
	arrSchema := sdg.Array([]sdg.Dim{{Name: "id", Type: sdg.Int}}, sdg.Record(
		sdg.Attr{Name: "g", Type: sdg.Int}, sdg.Attr{Name: "v", Type: sdg.Float}))
	formats := []struct {
		name    string
		format  sdg.Format
		schema  *sdg.Type
		appends bool // growing the file is an append the source keeps
	}{
		{"csv", sdg.FormatCSV, matrixSchema(), true},
		{"json", sdg.FormatJSON, matrixSchema(), false},
		{"xls", sdg.FormatXLS, matrixSchema(), false},
		{"array", sdg.FormatArray, arrSchema, false},
	}
	for _, f := range formats {
		for _, caching := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/caching=%v", f.name, caching), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "t."+f.name)
				desc := sdg.DefaultDescription("T", f.format, path, f.schema)
				engine := func() *Engine {
					e := NewEngine(Options{DisableCaching: !caching})
					if err := e.Register(desc); err != nil {
						t.Fatal(err)
					}
					return e
				}
				answers := func(e *Engine, step string) []values.Value {
					out := make([]values.Value, len(refreshTemplates))
					for i, q := range refreshTemplates {
						v, err := e.Query(q)
						if err != nil {
							t.Fatalf("%s: %s: %v", step, q, err)
						}
						out[i] = v
					}
					return out
				}
				writeFormat(t, f.format, path, 10, 0)
				e := engine()
				answers(e, "before")
				steps := []struct {
					name   string
					n      int
					shift  int64
					append bool
				}{
					{"grown from 10 to 20 rows", 20, 0, f.appends},
					{"rewritten", 20, 1, false},
					{"shrunk to 5 rows", 5, 1, false},
				}
				for _, s := range steps {
					writeFormat(t, f.format, path, s.n, s.shift)
					st0 := e.StatsSnapshot()
					if err := e.Refresh(); err != nil {
						t.Fatalf("%s: Refresh: %v", s.name, err)
					}
					st1 := e.StatsSnapshot()
					apps, reps := st1.RefreshAppends-st0.RefreshAppends, st1.RefreshReplacements-st0.RefreshReplacements
					if s.append && (apps != 1 || reps != 0) || !s.append && (apps != 0 || reps != 1) {
						t.Fatalf("%s: %d appends and %d replacements tallied, want an append: %v", s.name, apps, reps, s.append)
					}
					fresh := engine()
					for pass := 0; pass < 2; pass++ {
						want, got := answers(fresh, s.name+" (fresh engine)"), answers(e, s.name)
						for i := range want {
							if !values.Equal(got[i], want[i]) {
								t.Fatalf("%s, pass %d: %s\n got  %v\n want %v (fresh engine)", s.name, pass, refreshTemplates[i], got[i], want[i])
							}
						}
					}
				}
			})
		}
	}
}

// TestRefreshPastAnUnreadableSource: a file that cannot be read fails its
// own source's refresh and no other. Every other source shows its append,
// the failed one keeps answering from the generation it published, and
// the error names it.
func TestRefreshPastAnUnreadableSource(t *testing.T) {
	const sources, missing = 9, 4
	dir := t.TempDir()
	e := NewEngine(Options{})
	paths := make([]string, sources)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("file%d.csv", i))
		writeFormat(t, sdg.FormatCSV, paths[i], 3, 0)
		if err := e.Register(sdg.DefaultDescription(fmt.Sprintf("S%d", i), sdg.FormatCSV, paths[i], matrixSchema())); err != nil {
			t.Fatal(err)
		}
	}
	count := func(i int) int64 {
		v, err := e.Query(fmt.Sprintf(`for { t <- S%d } yield sum 1`, i))
		if err != nil {
			t.Fatal(err)
		}
		return v.Int()
	}
	for i := range paths {
		count(i)
	}
	if err := os.Remove(paths[missing]); err != nil {
		t.Fatal(err)
	}
	for i, p := range paths {
		if i != missing {
			writeFormat(t, sdg.FormatCSV, p, 4, 0)
		}
	}
	err := e.Refresh()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("S%d", missing)) {
		t.Fatalf("Refresh = %v, want an error naming S%d", err, missing)
	}
	for i := range paths {
		want := int64(4)
		if i == missing {
			want = 3
		}
		if n := count(i); n != want {
			t.Errorf("S%d answers %d rows after Refresh, want %d", i, n, want)
		}
	}
}
