package docstore

import (
	"fmt"
	"os"
	"testing"

	"vida/internal/basequery"
	"vida/internal/values"
)

func doc(id int64, name string, vol float64) values.Value {
	return values.NewRecord(
		values.Field{Name: "id", Val: values.NewInt(id)},
		values.Field{Name: "name", Val: values.NewString(name)},
		values.Field{Name: "volume", Val: values.NewFloat(vol)},
		values.Field{Name: "meta", Val: values.NewRecord(
			values.Field{Name: "algo", Val: values.NewString("a")},
		)},
	)
}

func loadCollection(t *testing.T, n int) (*Store, *Collection) {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.CreateCollection("regions")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := c.Insert(doc(int64(i%10), fmt.Sprintf("r%d", i), float64(i)*1.5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FinishLoad(); err != nil {
		t.Fatal(err)
	}
	return s, c
}

func TestInsertFind(t *testing.T) {
	_, c := loadCollection(t, 100)
	if c.NumDocs() != 100 {
		t.Fatalf("docs = %d", c.NumDocs())
	}
	var out []values.Value
	preds := []basequery.Pred{{Col: "volume", Op: basequery.OpGt, Val: values.NewFloat(140)}}
	if err := c.Find(nil, preds, func(v values.Value) error {
		out = append(out, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// volume = i*1.5 > 140 → i >= 94 → 6 docs.
	if len(out) != 6 {
		t.Fatalf("matches = %d", len(out))
	}
	// Whole docs decode with nested structure.
	if out[0].MustGet("meta").MustGet("algo").Str() != "a" {
		t.Fatalf("nested lost: %v", out[0])
	}
}

func TestProjection(t *testing.T) {
	_, c := loadCollection(t, 10)
	var out []values.Value
	if err := c.Find([]string{"id"}, nil, func(v values.Value) error {
		out = append(out, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if out[0].Len() != 1 {
		t.Fatalf("projection leaked: %v", out[0])
	}
}

func TestIndexNarrowsEquality(t *testing.T) {
	_, c := loadCollection(t, 1000)
	if err := c.EnsureIndex("id"); err != nil {
		t.Fatal(err)
	}
	var out []values.Value
	preds := []basequery.Pred{{Col: "id", Op: basequery.OpEq, Val: values.NewInt(3)}}
	if err := c.Find([]string{"name"}, preds, func(v values.Value) error {
		out = append(out, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(out) != 100 {
		t.Fatalf("indexed find = %d, want 100", len(out))
	}
	// Index must agree with full scan.
	var full []values.Value
	c2 := &Collection{docs: c.docs, indexes: map[string]map[uint64][]int{}}
	if err := c2.Find([]string{"name"}, preds, func(v values.Value) error {
		full = append(full, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(full) != len(out) {
		t.Fatalf("index diverges from scan: %d vs %d", len(out), len(full))
	}
}

func TestIndexMaintainedAcrossInserts(t *testing.T) {
	s, _ := Open(t.TempDir())
	c, _ := s.CreateCollection("x")
	if err := c.EnsureIndex("id"); err != nil {
		t.Fatal(err)
	}
	_ = c.Insert(doc(7, "later", 1))
	var out []values.Value
	preds := []basequery.Pred{{Col: "id", Op: basequery.OpEq, Val: values.NewInt(7)}}
	_ = c.Find(nil, preds, func(v values.Value) error { out = append(out, v); return nil })
	if len(out) != 1 {
		t.Fatalf("index missed post-index insert: %d", len(out))
	}
}

func TestSizeAmplification(t *testing.T) {
	// The encoded size must exceed a compact raw-JSON rendering: field
	// names repeat per document plus framing overhead (paper: Mongo
	// import reached 2x the raw JSON size).
	_, c := loadCollection(t, 500)
	var rawJSON int64
	for i := 0; i < 500; i++ {
		rawJSON += int64(len(fmt.Sprintf(`{"id":%d,"name":"r%d","volume":%g,"meta":{"algo":"a"}}`, i%10, i, float64(i)*1.5)))
	}
	if c.SizeBytes() <= rawJSON {
		t.Fatalf("no space amplification: encoded=%d raw=%d", c.SizeBytes(), rawJSON)
	}
}

func TestPersistedFile(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	c, _ := s.CreateCollection("r")
	_ = c.Insert(doc(1, "x", 2))
	if err := c.FinishLoad(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(dir + "/r.docs")
	if err != nil || fi.Size() == 0 {
		t.Fatalf("collection file missing: %v", err)
	}
}

func TestDocAccess(t *testing.T) {
	_, c := loadCollection(t, 5)
	v, err := c.Doc(2)
	if err != nil || v.MustGet("name").Str() != "r2" {
		t.Fatalf("Doc(2) = %v, %v", v, err)
	}
	if _, err := c.Doc(99); err == nil {
		t.Fatal("out of range doc accepted")
	}
}

func TestDuplicateCollection(t *testing.T) {
	s, _ := Open(t.TempDir())
	if _, err := s.CreateCollection("c"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateCollection("c"); err == nil {
		t.Fatal("duplicate collection accepted")
	}
	if got := s.Collections(); len(got) != 1 || got[0] != "c" {
		t.Fatalf("collections = %v", got)
	}
}
