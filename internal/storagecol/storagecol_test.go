package storagecol

import (
	"fmt"
	"os"
	"testing"

	"vida/internal/basequery"
	"vida/internal/sdg"
	"vida/internal/values"
)

func attrs() []sdg.Attr {
	return []sdg.Attr{
		{Name: "id", Type: sdg.Int},
		{Name: "city", Type: sdg.String},
		{Name: "score", Type: sdg.Float},
		{Name: "ok", Type: sdg.Bool},
	}
}

func loadTable(t *testing.T, n int) (*Store, *Table, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := s.CreateTable("T", attrs())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		err := tbl.Insert([]values.Value{
			values.NewInt(int64(i)),
			values.NewString(fmt.Sprintf("c%d", i%7)),
			values.NewFloat(float64(i) / 4),
			values.NewBool(i%3 == 0),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.FinishLoad(dir); err != nil {
		t.Fatal(err)
	}
	return s, tbl, dir
}

func TestScanRoundTrip(t *testing.T) {
	_, tbl, _ := loadTable(t, 500)
	var rows []values.Value
	if err := tbl.Scan(nil, nil, func(v values.Value) error {
		rows = append(rows, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 500 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[13].MustGet("city").Str() != "c6" || rows[13].MustGet("score").Float() != 3.25 {
		t.Fatalf("row 13 = %v", rows[13])
	}
}

func TestSelectionVector(t *testing.T) {
	_, tbl, _ := loadTable(t, 100)
	preds := []basequery.Pred{
		{Col: "score", Op: basequery.OpGe, Val: values.NewFloat(20)},
		{Col: "ok", Op: basequery.OpEq, Val: values.True},
	}
	sel, err := tbl.Select(preds)
	if err != nil {
		t.Fatal(err)
	}
	// score >= 20 → i >= 80; ok → i%3==0 → 81, 84, ..., 99 → 7 rows.
	if len(sel) != 7 {
		t.Fatalf("selection = %v", sel)
	}
}

func TestAggregateFastPath(t *testing.T) {
	_, tbl, _ := loadTable(t, 100)
	sum, err := tbl.Aggregate(basequery.AggSum, "score", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for i := 0; i < 100; i++ {
		want += float64(i) / 4
	}
	if sum.Float() != want {
		t.Fatalf("sum = %v, want %v", sum, want)
	}
	cnt, err := tbl.Aggregate(basequery.AggCount, "", []basequery.Pred{
		{Col: "id", Op: basequery.OpLt, Val: values.NewInt(10)},
	})
	if err != nil || cnt.Int() != 10 {
		t.Fatalf("count = %v, %v", cnt, err)
	}
	mx, err := tbl.Aggregate(basequery.AggMax, "id", nil)
	if err != nil || mx.Int() != 99 {
		t.Fatalf("max = %v, %v", mx, err)
	}
	avg, err := tbl.Aggregate(basequery.AggAvg, "id", nil)
	if err != nil || avg.Float() != 49.5 {
		t.Fatalf("avg = %v, %v", avg, err)
	}
}

func TestDictionaryEncoding(t *testing.T) {
	_, tbl, _ := loadTable(t, 1000)
	n, err := tbl.DictSize("city")
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("dict size = %d, want 7 (distinct cities)", n)
	}
}

func TestNulls(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	tbl, _ := s.CreateTable("N", attrs())
	if err := tbl.Insert([]values.Value{values.Null, values.Null, values.Null, values.Null}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert([]values.Value{values.NewInt(1), values.NewString("x"), values.NewFloat(2), values.True}); err != nil {
		t.Fatal(err)
	}
	var rows []values.Value
	_ = tbl.Scan(nil, nil, func(v values.Value) error { rows = append(rows, v); return nil })
	if !rows[0].MustGet("id").IsNull() || !rows[0].MustGet("city").IsNull() {
		t.Fatalf("nulls lost: %v", rows[0])
	}
	// Null rows never satisfy predicates.
	sel, err := tbl.Select([]basequery.Pred{{Col: "id", Op: basequery.OpGe, Val: values.NewInt(0)}})
	if err != nil || len(sel) != 1 {
		t.Fatalf("null filtering = %v, %v", sel, err)
	}
	// Aggregates skip nulls.
	avg, err := tbl.Aggregate(basequery.AggAvg, "score", nil)
	if err != nil || avg.Float() != 2 {
		t.Fatalf("avg over nulls = %v", avg)
	}
}

func TestTypeMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	tbl, _ := s.CreateTable("X", attrs())
	err := tbl.Insert([]values.Value{values.NewString("notint"), values.NewString("c"), values.NewFloat(1), values.True})
	if err == nil {
		t.Fatal("type mismatch accepted")
	}
}

func TestPersistedFilesExist(t *testing.T) {
	_, tbl, dir := loadTable(t, 10)
	if tbl.MemBytes() == 0 {
		t.Fatal("no memory accounted")
	}
	// One file per column.
	for _, a := range attrs() {
		path := fmt.Sprintf("%s/T.%s.col", dir, a.Name)
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("column file missing: %v", err)
		}
	}
}

func TestUnknownColumn(t *testing.T) {
	_, tbl, _ := loadTable(t, 5)
	if _, err := tbl.Select([]basequery.Pred{{Col: "zz", Op: basequery.OpEq, Val: values.NewInt(1)}}); err == nil {
		t.Fatal("unknown predicate column accepted")
	}
	if err := tbl.Scan([]string{"zz"}, nil, func(values.Value) error { return nil }); err == nil {
		t.Fatal("unknown projection column accepted")
	}
	if _, err := tbl.Aggregate(basequery.AggSum, "zz", nil); err == nil {
		t.Fatal("unknown aggregate column accepted")
	}
}
