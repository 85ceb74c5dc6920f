package cache

import (
	"fmt"
	"testing"

	"vida/internal/bsonlite"
	"vida/internal/values"
	"vida/internal/vec"
)

func intCol(n int, f func(int) int64) []values.Value {
	out := make([]values.Value, n)
	for i := range out {
		out[i] = values.NewInt(f(i))
	}
	return out
}

// putBoxed installs columns under the boxed fallback representation —
// what a scan of a record-only plug-in, or a mixed-type column, harvests.
func putBoxed(m *Manager, dataset string, n int, cols map[string][]values.Value) error {
	vcols := make(map[string]vec.Col, len(cols))
	for name, col := range cols {
		vcols[name] = vec.Col{Tag: vec.Boxed, Boxed: col}
	}
	return m.PutColumnVectors(dataset, n, vcols)
}

func TestColumnsPutGetAndAccumulate(t *testing.T) {
	m := New(0)
	if err := putBoxed(m, "p", 3, map[string][]values.Value{
		"id": intCol(3, func(i int) int64 { return int64(i) }),
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.GetColumns("p", []string{"id"}); !ok {
		t.Fatal("columns miss")
	}
	if _, ok := m.GetColumns("p", []string{"id", "age"}); ok {
		t.Fatal("should miss: age not cached")
	}
	// Accumulate a second column; both must now be served.
	if err := putBoxed(m, "p", 3, map[string][]values.Value{
		"age": intCol(3, func(i int) int64 { return int64(30 + i) }),
	}); err != nil {
		t.Fatal(err)
	}
	e, ok := m.GetColumns("p", []string{"id", "age"})
	if !ok {
		t.Fatal("accumulated columns miss")
	}
	if len(e.Cols) != 2 {
		t.Fatalf("cols = %d", len(e.Cols))
	}
}

func TestColumnsLengthMismatchRejected(t *testing.T) {
	m := New(0)
	err := putBoxed(m, "p", 3, map[string][]values.Value{
		"id": intCol(2, func(i int) int64 { return 0 }),
	})
	if err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestColumnsShapeChangeReplaces(t *testing.T) {
	m := New(0)
	_ = putBoxed(m, "p", 3, map[string][]values.Value{"id": intCol(3, func(i int) int64 { return 0 })})
	_ = putBoxed(m, "p", 5, map[string][]values.Value{"id": intCol(5, func(i int) int64 { return 0 })})
	e, ok := m.GetColumns("p", []string{"id"})
	if !ok || e.N != 5 {
		t.Fatalf("entry after shape change: %+v, %v", e, ok)
	}
}

func TestRowsBSONSpans(t *testing.T) {
	m := New(0)
	rows := []values.Value{
		values.NewRecord(values.Field{Name: "a", Val: values.NewInt(1)}),
	}
	m.PutRows("r", rows)
	if e, ok := m.Get("r", LayoutRows); !ok || e.N != 1 {
		t.Fatal("rows entry missing")
	}
	doc, _ := bsonlite.Marshal(rows[0])
	m.PutBSON("b", [][]byte{doc})
	if e, ok := m.Get("b", LayoutBSON); !ok || e.N != 1 {
		t.Fatal("bson entry missing")
	}
	m.PutSpans("s", []Span{{0, 10}, {10, 25}})
	if e, ok := m.Get("s", LayoutSpans); !ok || e.N != 2 {
		t.Fatal("spans entry missing")
	}
}

func TestInvalidate(t *testing.T) {
	m := New(0)
	_ = putBoxed(m, "p", 1, map[string][]values.Value{"id": intCol(1, func(i int) int64 { return 0 })})
	m.PutSpans("p", []Span{{0, 5}})
	m.PutSpans("q", []Span{{0, 5}})
	m.Invalidate("p")
	if _, ok := m.Peek("p", LayoutColumns); ok {
		t.Fatal("columns survived invalidation")
	}
	if _, ok := m.Peek("p", LayoutSpans); ok {
		t.Fatal("spans survived invalidation")
	}
	if _, ok := m.Peek("q", LayoutSpans); !ok {
		t.Fatal("unrelated dataset invalidated")
	}
}

func TestLRUEvictionUnderBudget(t *testing.T) {
	m := New(400)
	m.PutSpans("a", make([]Span, 10)) // 160 bytes
	m.PutSpans("b", make([]Span, 10))
	// Touch "a" so "b" is the LRU victim.
	m.Get("a", LayoutSpans)
	m.PutSpans("c", make([]Span, 10)) // pushes over 400
	if _, ok := m.Peek("b", LayoutSpans); ok {
		t.Fatal("LRU victim b survived")
	}
	if _, ok := m.Peek("a", LayoutSpans); !ok {
		t.Fatal("recently used a evicted")
	}
	if m.Stats().Evictions == 0 {
		t.Fatal("eviction not counted")
	}
}

func TestStatsCounting(t *testing.T) {
	m := New(0)
	m.PutSpans("a", []Span{{0, 1}})
	m.Get("a", LayoutSpans)
	m.Get("nope", LayoutSpans)
	st := m.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Insertions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesUsed <= 0 {
		t.Fatal("bytes used not tracked")
	}
}

func TestPeekDoesNotDistortStats(t *testing.T) {
	m := New(0)
	m.PutSpans("a", []Span{{0, 1}})
	m.Peek("a", LayoutSpans)
	m.PeekColumns("a", []string{"x"})
	st := m.Stats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("peek distorted stats: %+v", st)
	}
}

func TestColumnsSourceIterate(t *testing.T) {
	m := New(0)
	_ = putBoxed(m, "p", 3, map[string][]values.Value{
		"id":  intCol(3, func(i int) int64 { return int64(i + 1) }),
		"age": intCol(3, func(i int) int64 { return int64(30 + i) }),
	})
	e, _ := m.GetColumns("p", []string{"id", "age"})
	src := &ColumnsSource{Entry: e, Dataset: "p"}
	var rows []values.Value
	if err := src.Iterate([]string{"age"}, func(v values.Value) error {
		rows = append(rows, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[2].MustGet("age").Int() != 32 {
		t.Fatalf("rows = %v", rows)
	}
	// Unprojected iteration serves all columns.
	var all []values.Value
	if err := src.Iterate(nil, func(v values.Value) error {
		all = append(all, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if all[0].Len() != 2 {
		t.Fatalf("full row = %v", all[0])
	}
	if err := src.Iterate([]string{"zzz"}, func(values.Value) error { return nil }); err == nil {
		t.Fatal("missing column should error")
	}
}

func TestRowsSourceProjection(t *testing.T) {
	rows := []values.Value{
		values.NewRecord(
			values.Field{Name: "a", Val: values.NewInt(1)},
			values.Field{Name: "b", Val: values.NewString("x")},
		),
	}
	m := New(0)
	m.PutRows("r", rows)
	e, _ := m.Get("r", LayoutRows)
	src := &RowsSource{Entry: e, Dataset: "r"}
	var out []values.Value
	if err := src.Iterate([]string{"b"}, func(v values.Value) error {
		out = append(out, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if out[0].Len() != 1 || out[0].MustGet("b").Str() != "x" {
		t.Fatalf("projected = %v", out[0])
	}
}

func TestBSONSourceFieldDecode(t *testing.T) {
	v := values.NewRecord(
		values.Field{Name: "big", Val: values.NewString(string(make([]byte, 1000)))},
		values.Field{Name: "id", Val: values.NewInt(9)},
	)
	doc, err := bsonlite.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	m := New(0)
	m.PutBSON("d", [][]byte{doc})
	e, _ := m.Get("d", LayoutBSON)
	src := &BSONSource{Entry: e, Dataset: "d"}
	var out []values.Value
	if err := src.Iterate([]string{"id"}, func(v values.Value) error {
		out = append(out, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if out[0].MustGet("id").Int() != 9 {
		t.Fatalf("bson projection = %v", out[0])
	}
	// Full decode path.
	var full []values.Value
	if err := src.Iterate(nil, func(v values.Value) error {
		full = append(full, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if full[0].Len() != 2 {
		t.Fatalf("full bson decode = %v", full[0])
	}
}

func TestDescribe(t *testing.T) {
	m := New(0)
	_ = putBoxed(m, "p", 1, map[string][]values.Value{"id": intCol(1, func(i int) int64 { return 0 })})
	m.PutSpans("q", []Span{{0, 5}})
	s := m.Describe()
	for _, want := range []string{"p [columns]", "q [spans]", "cols=[id:boxed]"} {
		if !contains(s, want) {
			t.Fatalf("Describe missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || fmt.Sprintf("%s", s) != "" && stringsContains(s, sub))
}

func stringsContains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestEstimateValueBytes(t *testing.T) {
	small := EstimateValueBytes(values.NewInt(1))
	big := EstimateValueBytes(values.NewString(string(make([]byte, 10_000))))
	if big <= small {
		t.Fatal("size estimate ignores payload")
	}
	nested := EstimateValueBytes(values.NewRecord(
		values.Field{Name: "xs", Val: values.NewList(values.NewInt(1), values.NewInt(2))},
	))
	if nested <= small {
		t.Fatal("nested estimate too small")
	}
}

func TestColumnsSourceBatches(t *testing.T) {
	m := New(0)
	n := 37
	cols := map[string][]values.Value{"a": nil, "b": nil}
	for i := 0; i < n; i++ {
		cols["a"] = append(cols["a"], values.NewInt(int64(i)))
		cols["b"] = append(cols["b"], values.NewString("x"))
	}
	if err := putBoxed(m, "D", n, cols); err != nil {
		t.Fatal(err)
	}
	e, ok := m.GetColumns("D", []string{"a", "b"})
	if !ok {
		t.Fatal("miss")
	}
	src := &ColumnsSource{Entry: e, Dataset: "D"}
	var got []int64
	batches := 0
	err := src.IterateBatches([]string{"a", "b"}, 16, func(b *vec.Batch) error {
		batches++
		if !b.Stable {
			t.Fatal("cache batches must be marked stable")
		}
		for k := 0; k < b.Len(); k++ {
			got = append(got, b.Cols[0].Value(b.Index(k)).Int())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n || batches != 3 {
		t.Fatalf("rows=%d batches=%d", len(got), batches)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("row %d = %d", i, v)
		}
	}
	scan, total, ok := src.OpenRange([]string{"a"})
	if !ok || total != n {
		t.Fatalf("OpenRange ok=%v n=%d", ok, total)
	}
	var ranged []int64
	if err := scan(10, 20, 4, func(b *vec.Batch) error {
		for k := 0; k < b.Len(); k++ {
			ranged = append(ranged, b.Cols[0].Value(b.Index(k)).Int())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ranged) != 10 || ranged[0] != 10 || ranged[9] != 19 {
		t.Fatalf("ranged = %v", ranged)
	}
}

func TestManagerTouch(t *testing.T) {
	m := New(0)
	if err := putBoxed(m, "D", 1, map[string][]values.Value{"a": {values.NewInt(1)}}); err != nil {
		t.Fatal(err)
	}
	before := m.Stats().Hits
	m.Touch("D", LayoutColumns)
	if got := m.Stats().Hits; got != before+1 {
		t.Fatalf("hits = %d, want %d", got, before+1)
	}
}
