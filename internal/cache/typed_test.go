package cache

import (
	"fmt"
	"slices"
	"testing"

	"vida/internal/values"
	"vida/internal/vec"
)

func typedCols(n int) map[string]vec.Col {
	ints := make([]int64, n)
	strs := make([]string, n)
	keys := make([]string, n)
	for i := 0; i < n; i++ {
		ints[i] = int64(i)
		strs[i] = "row"
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	return map[string]vec.Col{
		"id":   {Tag: vec.Int64, Ints: ints},
		"name": {Tag: vec.Str, Strs: strs},
		"key":  {Tag: vec.Str, Strs: keys},
	}
}

// TestTypedColumnsServedZeroCopy checks batch scans over a typed entry
// keep the typed representation and alias the cached storage (no copy,
// no boxing). The one-value string column is installed dictionary-coded,
// the all-distinct one stays plain strings; both serve windows of the
// installed storage.
func TestTypedColumnsServedZeroCopy(t *testing.T) {
	m := New(0)
	cols := typedCols(40)
	if err := m.PutColumnVectors("D", 40, cols); err != nil {
		t.Fatal(err)
	}
	e, ok := m.GetColumns("D", []string{"id", "name", "key"})
	if !ok {
		t.Fatal("miss")
	}
	name := e.Cols["name"]
	src := &ColumnsSource{Entry: e, Dataset: "D"}
	rows := 0
	err := src.IterateBatches([]string{"id", "name", "key"}, 16, func(b *vec.Batch) error {
		if !b.Stable {
			t.Fatal("cache batches must be stable")
		}
		if b.Cols[0].Tag != vec.Int64 || b.Cols[1].Tag != vec.StrDict || b.Cols[2].Tag != vec.Str {
			t.Fatalf("tags = %v/%v/%v, want int64/strdict/string", b.Cols[0].Tag, b.Cols[1].Tag, b.Cols[2].Tag)
		}
		if &b.Cols[0].Ints[0] != &cols["id"].Ints[rows] || &b.Cols[2].Strs[0] != &cols["key"].Strs[rows] ||
			&b.Cols[1].Codes[0] != &name.Codes[rows] || !slices.Equal(b.Cols[1].Dict, []string{"row"}) {
			t.Fatal("batch must alias cached storage (zero-copy)")
		}
		rows += b.Len()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != 40 {
		t.Fatalf("rows = %d", rows)
	}
	// Row-oriented access boxes on demand.
	var first values.Value
	if err := src.Iterate([]string{"id"}, func(v values.Value) error {
		if first.IsNull() {
			first = v
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if first.MustGet("id").Int() != 0 {
		t.Fatalf("boxed row = %v", first)
	}
}

// TestTypedEvictionAccounting checks eviction sizes typed entries by
// their physical payload, not the boxed estimate.
func TestTypedEvictionAccounting(t *testing.T) {
	m := New(0)
	n := 100
	if err := m.PutColumnVectors("typed", n, map[string]vec.Col{
		"id": {Tag: vec.Int64, Ints: make([]int64, n)},
	}); err != nil {
		t.Fatal(err)
	}
	boxed := make([]values.Value, n)
	for i := range boxed {
		boxed[i] = values.NewInt(0)
	}
	if err := putBoxed(m, "boxed", n, map[string][]values.Value{"id": boxed}); err != nil {
		t.Fatal(err)
	}
	te, _ := m.Peek("typed", LayoutColumns)
	be, _ := m.Peek("boxed", LayoutColumns)
	if te.SizeBytes() != int64(n*8) {
		t.Fatalf("typed size = %d, want %d", te.SizeBytes(), n*8)
	}
	if be.SizeBytes() <= te.SizeBytes()*5 {
		t.Fatalf("boxed size %d should dwarf typed %d", be.SizeBytes(), te.SizeBytes())
	}
	if used := m.Stats().BytesUsed; used != te.SizeBytes()+be.SizeBytes() {
		t.Fatalf("BytesUsed = %d, want %d", used, te.SizeBytes()+be.SizeBytes())
	}

	// A budget that holds the typed entry but not both evicts LRU-wise
	// using the typed sizes.
	m2 := New(te.SizeBytes() + 100)
	if err := m2.PutColumnVectors("a", n, map[string]vec.Col{
		"id": {Tag: vec.Int64, Ints: make([]int64, n)},
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := m2.Peek("a", LayoutColumns); !ok {
		t.Fatal("typed entry should fit its budget")
	}
	if err := m2.PutColumnVectors("b", n, map[string]vec.Col{
		"id": {Tag: vec.Int64, Ints: make([]int64, n)},
	}); err != nil {
		t.Fatal(err)
	}
	st := m2.Stats()
	if st.Evictions == 0 || st.BytesUsed > te.SizeBytes()+100 {
		t.Fatalf("eviction accounting off: %+v", st)
	}
}

// TestTypedEntryExtensionKeepsStorage checks copy-on-write extension
// shares the already-cached typed columns and only charges the new one.
func TestTypedEntryExtensionKeepsStorage(t *testing.T) {
	m := New(0)
	n := 10
	ids := make([]int64, n)
	if err := m.PutColumnVectors("D", n, map[string]vec.Col{"id": {Tag: vec.Int64, Ints: ids}}); err != nil {
		t.Fatal(err)
	}
	e1, _ := m.Peek("D", LayoutColumns)
	if err := m.PutColumnVectors("D", n, map[string]vec.Col{
		"age": {Tag: vec.Int64, Ints: make([]int64, n)},
	}); err != nil {
		t.Fatal(err)
	}
	e2, _ := m.Peek("D", LayoutColumns)
	if e1 == e2 {
		t.Fatal("extension must publish a new entry (copy-on-write)")
	}
	if len(e2.Cols) != 2 {
		t.Fatalf("cols = %d", len(e2.Cols))
	}
	idCol := e2.Cols["id"]
	if &idCol.Ints[0] != &ids[0] {
		t.Fatal("extension must share existing column storage")
	}
	if e2.SizeBytes() != int64(2*n*8) {
		t.Fatalf("size = %d", e2.SizeBytes())
	}
}

// TestNullMaskRoundTrip checks masked typed columns serve nulls through
// both the batch and boxed access paths.
func TestNullMaskRoundTrip(t *testing.T) {
	m := New(0)
	col := vec.Col{Tag: vec.Int64, Ints: []int64{1, 0, 3}, Nulls: []bool{false, true, false}}
	if err := m.PutColumnVectors("D", 3, map[string]vec.Col{"v": col}); err != nil {
		t.Fatal(err)
	}
	e, _ := m.GetColumns("D", []string{"v"})
	src := &ColumnsSource{Entry: e, Dataset: "D"}
	var got []values.Value
	if err := src.IterateBatches([]string{"v"}, 2, func(b *vec.Batch) error {
		for k := 0; k < b.Len(); k++ {
			got = append(got, b.Cols[0].Value(b.Index(k)))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !got[1].IsNull() || got[2].Int() != 3 {
		t.Fatalf("got = %v", got)
	}
}
