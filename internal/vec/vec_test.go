package vec

import (
	"testing"

	"vida/internal/values"
)

func TestColTypedAppendAndValue(t *testing.T) {
	var c Col
	c.Reset(Int64)
	c.AppendInt(4)
	c.AppendNull()
	c.AppendInt(9)
	if c.Len() != 3 {
		t.Fatalf("len = %d", c.Len())
	}
	if c.Value(0).Int() != 4 || !c.Value(1).IsNull() || c.Value(2).Int() != 9 {
		t.Fatalf("values: %v %v %v", c.Value(0), c.Value(1), c.Value(2))
	}
	// The mask materialized lazily but covers earlier rows.
	if c.Nulls == nil || c.Nulls[0] || !c.Nulls[1] || c.Nulls[2] {
		t.Fatalf("nulls mask: %v", c.Nulls)
	}

	var f Col
	f.Reset(Float64)
	f.AppendFloat(1.25)
	if f.Value(0).Float() != 1.25 {
		t.Fatal("float column")
	}
	var s Col
	s.Reset(Str)
	s.AppendStr("hi")
	s.AppendNull()
	if s.Value(0).Str() != "hi" || !s.Value(1).IsNull() {
		t.Fatal("string column")
	}
}

func TestBatchSelection(t *testing.T) {
	b := New(1)
	for i := 0; i < 5; i++ {
		b.AppendRow([]values.Value{values.NewInt(int64(i))})
	}
	if b.Len() != 5 || b.Index(3) != 3 {
		t.Fatal("unselected batch")
	}
	b.Sel = []int{1, 4}
	if b.Len() != 2 || b.Index(0) != 1 || b.Index(1) != 4 {
		t.Fatal("selected batch")
	}
	b.Reset()
	if b.Len() != 0 || b.Sel != nil || b.Cols[0].Len() != 0 {
		t.Fatal("reset")
	}
}

func TestRetain(t *testing.T) {
	// Transient batch: retained copy must survive producer reuse.
	b := NewTyped([]Tag{Int64}, 4)
	b.Cols[0].AppendInt(1)
	b.Cols[0].AppendInt(2)
	b.N = 2
	kept := b.Retain()
	b.Reset()
	b.Cols[0].AppendInt(99)
	b.N = 1
	if kept.N != 2 || kept.Cols[0].Value(0).Int() != 1 || kept.Cols[0].Value(1).Int() != 2 {
		t.Fatalf("retained copy corrupted by producer reuse: %+v", kept.Cols[0])
	}
	// Stable batch: retention shares storage.
	st := &Batch{Cols: []Col{{Tag: Boxed, Boxed: []values.Value{values.NewInt(7)}}}, N: 1, Stable: true}
	shared := st.Retain()
	if &shared.Cols[0].Boxed[0] != &st.Cols[0].Boxed[0] {
		t.Fatal("stable retention should share backing storage")
	}
}

// TestPackAndBoxRecordsRoundTrip pins the two adapters of the scan
// contract: records lift into boxed batches (a missing field reads as
// null, batches honour the size), and the live rows of a batch lower
// back into records in field order.
func TestPackAndBoxRecordsRoundTrip(t *testing.T) {
	recs := []values.Value{
		values.NewRecord(values.Field{Name: "a", Val: values.NewInt(1)}, values.Field{Name: "b", Val: values.NewString("x")}),
		values.NewRecord(values.Field{Name: "a", Val: values.NewInt(2)}),
		values.NewRecord(values.Field{Name: "b", Val: values.NewString("z")}, values.Field{Name: "a", Val: values.NewInt(3)}),
	}
	iterate := func(fields []string, yield func(values.Value) error) error {
		for _, r := range recs {
			if err := yield(r); err != nil {
				return err
			}
		}
		return nil
	}
	fields := []string{"b", "a"}
	var sizes []int
	var got []values.Value
	err := PackRecords(iterate, fields, 2, func(b *Batch) error {
		sizes = append(sizes, b.Len())
		if b.Stable {
			t.Error("packed batches reuse storage and must not be Stable")
		}
		// Drop the first row of every batch through the selection vector:
		// only live rows may come back.
		b.Sel = []int{}
		for i := 1; i < b.N; i++ {
			b.Sel = append(b.Sel, i)
		}
		return BoxRecords(b, fields, func(v values.Value) error {
			got = append(got, v)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 2 || sizes[0] != 2 || sizes[1] != 1 {
		t.Fatalf("batch sizes = %v, want [2 1]", sizes)
	}
	want := values.NewRecord(values.Field{Name: "b", Val: values.Null}, values.Field{Name: "a", Val: values.NewInt(2)})
	if len(got) != 1 || !values.Equal(got[0], want) || got[0].Fields()[0].Name != "b" {
		t.Fatalf("lowered rows = %v, want [%v]", got, want)
	}
}
