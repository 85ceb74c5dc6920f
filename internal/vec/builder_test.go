package vec

import "testing"

func intBatch(vals ...int64) *Batch {
	b := &Batch{Cols: make([]Col, 1), N: len(vals)}
	b.Cols[0] = Col{Tag: Int64, Ints: vals}
	return b
}

func TestColBuilderTypedBulk(t *testing.T) {
	cb := NewColBuilder(8)
	cb.Append(&intBatch(1, 2, 3).Cols[0], intBatch(1, 2, 3))
	cb.Append(&intBatch(4, 5).Cols[0], intBatch(4, 5))
	col := cb.Finish()
	if col.Tag != Int64 || len(col.Ints) != 5 || col.Ints[4] != 5 {
		t.Fatalf("col = %+v", col)
	}
	if col.Nulls != nil {
		t.Fatal("no nulls expected")
	}
}

func TestColBuilderSelectionAndNulls(t *testing.T) {
	b := intBatch(10, 20, 30, 40)
	b.Cols[0].Nulls = []bool{false, true, false, false}
	b.Sel = []int{0, 1, 3}
	cb := NewColBuilder(0)
	cb.Append(&b.Cols[0], b)
	col := cb.Finish()
	if col.Tag != Int64 || col.Len() != 3 {
		t.Fatalf("col = %+v", col)
	}
	if col.Nulls == nil || !col.Nulls[1] || col.Nulls[0] || col.Nulls[2] {
		t.Fatalf("nulls = %v", col.Nulls)
	}
	if col.Ints[0] != 10 || col.Ints[2] != 40 {
		t.Fatalf("ints = %v", col.Ints)
	}
}

func TestColBuilderNullsAfterCleanBulk(t *testing.T) {
	// A mask arriving after mask-free batches must backfill valid rows.
	cb := NewColBuilder(0)
	cb.Append(&intBatch(1, 2).Cols[0], intBatch(1, 2))
	b := intBatch(3, 4)
	b.Cols[0].Nulls = []bool{true, false}
	cb.Append(&b.Cols[0], b)
	col := cb.Finish()
	if col.Len() != 4 || len(col.Nulls) != 4 {
		t.Fatalf("col = %+v", col)
	}
	if col.Nulls[0] || col.Nulls[1] || !col.Nulls[2] || col.Nulls[3] {
		t.Fatalf("nulls = %v", col.Nulls)
	}
	// And the reverse: a mask-free batch after a masked one extends the
	// mask with valid rows.
	cb2 := NewColBuilder(0)
	cb2.Append(&b.Cols[0], b)
	cb2.Append(&intBatch(5).Cols[0], intBatch(5))
	col2 := cb2.Finish()
	if len(col2.Nulls) != 3 || col2.Nulls[2] {
		t.Fatalf("nulls = %v", col2.Nulls)
	}
}

func TestColBuilderMixedTagFallsBackToBoxed(t *testing.T) {
	cb := NewColBuilder(0)
	cb.Append(&intBatch(1, 2).Cols[0], intBatch(1, 2))
	fb := &Batch{Cols: []Col{{Tag: Float64, Floats: []float64{2.5}}}, N: 1}
	cb.Append(&fb.Cols[0], fb)
	col := cb.Finish()
	if col.Tag != Boxed || col.Len() != 3 {
		t.Fatalf("col = %+v", col)
	}
	if col.Boxed[0].Int() != 1 || col.Boxed[2].Float() != 2.5 {
		t.Fatalf("boxed = %v", col.Boxed)
	}
}

func TestColBuilderEmptyFinishesBoxed(t *testing.T) {
	col := NewColBuilder(4).Finish()
	if col.Tag != Boxed || col.Len() != 0 {
		t.Fatalf("col = %+v", col)
	}
}

func TestColSliceSharesStorage(t *testing.T) {
	c := Col{Tag: Int64, Ints: []int64{1, 2, 3, 4}, Nulls: []bool{false, true, false, false}}
	w := c.Slice(1, 3)
	if w.Len() != 2 || w.Ints[0] != 2 || !w.Nulls[0] || w.Nulls[1] {
		t.Fatalf("window = %+v", w)
	}
	if &w.Ints[0] != &c.Ints[1] {
		t.Fatal("window must alias parent storage (zero-copy)")
	}
	s := Col{Tag: Str, Strs: []string{"a", "b"}}
	if sw := s.Slice(1, 2); sw.Strs[0] != "b" || &sw.Strs[0] != &s.Strs[1] {
		t.Fatal("string window must alias parent storage")
	}
	// A window is sized as the window: a traced scan sizes every batch, and
	// walking each window's strings to the end of the column made that
	// quadratic in the column length.
	long := Col{Tag: Str, Strs: []string{"aa", "bb", "cc", "dd", "ee"}}
	b := &Batch{Cols: []Col{long.Slice(1, 3)}, N: 2}
	if got := b.MemoryBytes(); got != 2*(2+16) {
		t.Fatalf("window batch sized at %d bytes, want %d", got, 2*(2+16))
	}
}

func TestColSizeBytes(t *testing.T) {
	ints := Col{Tag: Int64, Ints: make([]int64, 10)}
	if ints.SizeBytes() != 80 {
		t.Fatalf("int col size = %d", ints.SizeBytes())
	}
	strs := Col{Tag: Str, Strs: []string{"abcd", ""}}
	if strs.SizeBytes() != 4+16*2 {
		t.Fatalf("str col size = %d", strs.SizeBytes())
	}
	masked := Col{Tag: Float64, Floats: make([]float64, 4), Nulls: make([]bool, 4)}
	if masked.SizeBytes() != 32+4 {
		t.Fatalf("masked col size = %d", masked.SizeBytes())
	}
}
