package vec

import (
	"testing"

	"vida/internal/values"
)

// TestColBuilderFinishClipsSlack: a harvest that ran without a row-count
// hint grows by doubling; the published column must not keep the slack.
func TestColBuilderFinishClipsSlack(t *testing.T) {
	const rows = 1000
	fill := func(hint int) Col {
		cb := NewColBuilder(hint)
		for i := 0; i < rows; i += 10 {
			vals := make([]int64, 10)
			b := intBatch(vals...)
			b.Cols[0].Nulls = make([]bool, 10)
			cb.Append(&b.Cols[0], b)
		}
		return cb.Finish()
	}
	for _, hint := range []int{0, rows} {
		col := fill(hint)
		if col.Len() != rows {
			t.Fatalf("hint %d: len = %d", hint, col.Len())
		}
		if slack := cap(col.Ints) - rows; slack > Spare(rows) {
			t.Errorf("hint %d: payload keeps %d spare slots, bound is %d", hint, slack, Spare(rows))
		}
		if slack := cap(col.Nulls) - rows; slack > Spare(rows) {
			t.Errorf("hint %d: mask keeps %d spare slots, bound is %d", hint, slack, Spare(rows))
		}
	}
	// With an exact hint nothing is reallocated at Finish.
	cb := NewColBuilder(4)
	b := intBatch(1, 2, 3, 4)
	cb.Append(&b.Cols[0], b)
	before := &cb.col.Ints[0]
	if col := cb.Finish(); &col.Ints[0] != before {
		t.Error("Finish reallocated a payload that had no slack")
	}
}

func TestAppendBounded(t *testing.T) {
	base := make([]int64, 100)
	for i := range base {
		base[i] = int64(i)
	}
	base = base[:100:100]
	grown := AppendBounded(base, []int64{100, 101})
	if len(grown) != 102 || cap(grown) > 102+Spare(102) {
		t.Fatalf("len/cap = %d/%d", len(grown), cap(grown))
	}
	if &grown[0] == &base[0] {
		t.Fatal("a full slice must be reallocated")
	}
	// The second tail fits the headroom: written in place, the shorter
	// holder unaffected.
	again := AppendBounded(grown, []int64{102})
	if &again[0] != &grown[0] {
		t.Fatal("a tail that fits the spare capacity must not reallocate")
	}
	if len(grown) != 102 || grown[101] != 101 || again[102] != 102 {
		t.Fatalf("grown = %v, again tail = %v", grown[100:], again[100:])
	}
}

func TestColExtend(t *testing.T) {
	ints := Col{Tag: Int64, Ints: []int64{1, 2}}
	out, ok := ints.Extend(&Col{Tag: Int64, Ints: []int64{3}, Nulls: []bool{true}})
	if !ok || out.Len() != 3 || len(out.Nulls) != 3 || out.Nulls[0] || out.Nulls[1] || !out.Nulls[2] {
		t.Fatalf("mask-free + masked = %+v, %v", out, ok)
	}
	if ints.Len() != 2 || ints.Nulls != nil {
		t.Fatalf("the extended column changed: %+v", ints)
	}
	masked := Col{Tag: Float64, Floats: []float64{1}, Nulls: []bool{true}}
	out, ok = masked.Extend(&Col{Tag: Float64, Floats: []float64{2, 3}})
	if !ok || len(out.Nulls) != 3 || !out.Nulls[0] || out.Nulls[1] || out.Nulls[2] {
		t.Fatalf("masked + mask-free = %+v, %v", out, ok)
	}
	strs := Col{Tag: Str, Strs: []string{"a"}}
	if out, ok = strs.Extend(&Col{Tag: Str, Strs: []string{"b"}}); !ok || out.Strs[1] != "b" {
		t.Fatalf("str + str = %+v, %v", out, ok)
	}
	if _, ok = strs.Extend(&Col{Tag: Int64, Ints: []int64{1}}); ok {
		t.Fatal("a typed column accepted a tail of another tag")
	}
	boxed := Col{Tag: Boxed, Boxed: []values.Value{values.True}}
	out, ok = boxed.Extend(&Col{Tag: Int64, Ints: []int64{7, 0}, Nulls: []bool{false, true}})
	if !ok || out.Len() != 3 || out.Boxed[1].Int() != 7 || !out.Boxed[2].IsNull() {
		t.Fatalf("boxed + typed = %+v, %v", out, ok)
	}
}
