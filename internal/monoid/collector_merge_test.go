package monoid

import (
	"testing"

	"vida/internal/values"
)

// TestMergeFromOrdering: partial collectors merged in input order must
// reproduce the serial fold exactly, including for the non-commutative
// list monoid — the property morsel-parallel reduces rely on.
func TestMergeFromOrdering(t *testing.T) {
	heads := []values.Value{
		values.NewInt(3), values.NewInt(1), values.NewInt(3), values.NewInt(2),
		values.NewInt(9), values.NewInt(0),
	}
	for _, m := range []Monoid{List, Bag, Set, Sum, Count, Max, Min} {
		serial := NewCollector(m)
		for _, h := range heads {
			serial.Add(h)
		}
		want := serial.Result()

		// Split into three partials, merge in order.
		root := NewCollector(m)
		for lo := 0; lo < len(heads); lo += 2 {
			part := NewCollector(m)
			for _, h := range heads[lo : lo+2] {
				part.Add(h)
			}
			root.MergeFrom(part)
		}
		got := root.Result()
		if !values.Equal(got, want) {
			t.Fatalf("%s: merged partials %v != serial %v", m.Name(), got, want)
		}
	}
}

// TestAddNullRule pins the one null rule: a null input is skipped by
// every monoid but count and the collections, so an all-null fold is
// the finalized zero, and Fold agrees with the Collector.
func TestAddNullRule(t *testing.T) {
	null, one, two := values.Null, values.NewInt(1), values.NewInt(2)
	for _, tc := range []struct {
		m    Monoid
		want values.Value // fold of {null, 1, null, 2}
		none values.Value // fold of {null}
	}{
		{Sum, values.NewInt(3), values.NewInt(0)},
		{Prod, values.NewInt(2), values.NewInt(1)},
		{Avg, values.NewFloat(1.5), null},
		{Min, one, null},
		{Max, two, null},
		{And, null, values.True},
		{Or, null, values.False},
		{Median, values.NewFloat(1.5), null},
		{TopK(1), values.NewList(two), values.NewList()},
		{Count, values.NewInt(4), values.NewInt(1)},
		{List, values.NewList(null, one, null, two), values.NewList(null)},
		{Array, values.NewArray([]int{4}, []values.Value{null, one, null, two}), values.NewArray([]int{1}, []values.Value{null})},
	} {
		heads := []values.Value{null, one, null, two}
		if tc.m == And || tc.m == Or {
			heads = []values.Value{null, values.True, null, values.False}
			tc.want = values.NewBool(tc.m == Or)
		}
		for _, in := range []struct {
			heads []values.Value
			want  values.Value
		}{{heads, tc.want}, {[]values.Value{null}, tc.none}} {
			c := NewCollector(tc.m)
			for _, h := range in.heads {
				c.Add(h)
			}
			if got := c.Result(); !values.Equal(got, in.want) {
				t.Errorf("%s over %v = %v, want %v", tc.m.Name(), in.heads, got, in.want)
			}
			if got := Fold(tc.m, in.heads); !values.Equal(got, in.want) {
				t.Errorf("Fold %s over %v = %v, want %v", tc.m.Name(), in.heads, got, in.want)
			}
		}
	}
}
