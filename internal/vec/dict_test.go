package vec

import (
	"fmt"
	"slices"
	"testing"
)

// strCol builds a Str column of the given rows; a nil nulls leaves the
// column without a validity mask.
func strCol(rows []string, nulls []bool) Col {
	return Col{Tag: Str, Strs: rows, Nulls: nulls}
}

// cycled returns n rows cycling through k distinct strings.
func cycled(n, k int) []string {
	rows := make([]string, n)
	for i := range rows {
		rows[i] = fmt.Sprintf("v%05d", (i*7)%k)
	}
	return rows
}

// colStrings reads every row of a Str or StrDict column as a string,
// null rows as "<null>".
func colStrings(c *Col) []string {
	out := make([]string, c.Len())
	for i := range out {
		if c.Nulls != nil && c.Nulls[i] {
			out[i] = "<null>"
			continue
		}
		out[i] = c.StrAt(i)
	}
	return out
}

// TestDictEncodeRule: a string column is dictionary-coded exactly when it
// has at most MaxDictSize distinct strings and at most one per two rows;
// the coded column reads the same rows over a sorted dictionary.
func TestDictEncodeRule(t *testing.T) {
	for _, c := range []struct {
		name string
		n, k int
		want bool
	}{
		{"one value", 40, 1, true},
		{"half the rows", 10, 5, true},
		{"over half the rows", 11, 6, false},
		{"all distinct", 100, 100, false},
		{"at the cap", 2 * MaxDictSize, MaxDictSize, true},
		{"past the cap", 3 * MaxDictSize, MaxDictSize + 1, false},
		{"empty", 0, 0, true},
	} {
		col := strCol(cycled(c.n, max(c.k, 1)), nil)
		got, ok := DictEncode(&col)
		if ok != c.want {
			t.Fatalf("%s: dictionary-coded = %v, want %v", c.name, ok, c.want)
		}
		if !ok {
			continue
		}
		if got.Tag != StrDict || len(got.Dict) != c.k || !slices.IsSorted(got.Dict) {
			t.Fatalf("%s: tag %v, %d-entry dictionary (sorted %v)", c.name, got.Tag, len(got.Dict), slices.IsSorted(got.Dict))
		}
		if !slices.Equal(colStrings(&got), col.Strs) {
			t.Fatalf("%s: coded rows differ from the plain ones", c.name)
		}
		// A coded column that passes is its own encoding.
		if again, ok := DictEncode(&got); !ok || len(got.Codes) > 0 && &again.Codes[0] != &got.Codes[0] {
			t.Fatalf("%s: re-encoding a coded column copied it (ok %v)", c.name, ok)
		}
	}
	for _, tag := range []Tag{Int64, Float64, Boxed} {
		if _, ok := DictEncode(&Col{Tag: tag}); ok {
			t.Fatalf("%v column dictionary-coded", tag)
		}
	}
	// A coded column past the rule (a window of a larger column) is not
	// dictionary-worthy on its own.
	wide := Col{Tag: StrDict, Codes: []uint32{0, 1, 2}, Dict: []string{"a", "b", "c"}}
	if _, ok := DictEncode(&wide); ok {
		t.Fatal("a 3-row window of a 3-entry dictionary passed the rule")
	}
}

// TestDictEncodeNulls: the coded column shares the validity mask, and a
// null row's payload takes a code inside the dictionary.
func TestDictEncodeNulls(t *testing.T) {
	var col Col
	col.Tag = Str
	for i := 0; i < 12; i++ {
		if i%3 == 0 {
			col.AppendNull()
			continue
		}
		col.AppendStr([]string{"x", "y"}[i%2])
	}
	got, ok := DictEncode(&col)
	if !ok || &got.Nulls[0] != &col.Nulls[0] {
		t.Fatalf("ok %v, mask shared %v", ok, ok && &got.Nulls[0] == &col.Nulls[0])
	}
	if !slices.Equal(got.Dict, []string{"", "x", "y"}) {
		t.Fatalf("dictionary %q", got.Dict)
	}
	if !slices.Equal(colStrings(&got), colStrings(&col)) {
		t.Fatalf("rows %q, want %q", colStrings(&got), colStrings(&col))
	}
}

// TestExtendDictColumn: a StrDict column extended by string tails keeps
// its dictionary while every tail string is in it, re-encodes into a
// fresh dictionary on a new string and demotes to Str once the rule
// fails — and the column it was extended from never changes.
func TestExtendDictColumn(t *testing.T) {
	base := strCol(cycled(100, 4), nil)
	held, ok := DictEncode(&base)
	if !ok {
		t.Fatal("base column not coded")
	}
	heldCodes, heldDict := slices.Clone(held.Codes), slices.Clone(held.Dict)
	check := func(step string, got *Col, tag Tag, want []string) {
		t.Helper()
		if got.Tag != tag || !slices.Equal(colStrings(got), want) {
			t.Fatalf("%s: tag %v, rows differ: %v", step, got.Tag, !slices.Equal(colStrings(got), want))
		}
		if !slices.Equal(held.Codes, heldCodes) || !slices.Equal(held.Dict, heldDict) || held.Len() != 100 {
			t.Fatalf("%s: the extended column changed", step)
		}
	}

	// Every tail string is in the dictionary: codes append, the
	// dictionary is shared. A StrDict tail over another dictionary reads
	// by string.
	inDict := strCol([]string{"v00003", "v00001", "v00000"}, []bool{false, true, false})
	got, ok := held.Extend(&inDict)
	want := append(colStrings(&held), "v00003", "<null>", "v00000")
	if !ok || &got.Dict[0] != &held.Dict[0] {
		t.Fatalf("in-dictionary tail: ok %v, dictionary shared %v", ok, ok && &got.Dict[0] == &held.Dict[0])
	}
	check("in-dictionary tail", &got, StrDict, want)
	other := Col{Tag: StrDict, Codes: []uint32{1, 0}, Dict: []string{"v00001", "v00002"}}
	got2, ok := got.Extend(&other)
	if !ok || &got2.Dict[0] != &held.Dict[0] {
		t.Fatal("a coded tail over another dictionary did not append codes")
	}
	check("coded tail", &got2, StrDict, append(slices.Clone(want), "v00002", "v00001"))

	// A new string re-encodes into a fresh sorted dictionary.
	fresh := strCol([]string{"a-new-first"}, nil)
	got, ok = held.Extend(&fresh)
	if !ok || &got.Dict[0] == &held.Dict[0] || got.Dict[0] != "a-new-first" || !slices.IsSorted(got.Dict) {
		t.Fatalf("new-string tail: ok %v, dictionary %q", ok, got.Dict)
	}
	check("new-string tail", &got, StrDict, append(colStrings(&held), "a-new-first"))

	// Past the n/2 rule the column demotes to plain strings.
	many := strCol(cycled(100, 100), nil)
	for i := range many.Strs {
		many.Strs[i] = "w" + many.Strs[i]
	}
	got, ok = held.Extend(&many)
	if !ok {
		t.Fatal("demoting tail refused")
	}
	check("demotion past n/2", &got, Str, append(colStrings(&held), many.Strs...))

	// Past the cap, likewise, however many rows there are.
	wide := strCol(cycled(3*MaxDictSize, MaxDictSize+1), nil)
	got, ok = held.Extend(&wide)
	if !ok {
		t.Fatal("demoting tail refused")
	}
	check("demotion past the cap", &got, Str, append(colStrings(&held), wide.Strs...))

	// A non-string tail is refused.
	if _, ok := held.Extend(&Col{Tag: Int64, Ints: []int64{1}}); ok {
		t.Fatal("an int tail extended a coded column")
	}
}
