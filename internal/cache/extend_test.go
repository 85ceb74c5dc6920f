package cache

import (
	"fmt"
	"path/filepath"
	"testing"

	"vida/internal/values"
	"vida/internal/vec"
)

// extendRows reads every row of the dataset's columnar entry back through
// the batch contract, whichever tier it is in.
func extendRows(t *testing.T, m *Manager, e *Entry) (ids []int64, conds []string) {
	t.Helper()
	src := &ColumnsSource{Entry: e, Dataset: e.Dataset, Mgr: m}
	err := src.IterateBatches([]string{"id", "cond"}, 700, func(b *vec.Batch) error {
		for k := 0; k < b.Len(); k++ {
			i := b.Index(k)
			ids = append(ids, b.Cols[0].Value(i).Int())
			conds = append(conds, b.Cols[1].StrAt(i))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ids, conds
}

// tailOf returns rows [lo,hi) of tierCols(hi, 0).
func tailOf(lo, hi int) map[string]vec.Col {
	out := map[string]vec.Col{}
	for name, col := range tierCols(hi, 0) {
		w := col.Slice(lo, hi)
		// An independent copy: the cache takes ownership of what it is given.
		b := vec.NewColBuilder(hi - lo)
		b.Append(&w, &vec.Batch{N: hi - lo})
		out[name] = b.Finish()
	}
	return out
}

// TestExtendColumnsBothTiers: an extended entry reads exactly like one
// put whole, in the hot and in the encoded tier; the entry a scan already
// holds keeps its length and its rows; tracked bytes stay the sum of the
// live entries.
func TestExtendColumnsBothTiers(t *testing.T) {
	for _, tier := range []struct {
		name string
		cfg  Config
	}{{"hot", Config{}}, {"encoded", Config{HotBytes: 1}}} {
		t.Run(tier.name, func(t *testing.T) {
			m := NewWithConfig(tier.cfg)
			n := 9000
			if err := m.PutColumnVectors("D", n, tierCols(n, 0)); err != nil {
				t.Fatal(err)
			}
			held, _ := m.Peek("D", LayoutColumns)
			if held.Encoded() != (tier.cfg.HotBytes > 0) {
				t.Fatalf("entry encoded = %v", held.Encoded())
			}
			wantIDs, wantConds := extendRows(t, m, held)
			// 9000 → 9700 → 13000 crosses a block boundary in the encoded
			// tier and outgrows the first reallocation's headroom in the hot.
			for _, hi := range []int{9700, 13000} {
				cur, _ := m.Peek("D", LayoutColumns)
				if !m.ExtendColumns("D", cur.N, tailOf(cur.N, hi)) {
					t.Fatalf("extension to %d refused", hi)
				}
				e, ok := m.GetColumns("D", []string{"id", "cond"})
				if !ok || e.N != hi || e.Encoded() != held.Encoded() {
					t.Fatalf("after extension to %d: ok=%v n=%d encoded=%v", hi, ok, e.N, e.Encoded())
				}
				ids, conds := extendRows(t, m, e)
				whole := tierCols(hi, 0)
				for i := 0; i < hi; i++ {
					if ids[i] != whole["id"].Ints[i] || conds[i] != whole["cond"].Strs[i] {
						t.Fatalf("row %d of %d = (%d,%q)", i, hi, ids[i], conds[i])
					}
				}
				if st := m.Stats(); st.BytesUsed != e.SizeBytes() || st.HotBytes+st.EncodedBytes != st.BytesUsed {
					t.Fatalf("tracked bytes %+v, entry size %d", st, e.SizeBytes())
				}
				if !e.Encoded() {
					col := e.Cols["id"]
					if slack := cap(col.Ints) - hi; slack > vec.Spare(hi) {
						t.Fatalf("extended column keeps %d spare slots, bound is %d", slack, vec.Spare(hi))
					}
				}
			}
			// Copy-on-write: the entry resolved before the extensions is
			// untouched.
			if held.N != n {
				t.Fatalf("held entry now reports %d rows", held.N)
			}
			ids, conds := extendRows(t, m, held)
			if len(ids) != n {
				t.Fatalf("held entry now yields %d rows", len(ids))
			}
			for i := range ids {
				if ids[i] != wantIDs[i] || conds[i] != wantConds[i] {
					t.Fatalf("held entry row %d changed", i)
				}
			}
		})
	}
}

// TestExtendColumnsInPlace: a tail that fits the headroom left by the
// previous reallocation is written past the published length, not copied.
func TestExtendColumnsInPlace(t *testing.T) {
	m := New(0)
	if err := m.PutColumnVectors("D", 8000, tierCols(8000, 0)); err != nil {
		t.Fatal(err)
	}
	if !m.ExtendColumns("D", 8000, tailOf(8000, 8080)) {
		t.Fatal("first extension refused")
	}
	first, _ := m.Peek("D", LayoutColumns)
	if !m.ExtendColumns("D", 8080, tailOf(8080, 8160)) {
		t.Fatal("second extension refused")
	}
	second, _ := m.Peek("D", LayoutColumns)
	a, b := first.Cols["id"], second.Cols["id"]
	if &a.Ints[0] != &b.Ints[0] {
		t.Fatal("a tail within the headroom reallocated the column")
	}
	if a.Len() != 8080 || b.Len() != 8160 || b.Ints[8159] != 8159 {
		t.Fatalf("lens %d/%d", a.Len(), b.Len())
	}
}

// TestExtendColumnsRefusals: whatever cannot be extended is refused
// without touching the cache, so the caller's invalidation is the only
// thing that happens to it.
func TestExtendColumnsRefusals(t *testing.T) {
	m := New(0)
	if m.ExtendColumns("D", 0, tailOf(0, 10)) {
		t.Fatal("extended a dataset with no entry")
	}
	if err := m.PutColumnVectors("D", 100, tierCols(100, 0)); err != nil {
		t.Fatal(err)
	}
	before := m.Stats()
	tail := tailOf(100, 110)
	missing := map[string]vec.Col{"id": tail["id"]}
	extra := map[string]vec.Col{"id": tail["id"], "cond": tail["cond"], "zzz": tail["id"]}
	other := map[string]vec.Col{"id": tail["id"], "zzz": tail["cond"]}
	uneven := map[string]vec.Col{"id": tail["id"], "cond": tailOf(100, 105)["cond"]}
	retagged := map[string]vec.Col{"id": tail["cond"], "cond": tail["cond"]}
	for name, c := range map[string]struct {
		oldN int
		tail map[string]vec.Col
	}{
		"stale row count": {99, tail}, "missing column": {100, missing}, "extra column": {100, extra},
		"other column": {100, other}, "unequal lengths": {100, uneven}, "tag mismatch": {100, retagged},
	} {
		if m.ExtendColumns("D", c.oldN, c.tail) {
			t.Fatalf("%s: extension accepted", name)
		}
	}
	e, _ := m.Peek("D", LayoutColumns)
	if e.N != 100 || m.Stats().HotBytes != before.HotBytes {
		t.Fatalf("refusals changed the entry: n=%d hot=%d (was %d)", e.N, m.Stats().HotBytes, before.HotBytes)
	}
	// A harvest that lands between parsing the tail and extending adds a
	// column the tail does not cover: the entry would go stale.
	score := vec.Col{Tag: vec.Float64, Floats: make([]float64, 100)}
	if err := m.PutColumnVectors("D", 100, map[string]vec.Col{"score": score}); err != nil {
		t.Fatal(err)
	}
	if m.ExtendColumns("D", 100, tail) {
		t.Fatal("extended an entry with a column the tail does not cover")
	}
}

// TestExtendColumnsRespills: with a spill directory the extended entry is
// persisted under the grown file's generation and the old generation's
// file is gone, so a restart rehydrates the extended rows or nothing.
func TestExtendColumnsRespills(t *testing.T) {
	dir := t.TempDir()
	gen := "g1"
	m := NewWithConfig(Config{SpillDir: dir})
	m.SetSpillKey("D", func() string { return gen })
	if err := m.PutColumnVectors("D", 5000, tierCols(5000, 0)); err != nil {
		t.Fatal(err)
	}
	gen = "g2"
	if !m.ExtendColumns("D", 5000, tailOf(5000, 5600)) {
		t.Fatal("extension refused")
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.vspill"))
	if len(files) != 1 || filepath.Base(files[0]) != spillPrefix("D")+"g2.vspill" {
		t.Fatalf("spill files after extension: %v", files)
	}
	m2 := NewWithConfig(Config{SpillDir: dir})
	if m2.Rehydrate("D", "g2") == 0 {
		t.Fatal("extended entry did not rehydrate")
	}
	e, ok := m2.GetColumns("D", []string{"id", "cond"})
	if !ok || e.N != 5600 {
		t.Fatalf("rehydrated n = %d, ok = %v", e.N, ok)
	}
	ids, _ := extendRows(t, m2, e)
	if ids[5599] != 5599 {
		t.Fatalf("last rehydrated id = %d", ids[5599])
	}
}

// TestPutInstallsDictColumns: the hot tier installs a string column
// dictionary-coded exactly when it passes vec.DictEncode's rule — here a
// 5-value column and a null-bearing 2-value one, not a column of distinct
// strings nor one past MaxDictSize values — and serves what it was given.
func TestPutInstallsDictColumns(t *testing.T) {
	n := 3 * vec.MaxDictSize
	low, distinct, wide, nullable := tierCols(n, 0)["cond"], vec.Col{Tag: vec.Str}, vec.Col{Tag: vec.Str}, vec.Col{Tag: vec.Str}
	for i := 0; i < n; i++ {
		distinct.AppendStr(fmt.Sprintf("d%d", i))
		wide.AppendStr(fmt.Sprintf("w%d", i%(vec.MaxDictSize+1)))
		if i%4 == 0 {
			nullable.AppendNull()
		} else {
			nullable.AppendStr([]string{"x", "y"}[i%2])
		}
	}
	m := New(0)
	given := map[string]vec.Col{"low": low, "distinct": distinct, "wide": wide, "nullable": nullable}
	if err := m.PutColumnVectors("D", n, given); err != nil {
		t.Fatal(err)
	}
	e, _ := m.Peek("D", LayoutColumns)
	want := map[string]vec.Tag{"low": vec.StrDict, "distinct": vec.Str, "wide": vec.Str, "nullable": vec.StrDict}
	for name, tag := range want {
		col, in := e.Cols[name], given[name]
		if col.Tag != tag {
			t.Fatalf("column %q installed as %v, want %v", name, col.Tag, tag)
		}
		for i := 0; i < n; i++ {
			if !values.Equal(col.Value(i), in.Value(i)) {
				t.Fatalf("column %q row %d = %v, want %v", name, i, col.Value(i), in.Value(i))
			}
		}
	}
	if st := m.Stats(); st.HotBytes != e.SizeBytes() || e.SizeBytes() >= 4*int64(n)*16 {
		t.Fatalf("hot bytes %d, entry size %d", st.HotBytes, e.SizeBytes())
	}
	// An empty entry installs (and extends) like any other.
	if err := m.PutColumnVectors("E", 0, map[string]vec.Col{"s": {Tag: vec.Str}}); err != nil {
		t.Fatal(err)
	}
	tail := vec.Col{Tag: vec.Str, Strs: []string{"a", "b", "a", "a"}}
	if !m.ExtendColumns("E", 0, map[string]vec.Col{"s": tail}) {
		t.Fatal("extension of an empty entry refused")
	}
	ee, _ := m.Peek("E", LayoutColumns)
	if s := ee.Cols["s"]; ee.N != 4 || s.Tag != vec.StrDict || s.StrAt(1) != "b" || s.StrAt(3) != "a" {
		t.Fatalf("extended empty entry: n=%d tag=%v", ee.N, s.Tag)
	}
}

// TestExtendAfterEncodedMerge is the regression test for an append after
// a harvest merged into an encoded entry. The entry is pushed to the
// encoded tier; a harvest adds a column, so PutColumnVectors decodes the
// entry and it turns hot again with its string column dictionary-coded;
// the next append must then extend it (it used to be refused, and the
// caller rebuilt the source from raw) — with the tail's strings in the
// dictionary and with a new one — while the entry a scan holds stays as
// it was.
func TestExtendAfterEncodedMerge(t *testing.T) {
	// The hot tier holds one entry with the added column but not two
	// entries without it.
	m := NewWithConfig(Config{HotBytes: 200_000})
	n := 9000
	for i, name := range []string{"A", "B"} {
		if err := m.PutColumnVectors(name, n, tierCols(n, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if a, _ := m.Peek("A", LayoutColumns); !a.Encoded() {
		t.Fatal("A did not move to the encoded tier")
	}
	score := vec.Col{Tag: vec.Float64, Floats: make([]float64, n)}
	for i := range score.Floats {
		score.Floats[i] = float64(i) / 4
	}
	if err := m.PutColumnVectors("A", n, map[string]vec.Col{"score": score}); err != nil {
		t.Fatal(err)
	}
	held, _ := m.Peek("A", LayoutColumns)
	if b, _ := m.Peek("B", LayoutColumns); held.Encoded() || !b.Encoded() || held.Cols["cond"].Tag != vec.StrDict {
		t.Fatalf("after the harvest: A encoded %v (cond %v), B encoded %v", held.Encoded(), held.Cols["cond"].Tag, b.Encoded())
	}
	heldIDs, heldConds := extendRows(t, m, held)
	heldDict := held.Cols["cond"].Dict

	grow := func(hi int, newCond string) {
		t.Helper()
		cur, _ := m.Peek("A", LayoutColumns)
		tail := tailOf(cur.N, hi)
		if newCond != "" {
			c := tail["cond"]
			c.Strs[len(c.Strs)-1] = newCond
		}
		s := vec.Col{Tag: vec.Float64, Floats: make([]float64, hi-cur.N)}
		for i := range s.Floats {
			s.Floats[i] = float64(cur.N+i) / 4
		}
		tail["score"] = s
		if !m.ExtendColumns("A", cur.N, tail) {
			t.Fatalf("extension to %d refused", hi)
		}
	}
	grow(9700, "")
	e, _ := m.Peek("A", LayoutColumns)
	if e.Encoded() || e.N != 9700 || e.Cols["cond"].Tag != vec.StrDict || &e.Cols["cond"].Dict[0] != &heldDict[0] {
		t.Fatalf("in-dictionary tail: encoded %v, n=%d, cond %v", e.Encoded(), e.N, e.Cols["cond"].Tag)
	}
	grow(9800, "zz-new")
	e, _ = m.Peek("A", LayoutColumns)
	cond := e.Cols["cond"]
	if e.N != 9800 || cond.Tag != vec.StrDict || len(cond.Dict) != len(heldDict)+1 || cond.StrAt(9799) != "zz-new" {
		t.Fatalf("new-string tail: n=%d, cond %v over %d strings", e.N, cond.Tag, len(cond.Dict))
	}
	ids, conds := extendRows(t, m, e)
	whole := tierCols(9800, 0)
	for i := 0; i < 9800; i++ {
		want := whole["cond"].Strs[i]
		if i == 9799 {
			want = "zz-new"
		}
		if ids[i] != whole["id"].Ints[i] || conds[i] != want || e.Cols["score"].Floats[i] != float64(i)/4 {
			t.Fatalf("row %d = (%d,%q)", i, ids[i], conds[i])
		}
	}
	ids, conds = extendRows(t, m, held)
	if held.N != n || len(ids) != n || len(heldDict) != 5 {
		t.Fatalf("held entry now reports %d rows, yields %d", held.N, len(ids))
	}
	for i := range ids {
		if ids[i] != heldIDs[i] || conds[i] != heldConds[i] {
			t.Fatalf("held entry row %d changed", i)
		}
	}
	if st := m.Stats(); st.HotBytes+st.EncodedBytes != st.BytesUsed {
		t.Fatalf("tracked bytes %+v", st)
	}
}
