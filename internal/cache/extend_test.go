package cache

import (
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
	m.PutRows("D", []values.Value{values.NewInt(1)})
	if m.ExtendColumns("D", 100, tail) {
		t.Fatal("extended beside a row-layout entry that would go stale")
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
