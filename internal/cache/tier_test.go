package cache

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vida/internal/colenc"
	"vida/internal/values"
	"vida/internal/vec"
)

// tierCols builds a typed columnar payload representative of the demo
// data: a sequential int column and a low-cardinality string column.
func tierCols(n int, salt int64) map[string]vec.Col {
	conds := []string{"healthy", "mild", "severe", "chronic", "acute"}
	ic := vec.Col{Tag: vec.Int64}
	sc := vec.Col{Tag: vec.Str}
	for i := 0; i < n; i++ {
		ic.AppendInt(int64(i) + salt)
		sc.AppendStr(conds[i%len(conds)])
	}
	return map[string]vec.Col{"id": ic, "cond": sc}
}

func TestHotTierTransitionToEncoded(t *testing.T) {
	m := NewWithConfig(Config{HotBytes: 1}) // everything past the first put must encode
	n := 10_000
	if err := m.PutColumnVectors("D", n, tierCols(n, 0)); err != nil {
		t.Fatal(err)
	}
	e, ok := m.GetColumns("D", []string{"id", "cond"})
	if !ok {
		t.Fatal("columns miss after encode")
	}
	if !e.Encoded() || e.Cols != nil {
		t.Fatalf("entry not in encoded tier: enc=%v cols=%v", e.Encoded(), e.Cols != nil)
	}
	st := m.Stats()
	if st.Encodes != 1 || st.HotBytes != 0 || st.EncodedBytes != e.SizeBytes() || st.BytesUsed != e.SizeBytes() {
		t.Fatalf("tier stats = %+v (entry size %d)", st, e.SizeBytes())
	}

	// Decode-on-demand serves identical rows, as StrDict windows for the
	// dictionary column, and tallies decoded blocks.
	src := &ColumnsSource{Entry: e, Dataset: "D", Mgr: m}
	rows := 0
	sawDict := false
	err := src.IterateBatches([]string{"id", "cond"}, 512, func(b *vec.Batch) error {
		if b.Cols[1].Tag == vec.StrDict {
			sawDict = true
		}
		for k := 0; k < b.Len(); k++ {
			i := b.Index(k)
			if got := b.Cols[0].Value(i).Int(); got != int64(rows+k) {
				t.Fatalf("row %d: id = %d", rows+k, got)
			}
			want := []string{"healthy", "mild", "severe", "chronic", "acute"}[(rows+k)%5]
			if got := b.Cols[1].StrAt(i); got != want {
				t.Fatalf("row %d: cond = %q want %q", rows+k, got, want)
			}
		}
		rows += b.Len()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != n {
		t.Fatalf("rows = %d, want %d", rows, n)
	}
	if !sawDict {
		t.Fatal("dictionary column did not decode to StrDict")
	}
	if m.Stats().DecodedBlocks == 0 {
		t.Fatal("decoded blocks not counted")
	}

	// Merging new columns into an encoded entry decodes, merges, and
	// re-encodes without losing data.
	extra := vec.Col{Tag: vec.Float64}
	for i := 0; i < n; i++ {
		extra.AppendFloat(float64(i) * 0.5)
	}
	if err := m.PutColumnVectors("D", n, map[string]vec.Col{"score": extra}); err != nil {
		t.Fatal(err)
	}
	e2, ok := m.GetColumns("D", []string{"id", "cond", "score"})
	if !ok {
		t.Fatal("merged columns miss")
	}
	if !e2.Encoded() {
		t.Fatal("merged entry fell out of the encoded tier despite HotBytes=1")
	}
}

// TestTrackedBytesNoDriftUnderChurn asserts the manager's accounting
// invariant across randomized put/touch/evict/encode churn over both
// tiers: tracked bytes always equal the sum of live entry sizes, split
// exactly into the hot and encoded tiers.
func TestTrackedBytesNoDriftUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewWithConfig(Config{BudgetBytes: 600_000, HotBytes: 150_000})
	datasets := []string{"A", "B", "C", "D", "E"}
	check := func(step int) {
		t.Helper()
		m.mu.Lock()
		defer m.mu.Unlock()
		var total, hot, enc int64
		for _, e := range m.entries {
			total += e.size
			if e.Encoded() {
				enc += e.size
			} else {
				hot += e.size
			}
		}
		if m.used != total || m.hotUsed != hot || m.encodedUsed != enc {
			t.Fatalf("step %d: tracked used=%d hot=%d enc=%d, live sums used=%d hot=%d enc=%d",
				step, m.used, m.hotUsed, m.encodedUsed, total, hot, enc)
		}
	}
	for step := 0; step < 400; step++ {
		ds := datasets[rng.Intn(len(datasets))]
		switch rng.Intn(6) {
		case 5: // extend whatever entry is resident, in either tier
			if e, ok := m.Peek(ds, LayoutColumns); ok {
				fits := len(e.ColumnNames()) == 2 // tierCols' attributes: nothing accumulated
				if k := 1 + rng.Intn(5000); m.ExtendColumns(ds, e.N, tierCols(k, int64(step))) != fits {
					t.Fatalf("step %d: extension of a resident %d-row entry of %v: want %v", step, e.N, e.ColumnNames(), fits)
				}
			}
		case 0, 1: // grow/replace columnar entry (can trigger encode + evict)
			n := 500 + rng.Intn(3000)
			if err := m.PutColumnVectors(ds, n, tierCols(n, int64(step))); err != nil {
				t.Fatal(err)
			}
		case 2: // accumulate a column onto whatever entry is resident
			if e, ok := m.Peek(ds, LayoutColumns); ok {
				score := vec.Col{Tag: vec.Float64, Floats: make([]float64, e.N)}
				if err := m.PutColumnVectors(ds, e.N, map[string]vec.Col{"score": score}); err != nil {
					t.Fatal(err)
				}
			}
		case 3: // LRU touch
			m.GetColumns(ds, []string{"id"})
		case 4: // invalidate
			m.Invalidate(ds)
		}
		check(step)
	}
	// Drain everything: all gauges must return to zero.
	m.Clear()
	st := m.Stats()
	if st.BytesUsed != 0 || st.HotBytes != 0 || st.EncodedBytes != 0 {
		t.Fatalf("nonzero gauges after Clear: %+v", st)
	}
}

// TestEncodedTierCapacity is the acceptance criterion on representative
// demo data: under the same byte budget the encoded tier must fit at
// least 5x more rows than the flat vectors the eviction accounting
// (EstimateColBytes) would charge for them.
func TestEncodedTierCapacity(t *testing.T) {
	n := 100_000
	cols := tierCols(n, 0)
	var flat int64
	for name := range cols {
		c := cols[name]
		flat += EstimateColBytes(&c)
	}
	tab, err := colenc.EncodeColumns(cols, n)
	if err != nil {
		t.Fatal(err)
	}
	if enc := tab.SizeBytes(); enc*5 > flat {
		t.Fatalf("encoded %dB vs flat %dB: less than 5x densier", enc, flat)
	}
}

func TestSpillAndRehydrate(t *testing.T) {
	dir := t.TempDir()
	gen := func() string { return "g1" }
	n := 9000

	m1 := NewWithConfig(Config{SpillDir: dir})
	m1.SetSpillKey("D", gen)
	if err := m1.PutColumnVectors("D", n, tierCols(n, 0)); err != nil {
		t.Fatal(err)
	}
	if st := m1.Stats(); st.SpillWrites != 1 {
		t.Fatalf("spill writes = %d", st.SpillWrites)
	}

	// A fresh manager (restarted process) rehydrates the encoded entry.
	m2 := NewWithConfig(Config{SpillDir: dir})
	blocks := m2.Rehydrate("D", "g1")
	if blocks == 0 {
		t.Fatal("nothing rehydrated")
	}
	if st := m2.Stats(); st.RehydratedBlocks != int64(blocks) {
		t.Fatalf("rehydrated counter = %d, want %d", st.RehydratedBlocks, blocks)
	}
	e, ok := m2.GetColumns("D", []string{"id", "cond"})
	if !ok || !e.Encoded() || e.N != n {
		t.Fatalf("rehydrated entry: ok=%v enc=%v n=%d", ok, e.Encoded(), e.N)
	}
	src := &ColumnsSource{Entry: e, Dataset: "D", Mgr: m2}
	rows := 0
	if err := src.Iterate([]string{"id"}, func(v values.Value) error {
		if got := v.MustGet("id").Int(); got != int64(rows) {
			t.Fatalf("row %d: id = %d", rows, got)
		}
		rows++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rows != n {
		t.Fatalf("rows = %d", rows)
	}

	// A stale generation is deleted, never served.
	m3 := NewWithConfig(Config{SpillDir: dir})
	if got := m3.Rehydrate("D", "g2"); got != 0 {
		t.Fatalf("stale generation rehydrated %d blocks", got)
	}
	if _, ok := m3.Peek("D", LayoutColumns); ok {
		t.Fatal("stale entry installed")
	}
	left, _ := filepath.Glob(filepath.Join(dir, "*.vspill"))
	if len(left) != 0 {
		t.Fatalf("stale spill files survived: %v", left)
	}
}

// TestRehydrateQuarantinesCorruptSpills is the robustness satellite:
// truncated or bit-flipped spill files must be quarantined (renamed
// .bad), counted, and logged — never crash rehydration or install data.
func TestRehydrateQuarantinesCorruptSpills(t *testing.T) {
	n := 5000
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/3] }},
		{"bad magic", func(b []byte) []byte { b = append([]byte(nil), b...); b[0] ^= 0xff; return b }},
		{"flipped header bit", func(b []byte) []byte { b = append([]byte(nil), b...); b[12] ^= 0x01; return b }},
		{"flipped body bit", func(b []byte) []byte { b = append([]byte(nil), b...); b[len(b)-2] ^= 0x20; return b }},
		{"empty", func(b []byte) []byte { return nil }},
		{"wrong header identity", nil}, // valid file, wrong dataset inside
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			m1 := NewWithConfig(Config{SpillDir: dir})
			m1.SetSpillKey("D", func() string { return "g1" })
			if err := m1.PutColumnVectors("D", n, tierCols(n, 0)); err != nil {
				t.Fatal(err)
			}
			path := m1.spillPath("D", "g1")
			good, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if tc.mutate != nil {
				if err := os.WriteFile(path, tc.mutate(good), 0o644); err != nil {
					t.Fatal(err)
				}
			} else {
				// Re-key a valid file for another dataset under D's name:
				// the header identity check must reject it.
				other := NewWithConfig(Config{SpillDir: t.TempDir()})
				other.SetSpillKey("X", func() string { return "g1" })
				if err := other.PutColumnVectors("X", n, tierCols(n, 1)); err != nil {
					t.Fatal(err)
				}
				raw, err := os.ReadFile(other.spillPath("X", "g1"))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			m2 := NewWithConfig(Config{SpillDir: dir})
			if got := m2.Rehydrate("D", "g1"); got != 0 {
				t.Fatalf("corrupt spill rehydrated %d blocks", got)
			}
			if _, ok := m2.Peek("D", LayoutColumns); ok {
				t.Fatal("corrupt spill installed an entry")
			}
			if st := m2.Stats(); st.SpillCorrupt != 1 {
				t.Fatalf("SpillCorrupt = %d", st.SpillCorrupt)
			}
			bad, _ := filepath.Glob(filepath.Join(dir, "*.bad"))
			if len(bad) != 1 || !strings.HasSuffix(bad[0], ".vspill.bad") {
				t.Fatalf("quarantine files = %v", bad)
			}
			if left, _ := filepath.Glob(filepath.Join(dir, "*.vspill")); len(left) != 0 {
				t.Fatalf("corrupt spill left in place: %v", left)
			}
		})
	}
}
