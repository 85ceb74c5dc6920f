package clean

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"vida/internal/values"
	"vida/internal/vec"
)

// stageFields are the columns of the differential test's batches: one
// per representation a scan can hand the stage.
var stageFields = []string{"i", "f", "s", "d", "m"}

// stageDict is the sorted dictionary of the StrDict column: valid
// cities, misses and unicode.
var stageDict = []string{"bern", "genEva", "geneva", "zurch", "zürich", "日本", "日本語"}

// stageBatch builds n rows of every representation, with nulls, values
// out of every rule's range, dictionary misses and unicode.
func stageBatch(r *rand.Rand, n int) *vec.Batch {
	b := vec.NewTyped([]vec.Tag{vec.Int64, vec.Float64, vec.Str, vec.StrDict, vec.Boxed}, n)
	b.Cols[3].Dict = stageDict
	strs := []string{"geneva", "genEva", "zurch", "zürich", "bern", "日本", "", "lausanne"}
	for row := 0; row < n; row++ {
		null := func() bool { return r.Intn(8) == 0 }
		if null() {
			b.Cols[0].AppendNull()
		} else {
			b.Cols[0].AppendInt(int64(r.Intn(120) - 30))
		}
		if null() {
			b.Cols[1].AppendNull()
		} else {
			b.Cols[1].AppendFloat(float64(r.Intn(16)-6) / 2)
		}
		if null() {
			b.Cols[2].AppendNull()
		} else {
			b.Cols[2].AppendStr(strs[r.Intn(len(strs))])
		}
		if null() {
			b.Cols[3].AppendNull()
		} else {
			b.Cols[3].Codes = append(b.Cols[3].Codes, uint32(r.Intn(len(stageDict))))
			if b.Cols[3].Nulls != nil {
				b.Cols[3].Nulls = append(b.Cols[3].Nulls, false)
			}
		}
		switch r.Intn(4) {
		case 0:
			b.Cols[4].AppendValue(values.NewInt(int64(r.Intn(30) - 10)))
		case 1:
			b.Cols[4].AppendValue(values.NewFloat(float64(r.Intn(30)-10) / 4))
		case 2:
			b.Cols[4].AppendValue(values.NewString(strs[r.Intn(len(strs))]))
		default:
			b.Cols[4].AppendValue(values.Null)
		}
		b.N++
	}
	return b
}

// stageRules is one rule per column under policy p: ranges on the
// numeric and mixed columns, dictionaries on the string ones.
func stageRules(p func(attr string) Policy) []Rule {
	cities := []string{"bern", "geneva", "zürich", "日本"}
	return []Rule{
		{Attr: "i", Policy: p("i"), Min: Float(0), Max: Float(50)},
		{Attr: "f", Policy: p("f"), Min: Float(-1.5), Max: Float(2.5)},
		{Attr: "s", Policy: p("s"), Dictionary: cities},
		{Attr: "d", Policy: p("d"), Dictionary: cities},
		{Attr: "m", Policy: p("m"), Min: Float(0), Max: Float(10)},
	}
}

// TestCleanMatchesApply: the batch stage over any projection of a batch
// of every representation, with and without a selection, leaves exactly
// the rows and values Apply leaves of the records of the columns read,
// counts what Apply counts, and writes nothing into the producer's
// storage, a Stable batch's included.
func TestCleanMatchesApply(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	policies := map[string]func(string) Policy{
		"skip":    func(string) Policy { return SkipRow },
		"null":    func(string) Policy { return NullField },
		"nearest": func(string) Policy { return Nearest },
		"mixed": func(attr string) Policy {
			return map[string]Policy{"i": Nearest, "f": NullField, "s": Nearest, "d": SkipRow, "m": NullField}[attr]
		},
	}
	projections := [][]string{stageFields, {"s", "f"}, {"m"}, {"d", "i"}}
	for name, policy := range policies {
		for _, fields := range projections {
			// One repair storage per projection, reused by every batch
			// after the first, as a scan's stage reuses it.
			bufs := make([]vec.Col, len(New(stageRules(policy)...).Reads(fields)))
			for _, withSel := range []bool{false, true} {
				for _, stable := range []bool{false, true} {
					label := fmt.Sprintf("%s/%v/sel=%v/stable=%v", name, fields, withSel, stable)
					full := stageBatch(r, 300)
					oracle, stage := New(stageRules(policy)...), New(stageRules(policy)...)
					read := stage.Reads(fields)
					// The producer's batch holds the read columns, as a scan
					// of read would hand them over.
					prod := &vec.Batch{N: full.N, Stable: stable}
					for _, f := range read {
						prod.Cols = append(prod.Cols, full.Cols[slices.Index(stageFields, f)])
					}
					if withSel {
						for row := 0; row < prod.N; row++ {
							if r.Intn(3) > 0 {
								prod.Sel = append(prod.Sel, row)
							}
						}
					}
					before := deepCopy(prod)

					var want []values.Value
					for k := 0; k < prod.Len(); k++ {
						row := prod.Index(k)
						rec := make([]values.Field, len(read))
						for i, f := range read {
							rec[i] = values.Field{Name: f, Val: prod.Cols[i].Value(row)}
						}
						if out, keep := oracle.Apply(values.NewRecord(rec...)); keep {
							want = append(want, out)
						}
					}

					view := *prod
					view.Cols = slices.Clone(prod.Cols)
					stage.Clean(&view, read, bufs)

					if !reflect.DeepEqual(prod, before) {
						t.Fatalf("%s: Clean wrote into the producer's batch", label)
					}
					if view.Len() != len(want) {
						t.Fatalf("%s: %d rows kept, Apply keeps %d", label, view.Len(), len(want))
					}
					for k := range want {
						row := view.Index(k)
						for i, f := range read {
							got, exp := view.Cols[i].Value(row), want[k].MustGet(f)
							if got.Kind() != exp.Kind() || !values.Equal(got, exp) {
								t.Fatalf("%s: row %d %s = %v, Apply gives %v", label, k, f, got, exp)
							}
						}
					}
					if got, exp := stage.Stats(), oracle.Stats(); got != exp {
						t.Fatalf("%s: stage counted %+v, Apply %+v", label, got, exp)
					}
				}
			}
		}
	}
}

// TestCleanReusesRepairStorage: a numeric range repair of a batch that
// is not Stable goes into the stage's repair storage, the same storage
// batch after batch; a Stable batch's repair gets fresh storage.
func TestCleanReusesRepairStorage(t *testing.T) {
	for _, p := range []Policy{Nearest, NullField} {
		c := New(Rule{Attr: "age", Policy: p, Max: Float(100)})
		bufs := make([]vec.Col, 1)
		var first *int64
		for _, stable := range []bool{false, false, true} {
			b := &vec.Batch{Cols: []vec.Col{{Tag: vec.Int64, Ints: []int64{30, 999, 40}}}, N: 3, Stable: stable}
			c.Clean(b, []string{"age"}, bufs)
			col := b.Cols[0]
			if got := col.Value(1); p == Nearest && got.Int() != 100 || p == NullField && !got.IsNull() {
				t.Fatalf("%s: repaired row = %v", p, got)
			}
			switch {
			case first == nil:
				first = &col.Ints[0]
			case !stable && &col.Ints[0] != first:
				t.Fatalf("%s: the repair of a transient batch took fresh storage", p)
			case stable && &col.Ints[0] == first:
				t.Fatalf("%s: the repair of a Stable batch went into the reused storage", p)
			}
		}
	}
}

// deepCopy copies a batch with all its storage, so a later comparison
// sees any write into it.
func deepCopy(b *vec.Batch) *vec.Batch {
	out := &vec.Batch{N: b.N, Sel: slices.Clone(b.Sel), Stable: b.Stable}
	for _, c := range b.Cols {
		out.Cols = append(out.Cols, vec.Col{Tag: c.Tag, Boxed: slices.Clone(c.Boxed),
			Ints: slices.Clone(c.Ints), Floats: slices.Clone(c.Floats), Strs: slices.Clone(c.Strs),
			Codes: slices.Clone(c.Codes), Dict: slices.Clone(c.Dict), Nulls: slices.Clone(c.Nulls)})
	}
	return out
}

// TestCleanSkipRowDropsFromSel: a SkipRow violation removes the row from
// the selection, whether the scan requested its column or not, and the
// rows kept keep their order.
func TestCleanSkipRowDropsFromSel(t *testing.T) {
	c := New(Rule{Attr: "age", Policy: SkipRow, Max: Float(120)})
	read := c.Reads([]string{"id"})
	if !slices.Equal(read, []string{"id", "age"}) {
		t.Fatalf("Reads = %v, want the SkipRow attribute after the requested fields", read)
	}
	b := vec.NewTyped([]vec.Tag{vec.Int64, vec.Int64}, 4)
	for i, age := range []int64{30, 999, 40, 121} {
		b.Cols[0].AppendInt(int64(i))
		b.Cols[1].AppendInt(age)
		b.N++
	}
	c.Clean(b, read, make([]vec.Col, len(read)))
	if !slices.Equal(b.Sel, []int{0, 2}) {
		t.Fatalf("Sel = %v, want [0 2]", b.Sel)
	}
	if st := c.Stats(); st.RowsChecked != 4 || st.RowsSkipped != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if read := c.Reads([]string{"age", "id"}); !slices.Equal(read, []string{"age", "id"}) {
		t.Fatalf("Reads = %v, want the requested fields unchanged", read)
	}
}
