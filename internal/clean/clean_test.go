package clean

import (
	"math"
	"testing"

	"vida/internal/values"
	"vida/internal/vec"
)

func rec(pairs ...any) values.Value {
	var fs []values.Field
	for i := 0; i < len(pairs); i += 2 {
		var v values.Value
		switch x := pairs[i+1].(type) {
		case int:
			v = values.NewInt(int64(x))
		case float64:
			v = values.NewFloat(x)
		case string:
			v = values.NewString(x)
		case values.Value:
			v = x
		}
		fs = append(fs, values.Field{Name: pairs[i].(string), Val: v})
	}
	return values.NewRecord(fs...)
}

func TestDictionaryValidation(t *testing.T) {
	r := Rule{Attr: "city", Dictionary: []string{"geneva", "lausanne"}}
	if !r.Valid(values.NewString("geneva")) {
		t.Fatal("valid dictionary entry rejected")
	}
	if r.Valid(values.NewString("genvea")) {
		t.Fatal("typo accepted")
	}
	if r.Valid(values.NewInt(3)) {
		t.Fatal("non-string accepted under dictionary")
	}
	if !r.Valid(values.Null) {
		t.Fatal("null rejected (cleaning does not enforce nullability)")
	}
}

func TestRangeValidation(t *testing.T) {
	r := Rule{Attr: "age", Min: Float(0), Max: Float(120)}
	if !r.Valid(values.NewInt(45)) {
		t.Fatal("in-range rejected")
	}
	if r.Valid(values.NewInt(-3)) || r.Valid(values.NewInt(200)) {
		t.Fatal("out-of-range accepted")
	}
	if r.Valid(values.NewString("x")) {
		t.Fatal("non-numeric accepted under range")
	}
	open := Rule{Attr: "n", Min: Float(0)}
	if !open.Valid(values.NewFloat(1e12)) {
		t.Fatal("open upper bound rejected")
	}
	// The unboxed check of a typed column agrees with Valid, NaN included.
	col := vec.Col{Tag: vec.Float64, Floats: []float64{math.NaN(), -1, 200, 7}}
	for row := range col.Floats {
		if r.validAt(&col, row) != r.Valid(col.Value(row)) {
			t.Fatalf("validAt(%v) disagrees with Valid", col.Floats[row])
		}
	}
}

func TestNearestDictionaryHamming(t *testing.T) {
	// Same-length typo: Hamming picks the right city.
	r := Rule{Attr: "city", Policy: Nearest, Dictionary: []string{"geneva", "zurich"}}
	v, keep := r.Repair(values.NewString("genEva"))
	if !keep || v.Str() != "geneva" {
		t.Fatalf("nearest = %v, %v", v, keep)
	}
	// Different length: edit distance takes over.
	v, _ = r.Repair(values.NewString("zurch"))
	if v.Str() != "zurich" {
		t.Fatalf("edit-distance nearest = %v", v)
	}
}

func TestNearestRangeClamps(t *testing.T) {
	r := Rule{Attr: "age", Policy: Nearest, Min: Float(0), Max: Float(120)}
	v, keep := r.Repair(values.NewInt(250))
	if !keep || v.Int() != 120 {
		t.Fatalf("clamp high = %v", v)
	}
	v, _ = r.Repair(values.NewFloat(-4.5))
	if v.Float() != 0 {
		t.Fatalf("clamp low = %v", v)
	}
}

func TestPolicies(t *testing.T) {
	skip := Rule{Attr: "a", Policy: SkipRow, Min: Float(0)}
	if _, keep := skip.Repair(values.NewInt(-1)); keep {
		t.Fatal("skip policy kept the row")
	}
	null := Rule{Attr: "a", Policy: NullField, Min: Float(0)}
	v, keep := null.Repair(values.NewInt(-1))
	if !keep || !v.IsNull() {
		t.Fatalf("null policy = %v, %v", v, keep)
	}
}

func TestCleanerApply(t *testing.T) {
	c := New(
		Rule{Attr: "age", Policy: Nearest, Min: Float(0), Max: Float(120)},
		Rule{Attr: "city", Policy: NullField, Dictionary: []string{"geneva", "bern"}},
		Rule{Attr: "id", Policy: SkipRow, Min: Float(0)},
	)
	// Clean row passes untouched.
	row := rec("id", 1, "age", 44, "city", "bern")
	out, keep := c.Apply(row)
	if !keep || !values.Equal(out, row) {
		t.Fatalf("clean row mangled: %v", out)
	}
	// Repairable row: age clamps, city nulls.
	out, keep = c.Apply(rec("id", 2, "age", 300, "city", "romulus"))
	if !keep {
		t.Fatal("repairable row dropped")
	}
	if out.MustGet("age").Int() != 120 || !out.MustGet("city").IsNull() {
		t.Fatalf("repaired = %v", out)
	}
	// Skip-policy violation drops the row.
	if _, keep := c.Apply(rec("id", -5, "age", 30, "city", "bern")); keep {
		t.Fatal("skip row kept")
	}
	st := c.Stats()
	if st.RowsChecked != 3 || st.RowsSkipped != 1 || st.FieldsFixed != 1 || st.FieldsNulled != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0}, {"a", "", 1}, {"", "abc", 3},
		{"kitten", "sitting", 3}, {"flaw", "lawn", 2},
	}
	for _, c := range cases {
		if got := levenshtein(c.a, c.b); got != c.want {
			t.Fatalf("levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
