package vida

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUngroupedFoldSkipsNulls: an ungrouped fold over a nullable CSV
// column skips the nulls, as the same fold grouped does — a null must
// never reach sum's, avg's, prod's or and's Merge, which cannot take
// one. SQL SUM, AVG, MIN, MAX and COUNT(*) over a nullable int and a
// nullable float column, and prod, median and and in the calculus, each
// answer and equal both the reference executor's answer and the single
// group of the same fold grouped by a constant key — cold and warm, at
// 1, 2 and 4 workers, over enough rows to run morsel-parallel.
func TestUngroupedFoldSkipsNulls(t *testing.T) {
	const rows = 9000 // past the 8192-row parallel threshold
	var sb strings.Builder
	sb.WriteString("id,k,x,f,b\n")
	for i := 0; i < rows; i++ {
		x, f, b := fmt.Sprint(i%50-20), fmt.Sprint(float64(i%40)/4-3), fmt.Sprint(i%11 != 0)
		if i%7 == 0 {
			x = ""
		}
		if i%5 == 0 {
			f = ""
		}
		if i%13 == 0 {
			b = ""
		}
		fmt.Fprintf(&sb, "%d,all,%s,%s,%s\n", i, x, f, b)
	}
	path := filepath.Join(t.TempDir(), "t.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	type fold struct{ sql, q, grouped string }
	var folds []fold
	for _, agg := range []string{"SUM", "AVG", "MIN", "MAX"} {
		for _, col := range []string{"x", "f"} {
			folds = append(folds, fold{"sql",
				fmt.Sprintf("SELECT %s(t.%s) FROM T t", agg, col),
				fmt.Sprintf("SELECT %s(t.%s) AS a FROM T t GROUP BY t.k", agg, col)})
		}
	}
	folds = append(folds, fold{"sql", "SELECT COUNT(*) FROM T t", "SELECT COUNT(*) AS a FROM T t GROUP BY t.k"})
	for _, c := range []struct{ filter, agg string }{
		{", t.id > 8990", "prod t.x"}, {"", "median t.x"}, {"", "median t.f"}, {"", "and t.b"},
	} {
		folds = append(folds, fold{"mcl",
			fmt.Sprintf("for { t <- T%s } yield %s", c.filter, c.agg),
			fmt.Sprintf("for { t <- T%s } group by { k := 0 } agg { a := %s } yield list a", c.filter, c.agg)})
	}
	run := func(e *Engine, lang, q string) (Value, error) {
		var res *Result
		var err error
		if lang == "sql" {
			res, err = e.QuerySQL(q)
		} else {
			res, err = e.Query(q)
		}
		if err != nil {
			return Value{}, err
		}
		return res.Value(), nil
	}
	// exact renders a value with its kind and, for a float, its bits.
	exact := func(v Value) string {
		if v.Kind() == "float" {
			return fmt.Sprintf("float %#x", math.Float64bits(v.Float()))
		}
		return v.Kind() + " " + v.String()
	}
	ref := New(WithReferenceExecutor())
	if err := ref.RegisterCSV("T", path, "Record(Att(id,int), Att(k,string), Att(x,int), Att(f,float), Att(b,bool))", nil); err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(folds))
	for i, f := range folds {
		v, err := run(ref, f.sql, f.q)
		if err != nil {
			t.Fatalf("reference %s: %v", f.q, err)
		}
		want[i] = exact(v)
	}
	for _, cfg := range []struct {
		name string
		opts []Option
	}{{"jit/1", []Option{WithWorkers(1)}}, {"jit/2", []Option{WithWorkers(2)}}, {"jit/4", []Option{WithWorkers(4)}},
		{"reference", []Option{WithReferenceExecutor()}}} {
		e := New(cfg.opts...)
		if err := e.RegisterCSV("T", path, "Record(Att(id,int), Att(k,string), Att(x,int), Att(f,float), Att(b,bool))", nil); err != nil {
			t.Fatal(err)
		}
		for _, state := range []string{"cold", "warm"} {
			for i, f := range folds {
				where := fmt.Sprintf("%s %s: %s", cfg.name, state, f.q)
				v, err := run(e, f.sql, f.q)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if got := exact(v); got != want[i] {
					t.Fatalf("%s = %s, reference %s", where, got, want[i])
				}
				g, err := run(e, f.sql, f.grouped)
				if err != nil {
					t.Fatalf("%s grouped: %v", where, err)
				}
				if groups := g.Elems(); len(groups) != 1 || exact(groups[0]) != want[i] {
					t.Fatalf("%s grouped by a constant = %v, want one group of %s", where, g, want[i])
				}
			}
		}
	}
}
