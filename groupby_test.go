package vida

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// groupRow renders one grouped-result record in a canonical comparable
// form, so results from the buffered and cursor APIs (and the three
// executors) compare structurally.
func groupRow(v Value) string {
	fields := v.Fields()
	parts := make([]string, len(fields))
	for i, f := range fields {
		parts[i] = fmt.Sprintf("%s=%s", f.Name, f.Val.String())
	}
	return strings.Join(parts, ",")
}

// collectRows drains a cursor into canonical row strings.
func collectRows(t *testing.T, rows *Rows) []string {
	t.Helper()
	defer rows.Close()
	var out []string
	for rows.Next() {
		out = append(out, groupRow(rows.Value()))
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGroupByAcrossAPIs runs the same GROUP BY + HAVING query through
// every public surface — buffered QuerySQL, cursor QuerySQLRows,
// translate-then-Query, and translate-then-QueryRows — under all three
// executors, and checks every combination produces the same groups.
func TestGroupByAcrossAPIs(t *testing.T) {
	const sql = `SELECT e.deptNo AS d, COUNT(*) AS n, SUM(e.salary) AS total
	    FROM Employees e GROUP BY e.deptNo HAVING SUM(e.salary) > 100 ORDER BY d`
	want := []string{"d=10,n=2,total=180", "d=20,n=1,total=120"}

	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"jit", nil},
		{"reference", []Option{WithReferenceExecutor()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := setup(t, tc.opts...)

			res, err := e.QuerySQL(sql)
			if err != nil {
				t.Fatal(err)
			}
			var buffered []string
			for _, row := range res.Rows() {
				buffered = append(buffered, groupRow(row))
			}
			if got := strings.Join(buffered, "; "); got != strings.Join(want, "; ") {
				t.Fatalf("QuerySQL groups = %q, want %q", got, strings.Join(want, "; "))
			}

			rows, err := e.QuerySQLRows(sql)
			if err != nil {
				t.Fatal(err)
			}
			if got := collectRows(t, rows); strings.Join(got, "; ") != strings.Join(want, "; ") {
				t.Fatalf("QuerySQLRows groups = %q", strings.Join(got, "; "))
			}

			comp, err := e.TranslateSQL(sql)
			if err != nil {
				t.Fatal(err)
			}
			res2, err := e.Query(comp)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Value().Equal(res2.Value()) {
				t.Fatalf("Query(translated) = %s, QuerySQL = %s", res2, res)
			}

			rows2, err := e.QueryRows(comp)
			if err != nil {
				t.Fatal(err)
			}
			if got := collectRows(t, rows2); strings.Join(got, "; ") != strings.Join(want, "; ") {
				t.Fatalf("QueryRows groups = %q", strings.Join(got, "; "))
			}
		})
	}
}

// TestGroupByEmptyAndSingleGroup checks grouped-query edge shapes stay
// consistent across executors: a predicate that filters every row yields
// zero groups, and a constant-true HAVING over one department yields
// exactly one.
func TestGroupByEmptyAndSingleGroup(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"jit", nil},
		{"reference", []Option{WithReferenceExecutor()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := setup(t, tc.opts...)

			res, err := e.QuerySQL(`SELECT e.deptNo, COUNT(*) AS n FROM Employees e
			    WHERE e.salary > 1000 GROUP BY e.deptNo`)
			if err != nil {
				t.Fatal(err)
			}
			if res.Len() != 0 {
				t.Fatalf("empty input produced %d groups: %s", res.Len(), res)
			}

			res, err = e.QuerySQL(`SELECT e.deptNo, AVG(e.salary) AS a FROM Employees e
			    WHERE e.deptNo = 10 GROUP BY e.deptNo`)
			if err != nil {
				t.Fatal(err)
			}
			if res.Len() != 1 {
				t.Fatalf("single-group query produced %d groups: %s", res.Len(), res)
			}
			row := res.Rows()[0]
			if row.Field("deptNo").Int() != 10 || row.Field("a").Float() != 90 {
				t.Fatalf("single group = %s", res)
			}
		})
	}
}

// TestGroupByUnorderedDeterministic checks that an unordered grouped
// query still emits groups in a deterministic (first-occurrence) order,
// identically across the buffered and streaming surfaces.
func TestGroupByUnorderedDeterministic(t *testing.T) {
	e := setup(t)
	const sql = `SELECT e.deptNo, COUNT(*) AS n FROM Employees e GROUP BY e.deptNo`
	res, err := e.QuerySQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	var buffered []string
	for _, row := range res.Rows() {
		buffered = append(buffered, groupRow(row))
	}
	sorted := append([]string(nil), buffered...)
	sort.Strings(sorted)
	for i := 0; i < 5; i++ {
		rows, err := e.QuerySQLRows(sql)
		if err != nil {
			t.Fatal(err)
		}
		got := collectRows(t, rows)
		gotSorted := append([]string(nil), got...)
		sort.Strings(gotSorted)
		if strings.Join(gotSorted, ";") != strings.Join(sorted, ";") {
			t.Fatalf("run %d group multiset = %v, want %v", i, got, buffered)
		}
		if strings.Join(got, ";") != strings.Join(buffered, ";") {
			t.Fatalf("run %d group order = %v, want %v", i, got, buffered)
		}
	}
}

// TestGroupByCorrelatedSubquery checks that a correlated subquery over a
// catalog source inside a group key or an aggregate reaches that source
// under every executor, each answering what the JIT answers.
func TestGroupByCorrelatedSubquery(t *testing.T) {
	queries := []struct{ name, q string }{
		{"agg", `for { e <- Employees } group by { g := e.deptNo }
		   agg { n := sum (for { d <- Departments, d.id = e.deptNo } yield sum 1) }
		   yield list (g := g, n := n) order by g`},
		{"key", `for { e <- Employees } group by { g := for { d <- Departments, d.id = e.deptNo } yield max d.id }
		   agg { n := sum 1 }
		   yield list (g := g, n := n) order by g`},
	}
	const want = "g=10,n=2; g=20,n=1; g=30,n=1"
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"jit", nil},
		{"reference", []Option{WithReferenceExecutor()}},
	} {
		e := setup(t, tc.opts...)
		for _, q := range queries {
			t.Run(tc.name+"/"+q.name, func(t *testing.T) {
				res, err := e.Query(q.q)
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				for _, row := range res.Rows() {
					got = append(got, groupRow(row))
				}
				if strings.Join(got, "; ") != want {
					t.Fatalf("groups = %q, want %q", strings.Join(got, "; "), want)
				}
			})
		}
	}
}

// TestGroupByOverBind groups on a variable bound in the comprehension
// and filtered before grouping: the bind survives normalization as a
// plan node (the JIT's bind stage), and every executor answers the same
// groups.
func TestGroupByOverBind(t *testing.T) {
	const q = `for { e <- Employees, d := e.salary * 2, d > 170 } group by { g := d }
	   agg { n := sum 1, s := sum e.salary } yield list (g := g, n := n, s := s) order by g`
	const want = "g=180,n=1,s=90; g=200,n=1,s=100; g=240,n=1,s=120"
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"jit", nil},
		{"reference", []Option{WithReferenceExecutor()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := setup(t, tc.opts...).Query(q)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, row := range res.Rows() {
				got = append(got, groupRow(row))
			}
			if strings.Join(got, "; ") != want {
				t.Fatalf("groups = %q, want %q", strings.Join(got, "; "), want)
			}
		})
	}
}

// TestGroupByFloatKeyEquality groups a float column holding NaN, −0 and
// 0, 1 and 1.0 and null cells: every NaN falls in one group, −0 in 0's
// and 1.0 in 1's, as the reference executor groups them. The JIT must
// agree cold and warm, at 1, 2 and 4 workers, over a file large enough
// to split into morsels (partial tables merge).
func TestGroupByFloatKeyEquality(t *testing.T) {
	cells := []string{"NaN", "-0", "1", "0", "1.0", "2.5", "NaN", "-1", "", "nan"}
	var csv strings.Builder
	csv.WriteString("id,v\n")
	for i := 0; i < 9000; i++ {
		fmt.Fprintf(&csv, "%d,%s\n", i, cells[i%len(cells)])
	}
	path := filepath.Join(t.TempDir(), "floats.csv")
	if err := os.WriteFile(path, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	const schema = "Record(Att(id,int),Att(v,float))"
	const sql = `SELECT t.v, COUNT(*) AS n FROM T t GROUP BY t.v`
	query := func(e *Engine) (Value, []string) {
		t.Helper()
		res, err := e.QuerySQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		for _, row := range res.Rows() {
			rows = append(rows, groupRow(row))
		}
		return res.Value(), rows
	}
	ref := New(WithReferenceExecutor())
	if err := ref.RegisterCSV("T", path, schema, nil); err != nil {
		t.Fatal(err)
	}
	want, wantRows := query(ref)
	if len(wantRows) != 6 {
		t.Fatalf("reference groups %q, want NaN, 0, 1, 2.5, -1 and null", wantRows)
	}
	for _, workers := range []int{1, 2, 4} {
		e := New(WithWorkers(workers))
		if err := e.RegisterCSV("T", path, schema, nil); err != nil {
			t.Fatal(err)
		}
		for _, pass := range []string{"cold", "warm"} {
			got, rows := query(e)
			if got, want := strings.Join(rows, "; "), strings.Join(wantRows, "; "); got != want {
				t.Fatalf("workers=%d %s: %d groups %.200s, reference %s", workers, pass, len(rows), got, want)
			}
			if !got.Equal(want) {
				t.Fatalf("workers=%d %s: %v, reference %v", workers, pass, got, want)
			}
		}
	}
}
