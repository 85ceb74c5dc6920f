package vida

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func setup(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "emps.csv")
	csv := "id,name,deptNo,salary\n1,ada,10,100\n2,bob,10,80\n3,eve,20,120\n4,dan,30,90\n"
	if err := os.WriteFile(csvPath, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	jsonPath := filepath.Join(dir, "depts.json")
	j := `[{"id": 10, "deptName": "HR"}, {"id": 20, "deptName": "Eng"}, {"id": 30, "deptName": "Ops"}]`
	if err := os.WriteFile(jsonPath, []byte(j), 0o644); err != nil {
		t.Fatal(err)
	}
	e := New(opts...)
	err := e.RegisterCSV("Employees", csvPath,
		"Record(Att(id, int), Att(name, string), Att(deptNo, int), Att(salary, float))", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterJSON("Departments", jsonPath, ""); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestQuickstartFlow(t *testing.T) {
	e := setup(t)
	res, err := e.Query(`for { e <- Employees, d <- Departments,
	        e.deptNo = d.id, d.deptName = "HR"} yield sum 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value().Int() != 2 {
		t.Fatalf("HR count = %s", res)
	}
}

func TestQuerySQLMatchesComprehension(t *testing.T) {
	e := setup(t)
	sqlRes, err := e.QuerySQL(`SELECT COUNT(e.id)
	    FROM Employees e JOIN Departments d ON (e.deptNo = d.id)
	    WHERE d.deptName = 'HR'`)
	if err != nil {
		t.Fatal(err)
	}
	compRes, err := e.Query(`for { e <- Employees, d <- Departments,
	        e.deptNo = d.id, d.deptName = "HR"} yield sum 1`)
	if err != nil {
		t.Fatal(err)
	}
	if !sqlRes.Value().Equal(compRes.Value()) {
		t.Fatalf("SQL %s != comprehension %s", sqlRes, compRes)
	}
}

func TestTranslateSQL(t *testing.T) {
	e := setup(t)
	text, err := e.TranslateSQL(`SELECT e.name FROM Employees e WHERE e.salary > 90`)
	if err != nil {
		t.Fatal(err)
	}
	if text == "" {
		t.Fatal("empty translation")
	}
	res, err := e.Query(text)
	if err != nil {
		t.Fatalf("translated query failed: %v\n%s", err, text)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %d", res.Len())
	}
}

func TestResultRows(t *testing.T) {
	e := setup(t)
	res, err := e.Query(`for { e <- Employees, e.salary >= 100 } yield bag (n := e.name, s := e.salary)`)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		if r.Field("n").IsNull() || r.Field("s").Float() < 100 {
			t.Fatalf("row = %s", r)
		}
		if len(r.Fields()) != 2 {
			t.Fatalf("fields = %v", r.Fields())
		}
	}
	// Scalar results present as a single row.
	res2, _ := e.Query(`for { e <- Employees } yield count 1`)
	if res2.Len() != 1 || res2.Rows()[0].Int() != 4 {
		t.Fatalf("scalar rows = %v", res2.Rows())
	}
}

func TestValueFacade(t *testing.T) {
	v := NewRecord(
		Field{Name: "a", Val: NewInt(1)},
		Field{Name: "b", Val: NewList(NewString("x"), NewBool(true), NewFloat(2.5))},
	)
	if v.Kind() != "record" || v.Len() != 2 {
		t.Fatalf("record facade: %s", v)
	}
	b := v.Field("b")
	if !b.IsCollection() || b.Len() != 3 {
		t.Fatalf("list facade: %s", b)
	}
	if b.Elems()[0].Str() != "x" || !b.Elems()[1].Bool() || b.Elems()[2].Float() != 2.5 {
		t.Fatalf("elems: %s", b)
	}
	if !Null.IsNull() || v.Field("zz").Kind() != "null" {
		t.Fatal("null facade broken")
	}
	if !v.Equal(v) {
		t.Fatal("Equal broken")
	}
}

func TestRegisterValues(t *testing.T) {
	e := New()
	rows := []Value{
		NewRecord(Field{Name: "x", Val: NewInt(1)}),
		NewRecord(Field{Name: "x", Val: NewInt(2)}),
	}
	if err := e.RegisterValues("Xs", rows, "Record(Att(x, int))"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(`for { r <- Xs } yield sum r.x`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value().Int() != 3 {
		t.Fatalf("sum = %s", res)
	}
}

func TestExplainAndCatalog(t *testing.T) {
	e := setup(t)
	plan, err := e.Explain(`for { e <- Employees } yield sum e.salary`)
	if err != nil || plan == "" {
		t.Fatalf("Explain = %q, %v", plan, err)
	}
	cat := e.Catalog()
	if cat == "" {
		t.Fatal("empty catalog")
	}
	srcs := e.Sources()
	if len(srcs) != 2 {
		t.Fatalf("sources = %v", srcs)
	}
}

func TestStatsAndCaching(t *testing.T) {
	e := setup(t)
	q := `for { e <- Employees } yield sum e.salary`
	for i := 0; i < 3; i++ {
		if _, err := e.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.Queries != 3 {
		t.Fatalf("queries = %d", s.Queries)
	}
	if s.QueriesFromCache != 2 {
		t.Fatalf("cache-served = %d, want 2 (stats %+v)", s.QueriesFromCache, s)
	}
}

func TestExecutorOptionsAgree(t *testing.T) {
	q := `for { e <- Employees, d <- Departments, e.deptNo = d.id } yield bag (n := e.name, d := d.deptName)`
	var results []*Result
	for _, opts := range [][]Option{
		nil,
		{WithReferenceExecutor()},
		{WithAdaptiveOptimizer()},
		{WithoutCaching()},
		{WithCacheBudget(1 << 20)},
	} {
		e := setup(t, opts...)
		r, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	for i := 1; i < len(results); i++ {
		if !results[0].Value().Equal(results[i].Value()) {
			t.Fatalf("option set %d diverged: %s vs %s", i, results[i], results[0])
		}
	}
}

// TestLambdaBindAcrossExecutors binds a lambda in a comprehension —
// before the first generator and after one — and applies it in the
// head: every executor answers what the calculus evaluator answers,
// (100+80+120+90)*2.
func TestLambdaBindAcrossExecutors(t *testing.T) {
	queries := []struct{ name, q string }{
		{"leading", `for { double := \x -> x * 2, e <- Employees } yield sum double(e.salary)`},
		{"after-generator", `for { e <- Employees, double := \x -> x * 2 } yield sum double(e.salary)`},
	}
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
				if got := res.Value().Float(); got != 780 {
					t.Fatalf("sum = %v, want 780", res)
				}
			})
		}
	}
}

func TestParseQuery(t *testing.T) {
	if _, err := ParseQuery(`for { x <- Xs } yield sum x.a`); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseQuery(`for {`); err == nil {
		t.Fatal("bad query should fail")
	}
}

func TestRegisterSchemaErrors(t *testing.T) {
	e := New()
	if err := e.RegisterCSV("X", "/nope.csv", "NotASchema((", nil); err == nil {
		t.Fatal("bad schema should fail")
	}
	if err := e.RegisterJSON("Y", "/nope.json", "Record(Att(a, int)"); err == nil {
		t.Fatal("bad JSON schema should fail")
	}
}

func ExampleEngine_Query() {
	dir, _ := os.MkdirTemp("", "vida")
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "t.csv")
	_ = os.WriteFile(path, []byte("id,v\n1,10\n2,20\n"), 0o644)

	eng := New()
	_ = eng.RegisterCSV("T", path, "Record(Att(id, int), Att(v, int))", nil)
	res, _ := eng.Query(`for { t <- T } yield sum t.v`)
	fmt.Println(res)
	// Output: 30
}

func TestAttachCleaner(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dirty.csv")
	csv := "id,age,city\n" +
		"1,45,geneva\n" +
		"2,300,bern\n" + // age out of range -> clamps to 120
		"3,50,genvea\n" + // typo -> nearest dictionary entry
		"-4,30,bern\n" // negative id -> row skipped
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	e := New()
	must2(t, e.RegisterCSV("P", path,
		"Record(Att(id, int), Att(age, int), Att(city, string))", nil))
	must2(t, e.AttachCleaner("P",
		CleanRule{Attr: "id", Policy: CleanSkipRow, Min: CleanFloat(0)},
		CleanRule{Attr: "age", Policy: CleanNearest, Min: CleanFloat(0), Max: CleanFloat(120)},
		CleanRule{Attr: "city", Policy: CleanNearest, Dictionary: []string{"geneva", "bern"}},
	))
	res, err := e.Query(`for { p <- P } yield count 1`)
	must2(t, err)
	if res.Value().Int() != 3 {
		t.Fatalf("cleaned row count = %s, want 3", res)
	}
	res, err = e.Query(`for { p <- P } yield max p.age`)
	must2(t, err)
	if res.Value().Int() != 120 {
		t.Fatalf("clamped max age = %s", res)
	}
	res, err = e.Query(`for { p <- P, p.city = "geneva" } yield count 1`)
	must2(t, err)
	if res.Value().Int() != 2 {
		t.Fatalf("typo not repaired: geneva count = %s", res)
	}
	// Unknown source errors.
	if err := e.AttachCleaner("NoSuch"); err == nil {
		t.Fatal("unknown source accepted")
	}
}

func must2(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
