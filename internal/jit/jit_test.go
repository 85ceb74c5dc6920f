package jit

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"vida/internal/algebra"
	"vida/internal/mcl"
	"vida/internal/monoid"
	"vida/internal/rawcsv"
	"vida/internal/sdg"
	"vida/internal/values"
)

func rec(pairs ...any) values.Value {
	var fs []values.Field
	for i := 0; i < len(pairs); i += 2 {
		name := pairs[i].(string)
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
		default:
			panic("bad pair")
		}
		fs = append(fs, values.Field{Name: name, Val: v})
	}
	return values.NewRecord(fs...)
}

// schemaCat is a MapCatalog that also serves descriptions.
type schemaCat struct {
	algebra.MapCatalog
	descs map[string]*sdg.Description
}

func (c *schemaCat) Description(name string) (*sdg.Description, bool) {
	d, ok := c.descs[name]
	return d, ok
}

func testCatalog() *schemaCat {
	emps := []values.Value{
		rec("id", 1, "name", "ada", "deptNo", 10, "salary", 100.0),
		rec("id", 2, "name", "bob", "deptNo", 10, "salary", 80.0),
		rec("id", 3, "name", "eve", "deptNo", 20, "salary", 120.0),
		rec("id", 4, "name", "dan", "deptNo", 30, "salary", 90.0),
	}
	depts := []values.Value{
		rec("id", 10, "deptName", "HR"),
		rec("id", 20, "deptName", "Eng"),
		rec("id", 30, "deptName", "Ops"),
	}
	orders := []values.Value{
		rec("eid", 1, "items", values.NewList(values.NewInt(5), values.NewInt(7))),
		rec("eid", 3, "items", values.NewList(values.NewInt(2))),
	}
	empType := sdg.Bag(sdg.Record(
		sdg.Attr{Name: "id", Type: sdg.Int},
		sdg.Attr{Name: "name", Type: sdg.String},
		sdg.Attr{Name: "deptNo", Type: sdg.Int},
		sdg.Attr{Name: "salary", Type: sdg.Float},
	))
	deptType := sdg.Bag(sdg.Record(
		sdg.Attr{Name: "id", Type: sdg.Int},
		sdg.Attr{Name: "deptName", Type: sdg.String},
	))
	return &schemaCat{
		MapCatalog: algebra.MapCatalog{
			"Employees":   &algebra.SliceSource{SrcName: "Employees", Rows: emps},
			"Departments": &algebra.SliceSource{SrcName: "Departments", Rows: depts},
			"Orders":      &algebra.SliceSource{SrcName: "Orders", Rows: orders},
		},
		descs: map[string]*sdg.Description{
			"Employees":   {Name: "Employees", Format: sdg.FormatTable, Schema: empType},
			"Departments": {Name: "Departments", Format: sdg.FormatTable, Schema: deptType},
			// Orders intentionally schemaless: exercises whole-value slots.
		},
	}
}

func planFor(t *testing.T, src string, cat *schemaCat) *algebra.Reduce {
	t.Helper()
	e, err := mcl.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	sources := map[string]bool{}
	for k := range cat.MapCatalog {
		sources[k] = true
	}
	plan, err := algebra.Translate(mcl.Normalize(e), sources)
	if err != nil {
		t.Fatalf("translate %q: %v", src, err)
	}
	return plan
}

var equivalenceQueries = []string{
	`for { e <- Employees } yield count e`,
	`for { e <- Employees, e.salary > 85 } yield sum e.salary`,
	`for { e <- Employees, d <- Departments, e.deptNo = d.id, d.deptName = "HR" } yield sum 1`,
	`for { e <- Employees, d <- Departments, e.deptNo = d.id } yield bag (n := e.name, dep := d.deptName)`,
	`for { o <- Orders, i <- o.items, i > 3 } yield list i`,
	// Two generates in one pipeline: the inner one's buffered rows flush
	// through the outer one before it flushes.
	`for { o <- Orders, i <- o.items, j <- o.items, i >= j } yield list (i * 10 + j)`,
	`for { e <- Employees, b := e.salary * 0.1, b > 9.0 } yield set e.name`,
	`for { e <- Employees } yield max e.salary`,
	`for { e <- Employees } yield avg e.salary`,
	`for { e <- Employees, o <- Orders, e.id = o.eid, i <- o.items } yield sum i`,
	`for { d <- Departments } yield list (dep := d.deptName,
	     cnt := for { e <- Employees, e.deptNo = d.id } yield count e)`,
	`for { e <- Employees } yield bag e`,
	`for { e <- Employees, contains(e.name, "a") } yield count e`,
	`for { e <- Employees } yield list (tag := if e.salary > 95 then "hi" else "lo")`,
}

func TestExecutorEquivalence(t *testing.T) {
	cat := testCatalog()
	for _, q := range equivalenceQueries {
		plan := planFor(t, q, cat)
		want, err := algebra.Reference{}.Run(plan, cat)
		if err != nil {
			t.Fatalf("reference %q: %v", q, err)
		}
		gotJIT, err := Executor{}.Run(plan, cat)
		if err != nil {
			t.Fatalf("jit %q: %v", q, err)
		}
		if !values.Equal(gotJIT, want) {
			t.Fatalf("jit diverged on %q:\njit: %v\nref: %v", q, gotJIT, want)
		}
	}
}

func TestExecutorsOnJoinPlans(t *testing.T) {
	// Exercise the Join operator (the optimizer's output) on all engines.
	cat := testCatalog()
	plan := &algebra.Reduce{
		M:    mustMonoid("bag"),
		Head: mcl.MustParse("(n := e.name, dep := d.deptName)"),
		Input: &algebra.Join{
			L:  &algebra.Scan{Source: "Employees", Var: "e"},
			R:  &algebra.Scan{Source: "Departments", Var: "d"},
			On: []algebra.EquiPair{{LExpr: mcl.MustParse("e.deptNo"), RExpr: mcl.MustParse("d.id")}},
		},
	}
	want, err := algebra.Reference{}.Run(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Executor{}.Run(plan, cat)
	if err != nil {
		t.Fatalf("jit: %v", err)
	}
	if !values.Equal(got, want) {
		t.Fatalf("jit join diverged: %v vs %v", got, want)
	}
}

// recordPathTrap is a CSV reader whose record path fails the test: the
// batch methods are promoted from the embedded reader, Iterate is not.
type recordPathTrap struct {
	*rawcsv.Reader
	t *testing.T
}

func (s recordPathTrap) Iterate(fields []string, yield func(values.Value) error) error {
	s.t.Error("JIT scan of a batch-capable source built records")
	return s.Reader.Iterate(fields, yield)
}

// TestJITScansCSVThroughBatchPath pins what the scan compiler does with a
// batch-capable plug-in: cold or warm it reads column batches and never
// constructs records, and once the first touch built the positional map
// the scan is served by jumping through it.
func TestJITScansCSVThroughBatchPath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "e.csv")
	content := "id,score\n1,10\n2,20\n3,30\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	schema := sdg.Bag(sdg.Record(
		sdg.Attr{Name: "id", Type: sdg.Int},
		sdg.Attr{Name: "score", Type: sdg.Int},
	))
	desc := sdg.DefaultDescription("E", sdg.FormatCSV, path, schema)
	rd, err := rawcsv.Open(desc)
	if err != nil {
		t.Fatal(err)
	}
	cat := &schemaCat{
		MapCatalog: algebra.MapCatalog{"E": recordPathTrap{Reader: rd, t: t}},
		descs:      map[string]*sdg.Description{"E": desc},
	}
	plan := planFor2(t, "for { x <- E, x.score > 15 } yield sum x.score", cat)
	got, err := Executor{}.Run(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 50 {
		t.Fatalf("sum = %v", got)
	}
	cold := rd.StatsSnapshot()
	got2, err := Executor{}.Run(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !values.Equal(got, got2) {
		t.Fatalf("posmap run diverged: %v vs %v", got, got2)
	}
	warm := rd.StatsSnapshot()
	if warm["posmap_scans"] != cold["posmap_scans"]+1 || warm["full_scans"] != cold["full_scans"] {
		t.Fatalf("warm scan did not jump through the positional map: cold %v, warm %v", cold, warm)
	}
}

func planFor2(t *testing.T, src string, cat *schemaCat) *algebra.Reduce {
	t.Helper()
	e, err := mcl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]bool{}
	for k := range cat.MapCatalog {
		sources[k] = true
	}
	plan, err := algebra.Translate(mcl.Normalize(e), sources)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestErrorsPropagate(t *testing.T) {
	cat := testCatalog()
	// Generator over a scalar: runtime error in all engines.
	plan := &algebra.Reduce{
		M:    mustMonoid("count"),
		Head: mcl.MustParse("1"),
		Input: &algebra.Generate{
			Var: "x",
			E:   mcl.MustParse("42"),
		},
	}
	if _, err := (Executor{}).Run(plan, cat); err == nil {
		t.Fatal("jit should propagate the error")
	}
	if _, err := (algebra.Reference{}).Run(plan, cat); err == nil {
		t.Fatal("reference should propagate the error")
	}
	// Unknown source.
	bad := &algebra.Reduce{
		M:     mustMonoid("count"),
		Head:  mcl.MustParse("1"),
		Input: &algebra.Scan{Source: "NoSuch", Var: "x"},
	}
	if _, err := (Executor{}).Run(bad, cat); err == nil {
		t.Fatal("jit should fail on unknown source")
	}
	if _, err := (algebra.Reference{}).Run(bad, cat); err == nil {
		t.Fatal("reference should fail on unknown source")
	}
}

func TestRandomizedEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	queries := []string{
		"for { x <- Xs, x.a > 2 } yield sum x.b",
		"for { x <- Xs, y <- Ys, x.a = y.a } yield count x",
		"for { x <- Xs, y <- Ys, x.a = y.a, x.b > y.b } yield bag (p := x.b, q := y.b)",
		"for { x <- Xs, v := x.a + x.b, v % 2 = 0 } yield list v",
		"for { x <- Xs } yield set x.a",
		"for { x <- Xs, x.a > 0 or x.b > 3 } yield count x",
		"for { x <- Xs } yield avg x.b",
		"for { x <- Xs } group by { k := x.a } agg { n := count x, s := sum x.b } having n > 1 yield list (k := k, s := s)",
		"for { x <- Xs } yield list (a := x.a, b := x.b) order by x.b desc, x.a limit 3 offset 1",
		"for { x <- Xs } yield set x.b limit 2",
	}
	xsType := sdg.Bag(sdg.Record(sdg.Attr{Name: "a", Type: sdg.Int}, sdg.Attr{Name: "b", Type: sdg.Int}))
	for trial := 0; trial < 20; trial++ {
		mk := func(n int) []values.Value {
			rows := make([]values.Value, n)
			for i := range rows {
				rows[i] = rec("a", r.Intn(5), "b", r.Intn(5))
			}
			return rows
		}
		cat := &schemaCat{
			MapCatalog: algebra.MapCatalog{
				"Xs": &algebra.SliceSource{SrcName: "Xs", Rows: mk(r.Intn(10))},
				"Ys": &algebra.SliceSource{SrcName: "Ys", Rows: mk(r.Intn(8))},
			},
			descs: map[string]*sdg.Description{
				"Xs": {Name: "Xs", Format: sdg.FormatTable, Schema: xsType},
				"Ys": {Name: "Ys", Format: sdg.FormatTable, Schema: xsType},
			},
		}
		var plans []*algebra.Reduce
		for _, q := range queries {
			plans = append(plans, planFor2(t, q, cat))
		}
		for _, plan := range plans {
			q := algebra.Format(plan)
			want, err := algebra.Reference{}.Run(plan, cat)
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			gotJ, err := Executor{}.Run(plan, cat)
			if err != nil {
				t.Fatalf("jit %q: %v", q, err)
			}
			if !values.Equal(gotJ, want) {
				t.Fatalf("%q diverged: jit=%v ref=%v", q, gotJ, want)
			}
		}
	}
}

func mustMonoid(name string) monoid.Monoid {
	m, err := monoid.ByName(name)
	if err != nil {
		panic(err)
	}
	return m
}
