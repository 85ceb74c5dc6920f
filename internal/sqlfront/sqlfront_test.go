package sqlfront

import (
	"strings"
	"testing"

	"vida/internal/mcl"
	"vida/internal/values"
)

// env sets up the paper's Employees/Departments data for end-to-end
// SQL-vs-comprehension equivalence checks.
func env() *mcl.Env {
	emp := func(id int64, name string, deptNo int64, salary float64) values.Value {
		return values.NewRecord(
			values.Field{Name: "id", Val: values.NewInt(id)},
			values.Field{Name: "name", Val: values.NewString(name)},
			values.Field{Name: "deptNo", Val: values.NewInt(deptNo)},
			values.Field{Name: "salary", Val: values.NewFloat(salary)},
		)
	}
	dept := func(id int64, name string) values.Value {
		return values.NewRecord(
			values.Field{Name: "id", Val: values.NewInt(id)},
			values.Field{Name: "deptName", Val: values.NewString(name)},
		)
	}
	return mcl.NewEnv(map[string]values.Value{
		"Employees": values.NewList(
			emp(1, "ada", 10, 100),
			emp(2, "bob", 10, 80),
			emp(3, "eve", 20, 120),
			emp(4, "dan", 30, 90),
		),
		"Departments": values.NewList(
			dept(10, "HR"),
			dept(20, "Eng"),
			dept(30, "Ops"),
		),
	})
}

func run(t *testing.T, sql string) values.Value {
	t.Helper()
	comp, err := Translate(sql)
	if err != nil {
		t.Fatalf("Translate(%q): %v", sql, err)
	}
	v, err := mcl.Eval(comp, env())
	if err != nil {
		t.Fatalf("eval of %q (%s): %v", sql, comp, err)
	}
	return v
}

func TestPaperCountQuery(t *testing.T) {
	// The exact SQL from paper §3.2.
	sql := `SELECT COUNT(e.id)
	        FROM Employees e JOIN Departments d ON (e.deptNo = d.id)
	        WHERE d.deptName = 'HR'`
	comp, err := Translate(sql)
	if err != nil {
		t.Fatal(err)
	}
	// The paper maps it to sum 1.
	c, ok := comp.(*mcl.Comprehension)
	if !ok || c.M.Name() != "sum" {
		t.Fatalf("translation = %s", comp)
	}
	if got := run(t, sql); got.Int() != 2 {
		t.Fatalf("HR count = %v, want 2", got)
	}
}

func TestProjection(t *testing.T) {
	got := run(t, `SELECT e.name AS n, e.salary FROM Employees e WHERE e.salary > 85`)
	if got.Kind() != values.KindBag || got.Len() != 3 {
		t.Fatalf("projection = %v", got)
	}
	if _, ok := got.Elems()[0].Get("n"); !ok {
		t.Fatalf("alias lost: %v", got.Elems()[0])
	}
	if _, ok := got.Elems()[0].Get("salary"); !ok {
		t.Fatalf("default name lost: %v", got.Elems()[0])
	}
}

func TestSelectStarSingleTable(t *testing.T) {
	got := run(t, `SELECT * FROM Departments`)
	if got.Len() != 3 {
		t.Fatalf("star = %v", got)
	}
}

func TestDistinct(t *testing.T) {
	got := run(t, `SELECT DISTINCT e.deptNo FROM Employees e`)
	if got.Kind() != values.KindSet || got.Len() != 3 {
		t.Fatalf("distinct = %v", got)
	}
}

func TestUnqualifiedColumnsSingleTable(t *testing.T) {
	got := run(t, `SELECT name FROM Employees WHERE salary >= 100`)
	if got.Len() != 2 {
		t.Fatalf("unqualified = %v", got)
	}
}

func TestCommaJoin(t *testing.T) {
	got := run(t, `SELECT e.name FROM Employees e, Departments d
	               WHERE e.deptNo = d.id AND d.deptName = 'Eng'`)
	if got.Len() != 1 || got.Elems()[0].Str() != "eve" {
		t.Fatalf("comma join = %v", got)
	}
}

func TestMultipleAggregates(t *testing.T) {
	got := run(t, `SELECT COUNT(*) AS c, SUM(e.salary) AS s, AVG(e.salary) AS a,
	               MIN(e.salary) AS lo, MAX(e.salary) AS hi FROM Employees e`)
	if got.MustGet("c").Int() != 4 {
		t.Fatalf("count = %v", got)
	}
	if got.MustGet("s").Float() != 390 {
		t.Fatalf("sum = %v", got)
	}
	if got.MustGet("a").Float() != 97.5 {
		t.Fatalf("avg = %v", got)
	}
	if got.MustGet("lo").Float() != 80 || got.MustGet("hi").Float() != 120 {
		t.Fatalf("min/max = %v", got)
	}
}

func TestGroupBy(t *testing.T) {
	got := run(t, `SELECT e.deptNo, COUNT(*) AS c, SUM(e.salary) AS s
	               FROM Employees e GROUP BY e.deptNo`)
	if got.Len() != 3 {
		t.Fatalf("groups = %v", got)
	}
	byDept := map[int64]values.Value{}
	for _, g := range got.Elems() {
		byDept[g.MustGet("deptNo").Int()] = g
	}
	if byDept[10].MustGet("c").Int() != 2 || byDept[10].MustGet("s").Float() != 180 {
		t.Fatalf("dept 10 = %v", byDept[10])
	}
	if byDept[20].MustGet("c").Int() != 1 {
		t.Fatalf("dept 20 = %v", byDept[20])
	}
}

func TestGroupByWithJoinAndWhere(t *testing.T) {
	got := run(t, `SELECT d.deptName, COUNT(*) AS c
	               FROM Employees e JOIN Departments d ON e.deptNo = d.id
	               WHERE e.salary > 85
	               GROUP BY d.deptName`)
	names := map[string]int64{}
	for _, g := range got.Elems() {
		names[g.MustGet("deptName").Str()] = g.MustGet("c").Int()
	}
	if names["HR"] != 1 || names["Eng"] != 1 || names["Ops"] != 1 {
		t.Fatalf("grouped join = %v", got)
	}
}

func TestHaving(t *testing.T) {
	got := run(t, `SELECT e.deptNo, COUNT(*) AS c FROM Employees e
	               GROUP BY e.deptNo HAVING COUNT(*) > 1`)
	if got.Len() != 1 {
		t.Fatalf("having = %v", got)
	}
	if got.Elems()[0].MustGet("deptNo").Int() != 10 {
		t.Fatalf("having group = %v", got)
	}
}

func TestLike(t *testing.T) {
	if got := run(t, `SELECT name FROM Employees WHERE name LIKE 'a%'`); got.Len() != 1 {
		t.Fatalf("prefix like = %v", got)
	}
	if got := run(t, `SELECT name FROM Employees WHERE name LIKE '%a%'`); got.Len() != 2 {
		t.Fatalf("contains like = %v", got)
	}
	if got := run(t, `SELECT name FROM Employees WHERE name LIKE '%b'`); got.Len() != 1 {
		t.Fatalf("suffix like = %v", got)
	}
}

func TestScalarFunctions(t *testing.T) {
	got := run(t, `SELECT UPPER(name) AS u FROM Employees WHERE LENGTH(name) = 3 AND id = 1`)
	if got.Len() != 1 || got.Elems()[0].Str() != "ADA" {
		t.Fatalf("functions = %v", got)
	}
}

func TestArithmeticAndComparisons(t *testing.T) {
	got := run(t, `SELECT e.name FROM Employees e WHERE e.salary * 2 >= 200 AND e.id <> 3`)
	if got.Len() != 1 || got.Elems()[0].Str() != "ada" {
		t.Fatalf("arith = %v", got)
	}
}

func TestErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT FROM T`,
		`SELECT x FROM`,
		`SELECT a.x FROM T t WHERE`,
		`SELECT x FROM T ORDER BY`,               // missing key
		`SELECT x FROM T LIMIT`,                  // missing count
		`SELECT x FROM T LIMIT -1`,               // negative limit
		`SELECT x FROM T LIMIT 2.5`,              // fractional limit
		`SELECT x FROM T LIMIT x`,                // column limit
		`SELECT x FROM T ORDER BY 9`,             // ordinal out of range
		`SELECT COUNT(*) FROM T ORDER BY 1`,      // aggregate result has no rows to order
		`SELECT COUNT(*) FROM T LIMIT 3`,         // aggregate result has no rows to bound
		`SELECT x FROM T ORDER BY COUNT(*)`,      // aggregate key without GROUP BY
		`SELECT x, COUNT(*) FROM T`,              // non-aggregate without GROUP BY
		`SELECT x FROM T GROUP BY y`,             // x not grouped
		`SELECT * FROM A a, B b`,                 // ambiguous star
		`SELECT q.x FROM T t`,                    // unknown alias
		`SELECT x FROM A a, B b`,                 // unqualified with two tables
		`SELECT x FROM T t HAVING COUNT(*) > 1`,  // HAVING without GROUP BY
		`SELECT x FROM T WHERE name LIKE 'a%b'`,  // unsupported pattern
		`SELECT x FROM T WHERE 'unterminated`,    // lex error
		`SELECT COUNT(*) extra_tokens FROM T, ,`, // junk
	}
	for _, sql := range bad {
		if _, err := Translate(sql); err == nil {
			t.Fatalf("Translate(%q) should fail", sql)
		}
	}
}

func TestTranslationIsParseableText(t *testing.T) {
	// The rendered comprehension must round-trip through the mcl parser
	// (this is how Engine.QuerySQL consumes it).
	sqls := []string{
		`SELECT COUNT(e.id) FROM Employees e JOIN Departments d ON (e.deptNo = d.id) WHERE d.deptName = 'HR'`,
		`SELECT e.name AS n FROM Employees e WHERE e.salary > 85`,
		`SELECT e.deptNo, COUNT(*) AS c FROM Employees e GROUP BY e.deptNo`,
		`SELECT DISTINCT e.deptNo FROM Employees e`,
	}
	for _, sql := range sqls {
		comp, err := Translate(sql)
		if err != nil {
			t.Fatal(err)
		}
		text := comp.String()
		if _, err := mcl.Parse(text); err != nil {
			t.Fatalf("rendered translation unparseable for %q:\n%s\n%v", sql, text, err)
		}
	}
}

func TestKeywordCaseInsensitive(t *testing.T) {
	got := run(t, `select e.name from Employees e where e.id = 1`)
	if got.Len() != 1 {
		t.Fatalf("lowercase keywords = %v", got)
	}
}

func TestStringEscapes(t *testing.T) {
	comp, err := Translate(`SELECT name FROM T WHERE name = 'O''Brien'`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(comp.String(), `O'Brien`) {
		t.Fatalf("escaped quote lost: %s", comp)
	}
}

// TestRepeatedAggregateSharesSlot: an aggregate named twice — COUNT(*)
// in the select list and again in HAVING — folds once, in one slot,
// and the answers are those of the query that names it once. Heads
// compare as trees: SUM(1) and SUM(1.0) print alike but keep two slots.
func TestRepeatedAggregateSharesSlot(t *testing.T) {
	aggsOf := func(sql string) []mcl.AggSpec {
		t.Helper()
		comp, err := Translate(sql)
		if err != nil {
			t.Fatalf("Translate(%q): %v", sql, err)
		}
		return comp.(*mcl.Comprehension).Aggs
	}
	const twice = `SELECT e.deptNo, COUNT(*) AS n, SUM(e.salary) AS s FROM Employees e
	               GROUP BY e.deptNo HAVING COUNT(*) > ?`
	if aggs := aggsOf(twice); len(aggs) != 2 {
		t.Fatalf("aggregates = %v, want COUNT(*) and SUM once each", aggs)
	}
	if aggs := aggsOf(`SELECT e.deptNo, SUM(1) AS i, SUM(1.0) AS f FROM Employees e GROUP BY e.deptNo`); len(aggs) != 2 {
		t.Fatalf("aggregates = %v, want SUM(1) and SUM(1.0) apart", aggs)
	}
	comp, err := Translate(twice)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mcl.Eval(mcl.BindParams(comp, map[string]values.Value{"1": values.NewInt(1)}), env())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("having = %v", got)
	}
	g := got.Elems()[0]
	if g.MustGet("deptNo").Int() != 10 || g.MustGet("n").Int() != 2 || g.MustGet("s").Float() != 180 {
		t.Fatalf("having group = %v, want deptNo 10, n 2, s 180", g)
	}
	mixed := run(t, `SELECT e.deptNo, SUM(1) AS i, SUM(1.0) AS f FROM Employees e GROUP BY e.deptNo ORDER BY e.deptNo`)
	first := mixed.Elems()[0]
	if i, f := first.MustGet("i"), first.MustGet("f"); i.Kind() != values.KindInt || f.Kind() != values.KindFloat || i.Int() != 2 || f.Float() != 2 {
		t.Fatalf("SUM(1), SUM(1.0) = %v, %v; want int 2 and float 2", i, f)
	}
}
