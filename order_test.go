package vida

import (
	"fmt"
	"strings"
	"testing"

	"vida/internal/algebra"
	"vida/internal/sched"
	"vida/internal/sdg"
	"vida/internal/values"
)

// TestOrderByLimitAcrossAPIs runs the same ranked query through the
// buffered API, the cursor API and the SQL front-end and demands
// identical ordered output (acceptance criterion: `SELECT ... ORDER BY
// ... LIMIT k` works identically through every surface).
func TestOrderByLimitAcrossAPIs(t *testing.T) {
	e := setupBig(t, 20000) // above the parallel threshold
	const mclQ = `for { p <- People } yield bag (id := p.id, age := p.age) order by p.age desc, p.id limit 5 offset 2`
	const sqlQ = `SELECT id, age FROM People ORDER BY age DESC, id LIMIT 5 OFFSET 2`

	// Warm the caches so the parallel range path is exercised too.
	if _, err := e.Query(`for { p <- People } yield count p.id`); err != nil {
		t.Fatal(err)
	}

	collectIDs := func(rows *Rows) []int64 {
		t.Helper()
		defer rows.Close()
		var ids []int64
		for rows.Next() {
			var id, age int64
			if err := rows.Scan(&id, &age); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		return ids
	}

	res, err := e.Query(mclQ)
	if err != nil {
		t.Fatal(err)
	}
	// ages cycle 20..79; age 79 has rows id=59,119,...; ordered desc by
	// age then asc by id, skipping the first two.
	var fromQuery []int64
	for _, r := range res.Rows() {
		fromQuery = append(fromQuery, r.Field("id").Int())
	}
	want := []int64{179, 239, 299, 359, 419}
	if fmt.Sprint(fromQuery) != fmt.Sprint(want) {
		t.Fatalf("Query order = %v, want %v", fromQuery, want)
	}

	sqlRes, err := e.QuerySQL(sqlQ)
	if err != nil {
		t.Fatal(err)
	}
	var fromSQL []int64
	for _, r := range sqlRes.Rows() {
		fromSQL = append(fromSQL, r.Field("id").Int())
	}
	if fmt.Sprint(fromSQL) != fmt.Sprint(want) {
		t.Fatalf("QuerySQL order = %v, want %v", fromSQL, want)
	}

	rows, err := e.QueryRows(mclQ)
	if err != nil {
		t.Fatal(err)
	}
	if got := collectIDs(rows); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("QueryRows order = %v, want %v", got, want)
	}

	sqlRows, err := e.QuerySQLRows(sqlQ)
	if err != nil {
		t.Fatal(err)
	}
	if got := collectIDs(sqlRows); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("QuerySQLRows order = %v, want %v", got, want)
	}
}

// TestOrderByDeterministicAcrossWorkerCounts runs a warm parallel top-k
// under different scheduler widths and demands byte-identical results
// (acceptance criterion: parallel top-k results are deterministic across
// worker counts).
func TestOrderByDeterministicAcrossWorkerCounts(t *testing.T) {
	const q = `SELECT id, age FROM People ORDER BY age DESC, id LIMIT 20`
	var baseline string
	for _, workers := range []int{1, 2, 8} {
		pool := sched.NewPool(workers)
		e := setupBigOpts(t, 30000, WithScheduler(pool))
		if _, err := e.Query(`for { p <- People } yield count p.id`); err != nil {
			t.Fatal(err)
		}
		res, err := e.QuerySQL(q)
		if err != nil {
			t.Fatal(err)
		}
		rendered := res.String()
		if baseline == "" {
			baseline = rendered
		} else if rendered != baseline {
			t.Fatalf("workers=%d: result differs:\n%s\nvs\n%s", workers, rendered, baseline)
		}
		pool.Close()
	}
}

// TestOrderByLimitParams proves LIMIT $1 stays plan-cache-friendly: one
// prepared statement serves different bounds.
func TestOrderByLimitParams(t *testing.T) {
	e := setupBig(t, 1000)
	p, err := e.Prepare(`for { p <- People } yield bag p.id order by p.id limit $n`)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{1, 3, 7} {
		res, err := p.Run(Named("n", n))
		if err != nil {
			t.Fatal(err)
		}
		if int64(res.Len()) != n {
			t.Fatalf("limit $n=%d returned %d rows", n, res.Len())
		}
		for i, r := range res.Rows() {
			if r.Int() != int64(i+1) {
				t.Fatalf("limit $n=%d row %d = %d", n, i, r.Int())
			}
		}
	}
}

// countingSource counts how many rows its Iterate actually yielded, so
// tests can prove a LIMIT stopped the scan mid-source.
type countingSource struct {
	name    string
	n       int
	yielded int
}

func (s *countingSource) Name() string { return s.name }

func (s *countingSource) Iterate(fields []string, yield func(values.Value) error) error {
	for i := 0; i < s.n; i++ {
		s.yielded++
		row := values.NewRecord(
			values.Field{Name: "id", Val: values.NewInt(int64(i))},
			values.Field{Name: "age", Val: values.NewInt(int64(20 + i%60))},
		)
		if err := yield(row); err != nil {
			return err
		}
	}
	return nil
}

// TestBareLimitStopsProducerMidScan is the early-stop proof: LIMIT 10
// over a 300k-row source must abandon the scan after a handful of
// batches, not read the source to the end.
func TestBareLimitStopsProducerMidScan(t *testing.T) {
	const total = 300_000
	src := &countingSource{name: "Big", n: total}
	e := New()
	typ, err := sdg.ParseSchema("Record(Att(id, int), Att(age, int))")
	if err != nil {
		t.Fatal(err)
	}
	desc := sdg.DefaultDescription("Big", sdg.FormatTable, "", sdg.Bag(typ))
	if err := e.Internal().RegisterSource(desc, src); err != nil {
		t.Fatal(err)
	}

	res, err := e.Query(`for { p <- Big } yield bag p.id limit 10`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 10 {
		t.Fatalf("limit 10 returned %d rows", res.Len())
	}
	if src.yielded >= total/10 {
		t.Fatalf("producer yielded %d of %d rows — limit did not stop the scan", src.yielded, total)
	}

	// The cursor path stops producers the same way.
	src2 := &countingSource{name: "Big2", n: total}
	desc2 := sdg.DefaultDescription("Big2", sdg.FormatTable, "", sdg.Bag(typ))
	if err := e.Internal().RegisterSource(desc2, src2); err != nil {
		t.Fatal(err)
	}
	rows, err := e.QueryRows(`for { p <- Big2 } yield bag p.id limit 7`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	if n != 7 {
		t.Fatalf("cursor limit 7 returned %d rows", n)
	}
	if src2.yielded >= total/10 {
		t.Fatalf("cursor producer yielded %d of %d rows — limit did not stop the scan", src2.yielded, total)
	}
}

// TestBareLimitColdCSVEarlyStop drives the real cold-CSV path: the
// first-touch scan of a 300k-row file must stop mid-file under LIMIT.
func TestBareLimitColdCSVEarlyStop(t *testing.T) {
	e := setupBig(t, 300_000)
	res, err := e.QuerySQL(`SELECT id FROM People LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 10 {
		t.Fatalf("limit 10 returned %d rows", res.Len())
	}
	// The aborted first touch must not have poisoned the cache: a full
	// count still sees every row.
	cnt, err := e.Query(`for { p <- People } yield count p.id`)
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Value().Int() != 300_000 {
		t.Fatalf("count after aborted scan = %d", cnt.Value().Int())
	}
}

// TestOrderedSetStream checks DISTINCT + ORDER BY + LIMIT end to end:
// dedup applies before the bound, order survives the cursor.
func TestOrderedSetStream(t *testing.T) {
	e := setupBig(t, 5000)
	rows, err := e.QuerySQLRows(`SELECT DISTINCT age FROM People ORDER BY age DESC LIMIT 4`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var ages []int64
	for rows.Next() {
		var age int64
		if err := rows.Scan(&age); err != nil {
			t.Fatal(err)
		}
		ages = append(ages, age)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ages) != fmt.Sprint([]int64{79, 78, 77, 76}) {
		t.Fatalf("distinct ordered ages = %v", ages)
	}
}

// TestOrderedMatchesReferenceExecutor cross-checks the JIT ordered fold
// against the reference executor on the same data.
func TestOrderedMatchesReferenceExecutor(t *testing.T) {
	rowsData := make([]Value, 0, 500)
	for i := 0; i < 500; i++ {
		rowsData = append(rowsData, NewRecord(
			Field{Name: "id", Val: NewInt(int64(i))},
			Field{Name: "age", Val: NewInt(int64(i * 37 % 83))},
		))
	}
	const q = `for { p <- People } yield bag (id := p.id) order by p.age, p.id desc limit 9 offset 4`
	var outs []string
	for _, opt := range [][]Option{nil, {WithReferenceExecutor()}} {
		e := New(opt...)
		if err := e.RegisterValues("People", rowsData, "Record(Att(id, int), Att(age, int))"); err != nil {
			t.Fatal(err)
		}
		res, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, res.String())
	}
	if outs[0] != outs[1] {
		t.Fatalf("executors disagree:\njit:       %s\nreference: %s", outs[0], outs[1])
	}
	if !strings.Contains(outs[0], "id := ") {
		t.Fatalf("unexpected result shape: %s", outs[0])
	}
}

var _ algebra.Source = (*countingSource)(nil)
