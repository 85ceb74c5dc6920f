package jit

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vida/internal/algebra"
	"vida/internal/rawcsv"
	"vida/internal/sdg"
	"vida/internal/values"
	"vida/internal/vec"
)

// kernelQueries exercise every staged kernel shape: arithmetic heads
// (int, float, mixed, constant-folded), computed filters against
// constants and against other computed columns, int columns against
// float constants, binds feeding typed extension columns, negation,
// integer division/modulo, string concatenation through the boxed kernel
// loop, computed and boxed ORDER BY keys, constants as broadcast columns,
// boxed heads (conditionals and calls) on fold roots, and HAVING over
// groups under every root shape. Each row pins its plan's staging tally
// (Counters.KernelsVectorized/KernelsBoxed), so no stage silently falls
// back to the boxed row loop. Every stage counts once: scan filters and
// the root predicate, binds, heads, group keys and aggregate inputs, and
// ORDER BY keys and the top-k head.
var kernelQueries = []struct {
	q          string
	vec, boxed int64
}{
	{`for { e <- Employees } yield sum (e.salary * 2.0 + 1.0)`, 1, 0},
	{`for { e <- Employees } yield avg (e.id + e.deptNo)`, 1, 0},
	{`for { e <- Employees } yield count (e.id + 1)`, 1, 0},
	{`for { e <- Employees } yield min (-e.salary)`, 1, 0},
	{`for { e <- Employees } yield sum (e.id % 3)`, 1, 0},
	{`for { e <- Employees } yield sum (e.id / 2)`, 1, 0},
	{`for { e <- Employees } yield sum (e.salary / 4.0)`, 1, 0},
	{`for { e <- Employees } yield max (100 - e.id)`, 1, 0},
	{`for { e <- Employees, e.salary + 10.0 > 95.0 } yield count e`, 2, 0},
	{`for { e <- Employees, e.id * 100 > e.deptNo * 3 } yield count e`, 2, 0},
	{`for { e <- Employees, e.salary * 0.5 > 40.0, e.id + 1 < 4 } yield sum e.salary`, 3, 0},
	{`for { e <- Employees, b := e.id * 3 + 1, b > 5 } yield sum b`, 2, 0},
	{`for { e <- Employees } yield list (e.name + e.name)`, 1, 0},
	{`for { e <- Employees } yield bag (e.id * 2) order by e.salary * 2.0 desc limit 2`, 2, 0},
	{`for { e <- Employees } yield list (e.id - e.deptNo) order by 0 - e.id limit 3`, 2, 0},
	{`for { s <- Sparse, s.v + 1 > 2 } yield count s`, 2, 0},
	{`for { s <- Sparse } yield bag (s.v * 2)`, 1, 0},
	// Broadcast constants: an element head and an ORDER BY key.
	{`for { e <- Employees } yield list "x"`, 1, 0},
	{`for { e <- Employees } yield list e.id order by 1, e.id desc limit 3`, 3, 0},
	// Int columns against float constants, both orientations, over a
	// nullable column too.
	{`for { e <- Employees, e.id > 1.5 } yield count e`, 2, 0},
	{`for { e <- Employees, 2.5 >= e.id } yield sum e.salary`, 2, 0},
	{`for { s <- Sparse, s.v > 1.5 } yield count s`, 2, 0},
	{`for { s <- Sparse, 4.5 >= s.v } yield bag s.k`, 2, 0},
	// A count over a head that cannot fail (a whole record, a slot, a
	// constant), grouped or not, stages no head: the rows are the count.
	{`for { e <- Employees } yield count e`, 1, 0},
	{`for { s <- Sparse } yield count s.v`, 1, 0},
	{`for { e <- Employees } yield count "x"`, 1, 0},
	{`for { s <- Sparse } group by { k := s.v } agg { n := count s, m := count s.k } yield bag (n + m)`, 4, 0},
	// Boxed heads on fold roots: a conditional under sum, a call under min.
	{`for { e <- Employees } yield sum (if e.salary > 95.0 then e.id else 0)`, 0, 1},
	{`for { e <- Employees } yield min abs(e.id - 3)`, 0, 1},
	// A boxed ORDER BY key; a kernel head on a top-k root.
	{`for { e <- Employees } yield list e.name order by (if e.deptNo > 10 then e.salary else 0.0 - e.salary) desc limit 3`, 1, 1},
	{`for { e <- Employees } yield list (e.salary * 2.0) order by e.id desc limit 2`, 2, 0},
	{`for { e <- Employees, e.deptNo > 10 } yield list e.name order by e.salary limit 1`, 3, 0},
	// HAVING (the root predicate) under a top-k, an elements and a quota
	// root.
	{`for { e <- Employees } group by { d := e.deptNo } agg { n := count e, t := sum e.salary } having n > 1 yield list (d := d, t := t) order by t desc limit 2`, 5, 1},
	{`for { e <- Employees } group by { d := e.deptNo } agg { t := sum e.salary } having t > 95.0 yield bag d`, 4, 0},
	{`for { e <- Employees } group by { d := e.deptNo } agg { t := sum e.salary } having t < 150.0 yield list d limit 2`, 4, 0},
}

func sparseCatalog() *schemaCat {
	cat := testCatalog()
	// Sparse carries nulls in a numeric column: kernels must propagate
	// them exactly as mcl.ApplyBinOp (null arithmetic yields null, null
	// comparisons are false).
	cat.MapCatalog["Sparse"] = &algebra.SliceSource{SrcName: "Sparse", Rows: []values.Value{
		rec("k", 1, "v", 2),
		rec("k", 2, "v", values.Null),
		rec("k", 3, "v", 5),
	}}
	cat.descs["Sparse"] = &sdg.Description{Name: "Sparse", Format: sdg.FormatTable, Schema: sdg.Bag(sdg.Record(
		sdg.Attr{Name: "k", Type: sdg.Int},
		sdg.Attr{Name: "v", Type: sdg.Int},
	))}
	return cat
}

// TestVecExprKernelEquivalence pins the kernels to the row-wise
// reference executor on every kernel shape, and each plan's staging
// tally to the table.
func TestVecExprKernelEquivalence(t *testing.T) {
	cat := sparseCatalog()
	for _, kq := range kernelQueries {
		plan := planFor(t, kq.q, cat)
		want, err := algebra.Reference{}.Run(plan, cat)
		if err != nil {
			t.Fatalf("reference %q: %v", kq.q, err)
		}
		var ct Counters
		got, err := Executor{Opts: Options{Counters: &ct}}.Run(plan, cat)
		if err != nil {
			t.Fatalf("kernels %q: %v", kq.q, err)
		}
		if !values.Equal(got, want) {
			t.Fatalf("kernels diverged on %q:\nkernels: %v\nref: %v", kq.q, got, want)
		}
		if v, b := ct.KernelsVectorized.Load(), ct.KernelsBoxed.Load(); v != kq.vec || b != kq.boxed {
			t.Errorf("%q staged %d vectorized, %d boxed; want %d, %d", kq.q, v, b, kq.vec, kq.boxed)
		}
	}
}

// TestVecExprKernelsOnTypedBatches runs the kernel shapes against a
// CSV-backed source (typed int64/float64/string column vectors with a
// validity mask from the empty null token), so the typed kernel loops —
// not just the boxed fallback — are exercised, including the second,
// posmap-served pass.
func TestVecExprKernelsOnTypedBatches(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.csv")
	content := "id,score,name\n1,10.5,ada\n2,,bob\n3,30.25,eve\n4,12.0,dan\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	schema := sdg.Bag(sdg.Record(
		sdg.Attr{Name: "id", Type: sdg.Int},
		sdg.Attr{Name: "score", Type: sdg.Float},
		sdg.Attr{Name: "name", Type: sdg.String},
	))
	desc := sdg.DefaultDescription("M", sdg.FormatCSV, path, schema)
	rd, err := rawcsv.Open(desc)
	if err != nil {
		t.Fatal(err)
	}
	cat := &schemaCat{
		MapCatalog: algebra.MapCatalog{"M": rd},
		descs:      map[string]*sdg.Description{"M": desc},
	}
	queries := []string{
		`for { m <- M } yield sum (m.id * 10 + 1)`,
		`for { m <- M, m.score * 2.0 > 22.0 } yield count m`,
		`for { m <- M } yield bag (m.score + 0.5)`,
		`for { m <- M, m.id + m.id > 3 } yield list (m.name + m.name)`,
		`for { m <- M } yield list m.name order by 0 - m.id limit 2`,
		`for { m <- M, m.id > 1.5 } yield count m`,
		`for { m <- M, 2.5 >= m.id } yield list m.name`,
		`for { m <- M, m.score > 11.5 } yield list m.id`,
		`for { m <- M } yield sum (if m.score > 11.0 then m.id else 0)`,
		`for { m <- M } yield min abs(m.id - 3)`,
		`for { m <- M } yield list m.name order by (if m.id > 2 then m.id else 0 - m.id) desc limit 3`,
		`for { m <- M } yield list (m.id * 2) order by m.name desc limit 3`,
		`for { m <- M, m.id > 1 } yield list m.name order by m.id limit 2`,
		`for { m <- M } group by { big := m.id > 2 } agg { n := count m, t := sum m.id } having t > 3 yield list (big := big, n := n) order by t limit 1`,
		`for { m <- M } group by { big := m.id > 2 } agg { t := sum m.id } having t > 3 yield bag big`,
	}
	// The parallel executor splits the four rows into two-row morsels
	// once the positional map serves ranges (the second pass), so the
	// per-batch stages and the root predicate also run per morsel.
	executors := []Executor{{}, {Opts: Options{Workers: 4, ParallelThreshold: 1, BatchSize: 2}}}
	for _, q := range queries {
		plan := planFor2(t, q, cat)
		want, err := algebra.Reference{}.Run(plan, cat)
		if err != nil {
			t.Fatalf("reference %q: %v", q, err)
		}
		for x, ex := range executors {
			for pass := 0; pass < 2; pass++ {
				got, err := ex.Run(plan, cat)
				if err != nil {
					t.Fatalf("executor %d pass %d %q: %v", x, pass, q, err)
				}
				if !values.Equal(got, want) {
					t.Fatalf("executor %d pass %d diverged on %q:\ngot: %v\nref: %v", x, pass, q, got, want)
				}
			}
		}
	}
}

// TestVecExprDivisionByZero checks the kernels surface the reference
// executor's integer-division error, text for text.
func TestVecExprDivisionByZero(t *testing.T) {
	cat := testCatalog()
	plan := planFor(t, `for { e <- Employees } yield sum (e.id / (e.deptNo - e.deptNo))`, cat)
	_, kerr := Executor{}.Run(plan, cat)
	if kerr == nil || !strings.Contains(kerr.Error(), "division by zero") {
		t.Fatalf("kernel error = %v", kerr)
	}
	_, rerr := algebra.Reference{}.Run(plan, cat)
	if rerr == nil || kerr.Error() != rerr.Error() {
		t.Fatalf("kernel error %q != reference error %q", kerr, rerr)
	}
}

// TestCountOfFallibleHeadErrors: a count folds on the row count only
// over heads that cannot fail; one that can still raises the reference
// executor's error, grouped or not.
func TestCountOfFallibleHeadErrors(t *testing.T) {
	cat := testCatalog()
	for _, q := range []string{
		`for { e <- Employees } yield count (e.id / (e.deptNo - e.deptNo))`,
		`for { e <- Employees } group by { d := e.deptNo } agg { n := count (e.id % 0) } yield bag n`,
	} {
		plan := planFor(t, q, cat)
		_, rerr := algebra.Reference{}.Run(plan, cat)
		_, kerr := Executor{}.Run(plan, cat)
		if rerr == nil || kerr == nil || kerr.Error() != rerr.Error() {
			t.Fatalf("%q: kernel error %v, reference error %v", q, kerr, rerr)
		}
	}
}

// TestHashLiveColMatchesBoxedHash pins the typed hash kernels to
// Value.Hash for every representation, including nulls and selection
// vectors.
func TestHashLiveColMatchesBoxedHash(t *testing.T) {
	b := &vec.Batch{Cols: make([]vec.Col, 5), N: 3, Sel: []int{0, 2}}
	b.Cols[0] = vec.Col{Tag: vec.Int64, Ints: []int64{7, -1, 42}}
	b.Cols[1] = vec.Col{Tag: vec.Float64, Floats: []float64{2.5, 0, math.NaN()}, Nulls: []bool{false, true, false}}
	b.Cols[2] = vec.Col{Tag: vec.Str, Strs: []string{"x", "", "yz"}}
	b.Cols[3] = vec.Col{Tag: vec.Boxed, Boxed: []values.Value{values.NewString("b"), values.Null, values.NewInt(9)}}
	b.Cols[4] = vec.Col{Tag: vec.StrDict, Codes: []uint32{1, 0, 0}, Dict: []string{"a", "b"}, Nulls: []bool{false, false, true}}
	for c := range b.Cols {
		hs, valid := hashLiveCol(&b.Cols[c], b, nil, nil)
		if len(hs) != 2 || len(valid) != 2 {
			t.Fatalf("col %d: %d hashes", c, len(hs))
		}
		for k, i := range b.Sel {
			v := b.Cols[c].Value(i)
			if v.IsNull() {
				if valid[k] {
					t.Fatalf("col %d row %d: null marked valid", c, i)
				}
				continue
			}
			if !valid[k] || hs[k] != v.Hash() {
				t.Fatalf("col %d row %d: hash %d != boxed %d", c, i, hs[k], v.Hash())
			}
		}
	}
}

// TestColValEqualCrossKind checks the key equality used on hash matches
// agrees with values.Equal across representations, and that nulls equal
// only nulls.
func TestColValEqualCrossKind(t *testing.T) {
	ints := &vec.Col{Tag: vec.Int64, Ints: []int64{1, 3}}
	floats := &vec.Col{Tag: vec.Float64, Floats: []float64{1.0, 2.5}}
	strs := &vec.Col{Tag: vec.Str, Strs: []string{"a", "b"}}
	boxed := &vec.Col{Tag: vec.Boxed, Boxed: []values.Value{values.NewInt(1), values.NewString("b")}}
	if !keyEqual(ints, 0, floats, 0) {
		t.Fatal("1 != 1.0 (values.Equal says they match)")
	}
	if keyEqual(ints, 1, floats, 1) {
		t.Fatal("3 == 2.5")
	}
	if !keyEqual(strs, 1, strs, 1) || keyEqual(strs, 0, strs, 1) {
		t.Fatal("string equality broken")
	}
	if !keyEqual(ints, 0, boxed, 0) || !keyEqual(boxed, 1, strs, 1) {
		t.Fatal("boxed/typed equality broken")
	}
	nan := &vec.Col{Tag: vec.Float64, Floats: []float64{math.NaN()}}
	if !keyEqual(nan, 0, nan, 0) {
		t.Fatal("NaN must equal NaN (matching values.Compare)")
	}
	null := &vec.Col{Tag: vec.Int64, Ints: []int64{0}, Nulls: []bool{true}}
	boxedNull := &vec.Col{Tag: vec.Boxed, Boxed: []values.Value{values.Null}}
	if !keyEqual(null, 0, boxedNull, 0) || keyEqual(null, 0, ints, 0) || keyEqual(boxed, 0, boxedNull, 0) {
		t.Fatal("a null key must equal a null key and nothing else")
	}
}

// TestKernelNullConstFilterSurfacesErrors pins a review finding: a
// comparison of a computed expression against a null constant is
// uniformly false, but the computation itself must still run — the row
// engine evaluates both operands before comparing, so its errors (here
// an integer division by zero) must survive vectorization.
func TestKernelNullConstFilterSurfacesErrors(t *testing.T) {
	cat := sparseCatalog()
	plan := planFor(t, `for { e <- Employees, 100 / (e.id - 1) > null } yield bag e.id`, cat)
	_, refErr := algebra.Reference{}.Run(plan, cat)
	if refErr == nil {
		t.Fatal("reference must error (division by zero at e.id = 1)")
	}
	_, kerr := Executor{}.Run(plan, cat)
	if kerr == nil || kerr.Error() != refErr.Error() {
		t.Fatalf("kernel error %v, want %v", kerr, refErr)
	}
	// And when nothing errors, the null comparison filters everything.
	ok := planFor(t, `for { e <- Employees, e.id + 1 > null } yield count e`, cat)
	got, err := Executor{}.Run(ok, cat)
	if err != nil || got.Int() != 0 {
		t.Fatalf("null comparison: got %v, %v", got, err)
	}
}
