package optimizer

import (
	"math/rand"
	"strings"
	"testing"

	"vida/internal/algebra"
	"vida/internal/jit"
	"vida/internal/mcl"
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
		default:
			panic("bad pair")
		}
		fs = append(fs, values.Field{Name: name, Val: v})
	}
	return values.NewRecord(fs...)
}

func testCatalog(r *rand.Rand, nBig, nSmall int) algebra.MapCatalog {
	big := make([]values.Value, nBig)
	for i := range big {
		big[i] = rec("id", i, "grp", r.Intn(10), "v", r.Intn(100))
	}
	small := make([]values.Value, nSmall)
	for i := range small {
		small[i] = rec("gid", i%10, "label", "g", "w", r.Intn(50))
	}
	return algebra.MapCatalog{
		"Big":   &algebra.SliceSource{SrcName: "Big", Rows: big},
		"Small": &algebra.SliceSource{SrcName: "Small", Rows: small},
	}
}

func translate(t *testing.T, src string, sources map[string]bool) *algebra.Reduce {
	t.Helper()
	e, err := mcl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := algebra.Translate(mcl.Normalize(e), sources)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func srcSet(names ...string) map[string]bool {
	out := map[string]bool{}
	for _, n := range names {
		out[n] = true
	}
	return out
}

func TestOptimizeProducesJoin(t *testing.T) {
	plan := translate(t, `for { b <- Big, s <- Small, b.grp = s.gid, b.v > 50 } yield sum s.w`,
		srcSet("Big", "Small"))
	opt := Optimize(plan, &StaticCostModel{Rows: map[string]int64{"Big": 10000, "Small": 10}})
	s := algebra.Format(opt)
	if !strings.Contains(s, "Join(") {
		t.Fatalf("no join produced:\n%s", s)
	}
	if strings.Contains(s, "Product") {
		t.Fatalf("product survived:\n%s", s)
	}
	// Big must drive (left), Small builds (right).
	if !strings.Contains(s, "Join(b.grp = s.gid)") {
		t.Fatalf("join keys wrong:\n%s", s)
	}
}

func TestOptimizePushesFilterIntoScan(t *testing.T) {
	plan := translate(t, `for { b <- Big, b.v > 50, b.grp = 3 } yield count b`, srcSet("Big"))
	opt := Optimize(plan, nil)
	s := algebra.Format(opt)
	if !strings.Contains(s, "filter=") {
		t.Fatalf("scan filter not installed:\n%s", s)
	}
	if strings.Contains(s, "Select(") {
		t.Fatalf("single-source filters should move into the scan:\n%s", s)
	}
}

func TestOptimizePrunesProjection(t *testing.T) {
	plan := translate(t, `for { b <- Big, b.v > 50 } yield sum b.v`, srcSet("Big"))
	opt := Optimize(plan, nil)
	s := algebra.Format(opt)
	if !strings.Contains(s, "fields=[v]") {
		t.Fatalf("projection not pruned to [v]:\n%s", s)
	}
}

func TestOptimizeWholeRecordKeepsAllFields(t *testing.T) {
	plan := translate(t, `for { b <- Big } yield bag b`, srcSet("Big"))
	opt := Optimize(plan, nil)
	s := algebra.Format(opt)
	if strings.Contains(s, "fields=") {
		t.Fatalf("whole-record use must not prune:\n%s", s)
	}
}

func TestOptimizeCountOnlyUsesCheapestField(t *testing.T) {
	plan := translate(t, `for { b <- Big } yield count b`, srcSet("Big"))
	opt := Optimize(plan, &StaticCostModel{Cheapest: map[string]string{"Big": "id"}})
	s := algebra.Format(opt)
	// "count b" uses b whole? count's Unit ignores the value but the head
	// references b... head = b means usedWhole. Accept either pruned or
	// not — assert it still runs; the real check is in the count-star
	// variant below.
	_ = s
	plan2 := translate(t, `for { b <- Big } yield count 1`, srcSet("Big"))
	opt2 := Optimize(plan2, &StaticCostModel{Cheapest: map[string]string{"Big": "id"}})
	s2 := algebra.Format(opt2)
	if !strings.Contains(s2, "fields=[id]") {
		t.Fatalf("count-star scan should read one cheap field:\n%s", s2)
	}
}

func TestOptimizeDriverSelection(t *testing.T) {
	// The expensive big source must be the stream (left), regardless of
	// qualifier order in the query.
	plan := translate(t, `for { s <- Small, b <- Big, b.grp = s.gid } yield count 1`,
		srcSet("Big", "Small"))
	opt := Optimize(plan, &StaticCostModel{Rows: map[string]int64{"Big": 100000, "Small": 10}})
	var join *algebra.Join
	var walk func(algebra.Plan)
	walk = func(p algebra.Plan) {
		if j, ok := p.(*algebra.Join); ok {
			join = j
		}
		for _, in := range p.Inputs() {
			walk(in)
		}
	}
	walk(opt)
	if join == nil {
		t.Fatalf("no join:\n%s", algebra.Format(opt))
	}
	l, ok := join.L.(*algebra.Scan)
	if !ok || l.Source != "Big" {
		t.Fatalf("driver is not Big:\n%s", algebra.Format(opt))
	}
}

// TestOptimizePreservesResults is the core property: optimization must
// never change query results.
func TestOptimizePreservesResults(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	queries := []string{
		`for { b <- Big, s <- Small, b.grp = s.gid, b.v > 50 } yield sum s.w`,
		`for { b <- Big, b.v > 90 } yield set b.grp`,
		`for { b <- Big, s <- Small, b.grp = s.gid, s.w > 25, b.v % 2 = 0 } yield count 1`,
		`for { s <- Small, b <- Big, b.grp = s.gid } yield bag (w := s.w, v := b.v)`,
		`for { b <- Big, x := b.v * 2, x > 100 } yield list x`,
		`for { b <- Big, s <- Small, b.grp = s.gid, b.v > s.w } yield count 1`,
		`for { b <- Big } yield avg b.v`,
	}
	for trial := 0; trial < 10; trial++ {
		cat := testCatalog(r, 50+r.Intn(100), 10+r.Intn(20))
		cm := &StaticCostModel{Rows: map[string]int64{"Big": 100, "Small": 15}}
		for _, q := range queries {
			plan := translate(t, q, srcSet("Big", "Small"))
			want, err := algebra.Reference{}.Run(plan, cat)
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			opt := Optimize(plan, cm)
			got, err := algebra.Reference{}.Run(opt, cat)
			if err != nil {
				t.Fatalf("optimized %q: %v", q, err)
			}
			if !values.Equal(got, want) {
				t.Fatalf("%q: optimization changed result:\nwas:  %v\nnow:  %v\nplan:\n%s",
					q, want, got, algebra.Format(opt))
			}
			// And the JIT engine agrees on the optimized plan.
			gotJIT, err := jit.Executor{}.Run(opt, cat)
			if err != nil {
				t.Fatalf("jit on optimized %q: %v", q, err)
			}
			if !values.Equal(gotJIT, want) {
				t.Fatalf("%q: jit on optimized plan diverged: %v vs %v", q, gotJIT, want)
			}
		}
	}
}

func TestOptimizeDoesNotMutateInput(t *testing.T) {
	plan := translate(t, `for { b <- Big, b.v > 50 } yield sum b.v`, srcSet("Big"))
	before := algebra.Format(plan)
	Optimize(plan, nil)
	after := algebra.Format(plan)
	if before != after {
		t.Fatalf("input plan mutated:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

func TestAdaptiveOptimizeUsesMeasuredSelectivity(t *testing.T) {
	// Big has a filter that passes almost nothing; Small has none. With
	// static defaults Big (10k rows × 0.25) still looks biggest and
	// drives; the measured selectivity (≈0) should flip the driver to
	// Small... but only if sampling actually ran. We assert the join
	// order changes between static and adaptive optimization.
	r := rand.New(rand.NewSource(3))
	big := make([]values.Value, 2000)
	for i := range big {
		big[i] = rec("id", i, "grp", r.Intn(10), "v", r.Intn(100))
	}
	small := make([]values.Value, 500)
	for i := range small {
		small[i] = rec("gid", i%10, "w", r.Intn(50))
	}
	cat := algebra.MapCatalog{
		"Big":   &algebra.SliceSource{SrcName: "Big", Rows: big},
		"Small": &algebra.SliceSource{SrcName: "Small", Rows: small},
	}
	cm := &StaticCostModel{Rows: map[string]int64{"Big": 2000, "Small": 500}}
	q := `for { b <- Big, s <- Small, b.grp = s.gid, b.v > 99 } yield count 1`
	plan := translate(t, q, srcSet("Big", "Small"))

	staticPlan := Optimize(plan, cm)
	adaptivePlan, err := AdaptiveOptimize(plan, cat, cm)
	if err != nil {
		t.Fatal(err)
	}
	driverOf := func(p *algebra.Reduce) string {
		var join *algebra.Join
		var walk func(algebra.Plan)
		walk = func(pl algebra.Plan) {
			if j, ok := pl.(*algebra.Join); ok {
				join = j
			}
			for _, in := range pl.Inputs() {
				walk(in)
			}
		}
		walk(p)
		if join == nil {
			return ""
		}
		if s, ok := join.L.(*algebra.Scan); ok {
			return s.Source
		}
		return ""
	}
	if driverOf(staticPlan) != "Big" {
		t.Fatalf("static driver = %s, want Big", driverOf(staticPlan))
	}
	if driverOf(adaptivePlan) != "Small" {
		t.Fatalf("adaptive driver = %s, want Small (measured selectivity ~1%%):\n%s",
			driverOf(adaptivePlan), algebra.Format(adaptivePlan))
	}
	// Both must return identical results.
	want, err := algebra.Reference{}.Run(staticPlan, cat)
	if err != nil {
		t.Fatal(err)
	}
	got, err := algebra.Reference{}.Run(adaptivePlan, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !values.Equal(got, want) {
		t.Fatalf("adaptive plan diverged: %v vs %v", got, want)
	}
}

func TestMeasureSelectivity(t *testing.T) {
	rows := make([]values.Value, 100)
	for i := range rows {
		rows[i] = rec("v", i)
	}
	cat := algebra.MapCatalog{"X": &algebra.SliceSource{SrcName: "X", Rows: rows}}
	s := &algebra.Scan{Source: "X", Var: "x", Filter: mcl.MustParse("x.v < 25")}
	sel, err := MeasureSelectivity(cat, s, 100)
	if err != nil {
		t.Fatal(err)
	}
	if sel < 0.2 || sel > 0.3 {
		t.Fatalf("selectivity = %v, want ~0.25", sel)
	}
	// No filter: selectivity 1.
	s2 := &algebra.Scan{Source: "X", Var: "x"}
	if sel, _ := MeasureSelectivity(cat, s2, 10); sel != 1.0 {
		t.Fatalf("no-filter selectivity = %v", sel)
	}
}

func TestCostModelDefaults(t *testing.T) {
	var m *StaticCostModel
	if m.SourceRows("x") != 1000 {
		t.Fatal("nil model default rows")
	}
	if m.PerTupleCost("x", nil) != 1.0 {
		t.Fatal("nil model default cost")
	}
	if _, ok := m.CheapestField("x"); ok {
		t.Fatal("nil model should have no cheapest field")
	}
}

// TestOptimizeAvoidsCrossProducts is the regression test for the join
// ordering bug where a chain query (A-B, B-C edges, no A-C edge) placed
// the two unconnected scans first, yielding a cross product: ordering
// must follow join-graph connectivity.
func TestOptimizeAvoidsCrossProducts(t *testing.T) {
	plan := translate(t, `for { a <- A, b <- B, c <- C, a.k = b.k, b.j = c.j } yield count 1`,
		srcSet("A", "B", "C"))
	// Make the two endpoint relations the big ones so naive cost ordering
	// would pick them adjacently.
	cm := &StaticCostModel{Rows: map[string]int64{"A": 100000, "B": 10, "C": 90000}}
	opt := Optimize(plan, cm)
	s := algebra.Format(opt)
	if strings.Contains(s, "Product") {
		t.Fatalf("cross product in a connected join graph:\n%s", s)
	}
	if strings.Count(s, "Join(") != 2 {
		t.Fatalf("want 2 joins:\n%s", s)
	}
}

// TestOptimizeDisconnectedGraphStillWorks: genuinely disconnected graphs
// must still plan (with a Product) and compute correctly.
func TestOptimizeDisconnectedGraph(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	cat := testCatalog(r, 20, 5)
	plan := translate(t, `for { b <- Big, s <- Small } yield count 1`, srcSet("Big", "Small"))
	opt := Optimize(plan, nil)
	s := algebra.Format(opt)
	if !strings.Contains(s, "Product") {
		t.Fatalf("disconnected graph needs a product:\n%s", s)
	}
	want, err := algebra.Reference{}.Run(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	got, err := algebra.Reference{}.Run(opt, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !values.Equal(got, want) {
		t.Fatalf("cross product result changed: %v vs %v", got, want)
	}
}
