package jit

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strconv"
	"testing"

	"vida/internal/algebra"
	"vida/internal/mcl"
	"vida/internal/sched"
	"vida/internal/values"
	"vida/internal/vec"
)

// This file is the differential join-correctness harness: a seeded
// generator producing random join scenarios — schemas, key types, key
// distributions (uniform, skewed, all-null, all-duplicate, empty build
// or probe side), filters that force build-side compaction, multi-column
// keys, expression keys (slot, kernel and boxed-fallback key columns),
// boxed sides, string columns served as Str or as StrDict over one
// shared or a per-window dictionary — asserting that the
// morsel-parallel join, the serial jit join and the row interpreter
// (algebra.Reference) all agree, across worker counts. List
// results make the comparison order-sensitive, so agreement here means
// byte-identical output, not just equal multisets.

// diffTable is an in-memory table serving all three scan contracts: record
// iteration for the reference executor, batch iteration for the
// serial jit pipeline, and concurrent range scans for the morsel-parallel
// paths — the same shapes CSV scans and cache windows produce. Columns
// are typed (with validity masks) or boxed, per table, so both the
// tag-dispatched and the generic hash paths get fuzzed.
type diffTable struct {
	name   string
	fields []string
	cols   []vec.Col // full-length column storage, immutable once built
	n      int
	boxed  bool // serve boxed columns instead of typed windows
	boxOdd bool // serve every other window boxed, the rest typed
	strs   int  // how Str columns are served: strPlain, strSharedDict, strWindowDict or strSplitDict
	dicts  [][]string
	late   [][]string // strSplitDict: the dictionaries of the second half
}

// How a diffTable serves its Str columns.
const (
	strPlain      = iota // typed Str windows
	strSharedDict        // StrDict windows over one dictionary per column
	strWindowDict        // StrDict windows, each with a dictionary of its own
	// StrDict windows over one dictionary, and from the middle row on
	// over a second one holding an extra string ("!", which sorts before
	// every generated one and so shifts their codes): the dictionary
	// changes mid-scan, as an extended cache column's does when a new
	// string re-encodes it.
	strSplitDict
)

// serveStrs sets how the table serves its Str columns and returns it.
func (s *diffTable) serveStrs(mode int) *diffTable {
	s.strs, s.dicts, s.late = mode, make([][]string, len(s.cols)), make([][]string, len(s.cols))
	for c := range s.cols {
		if s.cols[c].Tag == vec.Str {
			s.dicts[c] = sortedDistinct(s.cols[c].Strs)
			s.late[c] = sortedDistinct(append([]string{"!"}, s.cols[c].Strs...))
		}
	}
	return s
}

// sortedDistinct is the dictionary of strs: its distinct values, sorted.
func sortedDistinct(strs []string) []string {
	dict := append([]string(nil), strs...)
	sort.Strings(dict)
	return slices.Compact(dict)
}

// dictWindow encodes rows [lo,hi) of the Str column col over dict, which
// holds every payload of the window (null rows included, so every code
// indexes the dictionary).
func dictWindow(col *vec.Col, lo, hi int, dict []string) vec.Col {
	w := vec.Col{Tag: vec.StrDict, Dict: dict, Codes: make([]uint32, 0, hi-lo)}
	for _, v := range col.Strs[lo:hi] {
		w.Codes = append(w.Codes, uint32(sort.SearchStrings(dict, v)))
	}
	return w
}

func (s *diffTable) Name() string { return s.name }

// Iterate implements algebra.Source for the row-at-a-time executors.
func (s *diffTable) Iterate(fields []string, yield func(values.Value) error) error {
	for i := 0; i < s.n; i++ {
		fs := make([]values.Field, len(s.fields))
		for c := range s.fields {
			fs[c] = values.Field{Name: s.fields[c], Val: s.cols[c].Value(i)}
		}
		if err := yield(values.NewRecord(fs...)); err != nil {
			return err
		}
	}
	return nil
}

// colWindow serves rows [lo,hi) of column c as a batch column, boxed
// when boxed is set.
func (s *diffTable) colWindow(c, lo, hi int, boxed bool) vec.Col {
	col := s.cols[c]
	if boxed {
		out := vec.Col{Tag: vec.Boxed, Boxed: make([]values.Value, 0, hi-lo)}
		for i := lo; i < hi; i++ {
			out.Boxed = append(out.Boxed, col.Value(i))
		}
		return out
	}
	w := vec.Col{Tag: col.Tag}
	switch col.Tag {
	case vec.Int64:
		w.Ints = col.Ints[lo:hi]
	case vec.Float64:
		w.Floats = col.Floats[lo:hi]
	case vec.Str:
		switch s.strs {
		case strSharedDict:
			w = dictWindow(&col, lo, hi, s.dicts[c])
		case strWindowDict:
			w = dictWindow(&col, lo, hi, sortedDistinct(col.Strs[lo:hi]))
		case strSplitDict:
			dict := s.dicts[c]
			if lo >= s.n/2 {
				dict = s.late[c]
			}
			w = dictWindow(&col, lo, hi, dict)
		default:
			w.Strs = col.Strs[lo:hi]
		}
	default:
		w.Tag = vec.Boxed
		w.Boxed = col.Boxed[lo:hi]
	}
	if col.Nulls != nil {
		w.Nulls = col.Nulls[lo:hi]
	}
	return w
}

func (s *diffTable) fieldIdx(fields []string) []int {
	idx := make([]int, len(fields))
	for i, f := range fields {
		idx[i] = -1
		for c, have := range s.fields {
			if have == f {
				idx[i] = c
			}
		}
		if idx[i] < 0 {
			panic("diffTable: unknown field " + f)
		}
	}
	return idx
}

// IterateBatches implements BatchSource.
func (s *diffTable) IterateBatches(fields []string, batchSize int, yield func(*vec.Batch) error) error {
	scan, n, _ := s.OpenRange(fields)
	return scan(0, n, batchSize, yield)
}

// OpenRange implements RangeBatchSource. The scan serves window slices
// of the immutable column storage and is safe for concurrent calls over
// disjoint (or even overlapping) ranges.
func (s *diffTable) OpenRange(fields []string) (func(lo, hi, batchSize int, yield func(*vec.Batch) error) error, int, bool) {
	idx := s.fieldIdx(fields)
	return func(lo, hi, batchSize int, yield func(*vec.Batch) error) error {
		var b vec.Batch
		for at := lo; at < hi; at += batchSize {
			end := at + batchSize
			if end > hi {
				end = hi
			}
			b.Cols = b.Cols[:0]
			boxed := s.boxed || s.boxOdd && (at/batchSize)%2 == 1
			for _, c := range idx {
				b.Cols = append(b.Cols, s.colWindow(c, at, end, boxed))
			}
			b.N = end - at
			b.Sel = nil
			if err := yield(&b); err != nil {
				return err
			}
		}
		return nil
	}, s.n, true
}

// joinScenario is one generated differential case.
type joinScenario struct {
	desc   string
	cat    algebra.MapCatalog
	plan   *algebra.Reduce
	nL, nR int
}

// Key kinds. The first three serve either side; a probe against an
// Int64 build key may also draw keyFloatImage or keyBoxedMix, the probe
// columns the directory maps through values.Equal.
const (
	keyInt        = iota
	keyHalf       // Float64 key/2
	keyStr        // Str "k<key>"
	keyFloatImage // Float64 key, some rows key+0.5, NaN or −0
	keyBoxedMix   // Boxed int, float image, key+0.5, string, NaN or −0
)

// keyDomains place the integer keys: a draw d becomes off + step·d.
// They cover both sides of the directory's rule: dense from 0, dense
// over negative keys, sparse with an offset, the lower ±2^53 bound
// from inside, and the upper one from inside (small draws) or across
// it (large draws).
var keyDomains = []struct{ off, step int64 }{
	{0, 1},
	{-700, 1},
	{1_000_000, 1000},
	{-(1 << 53), 1},
	{1<<53 - 1000, 1},
}

// genKeyCol fills n keys of the chosen kind and distribution over the
// domain dom. dist: 0=uniform small domain (many matches), 1=uniform
// large domain (few matches), 2=skewed (~70% one hot key),
// 3=all-duplicate, plus an independent null fraction (1.0 = all-null).
func genKeyCol(rng *rand.Rand, n int, keyKind, dist, dom int, nullFrac float64) vec.Col {
	domain := 1 + rng.Intn(16)
	if dist == 1 {
		domain = 1000 + rng.Intn(1000)
	}
	draw := func() int64 {
		switch dist {
		case 2:
			if rng.Float64() < 0.7 {
				return 7
			}
			return int64(rng.Intn(domain))
		case 3:
			return 42
		default:
			return int64(rng.Intn(domain))
		}
	}
	d := keyDomains[dom]
	keyAt := func() int64 { return d.off + d.step*draw() }
	negZero := math.Copysign(0, -1)
	col := vec.Col{}
	switch keyKind {
	case keyInt:
		col.Tag = vec.Int64
		for i := 0; i < n; i++ {
			col.Ints = append(col.Ints, keyAt())
		}
	case keyHalf:
		col.Tag = vec.Float64
		for i := 0; i < n; i++ {
			col.Floats = append(col.Floats, float64(keyAt())*0.5)
		}
	case keyStr:
		col.Tag = vec.Str
		for i := 0; i < n; i++ {
			col.Strs = append(col.Strs, "k"+strconv.FormatInt(keyAt(), 10))
		}
	case keyFloatImage:
		col.Tag = vec.Float64
		for i := 0; i < n; i++ {
			f := float64(keyAt())
			switch rng.Intn(10) {
			case 0:
				f += 0.5
			case 1:
				f = math.NaN()
			case 2:
				f = negZero
			}
			col.Floats = append(col.Floats, f)
		}
	default:
		col.Tag = vec.Boxed
		for i := 0; i < n; i++ {
			k := keyAt()
			v := []values.Value{values.NewInt(k), values.NewFloat(float64(k)), values.NewFloat(float64(k) + 0.5),
				values.NewString(strconv.FormatInt(k, 10)), values.NewFloat(math.NaN()), values.NewFloat(negZero)}[rng.Intn(6)]
			col.Boxed = append(col.Boxed, v)
		}
	}
	nulls := make([]bool, n)
	for i := range nulls {
		nulls[i] = rng.Float64() < nullFrac
		if nulls[i] && col.Tag == vec.Boxed {
			col.Boxed[i] = values.Null // a boxed column holds its nulls
		}
	}
	if col.Tag != vec.Boxed && slices.Contains(nulls, true) {
		col.Nulls = nulls
	}
	return col
}

func genIntCol(rng *rand.Rand, n, domain int) vec.Col {
	col := vec.Col{Tag: vec.Int64}
	for i := 0; i < n; i++ {
		col.Ints = append(col.Ints, int64(rng.Intn(domain)))
	}
	return col
}

// genStrCol draws n strings from a small domain, a nullFrac share of
// them null.
func genStrCol(rng *rand.Rand, n int, nullFrac float64) vec.Col {
	col := vec.Col{Tag: vec.Str}
	nulls := make([]bool, n)
	for i := 0; i < n; i++ {
		col.Strs = append(col.Strs, "v"+strconv.Itoa(rng.Intn(10)))
		nulls[i] = rng.Float64() < nullFrac
	}
	if slices.Contains(nulls, true) {
		col.Nulls = nulls
	}
	return col
}

// genJoinScenario draws one random join case.
func genJoinScenario(rng *rand.Rand) joinScenario {
	sizes := []int{0, 1, 7, 120, 700, 1500}
	nL := sizes[rng.Intn(len(sizes))]
	nR := sizes[rng.Intn(len(sizes))]
	keyR := rng.Intn(3) // keyInt, keyHalf or keyStr
	keyL := keyR
	if keyR == keyInt {
		keyL = []int{keyInt, keyFloatImage, keyBoxedMix}[rng.Intn(3)]
	}
	dom := rng.Intn(len(keyDomains))
	distL := rng.Intn(4)
	distR := rng.Intn(4)
	nullFrac := []float64{0, 0, 0.15, 1.0}[rng.Intn(4)]
	keySet := rng.Intn(3)  // 0: k, 1: k and k2, 2: k2 alone
	k2Shape := rng.Intn(4) // index into k2Keys
	buildFilter := rng.Intn(3) == 0
	boxedL := rng.Intn(4) == 0
	boxedR := rng.Intn(4) == 0
	monoidName := []string{"bag", "list", "sum", "count"}[rng.Intn(4)]
	strsL, strsR := rng.Intn(3), rng.Intn(3)

	lFields := []string{"k", "a", "k2", "s"}
	rFields := []string{"k", "b", "k2", "s"}
	lCols := []vec.Col{genKeyCol(rng, nL, keyL, distL, dom, nullFrac), genIntCol(rng, nL, 100), genKeyCol(rng, nL, keyInt, 0, 0, nullFrac), genStrCol(rng, nL, 0.2)}
	rCols := []vec.Col{genKeyCol(rng, nR, keyR, distR, dom, nullFrac), genIntCol(rng, nR, 100), genKeyCol(rng, nR, keyInt, 0, 0, nullFrac), genStrCol(rng, nR, 0.2)}
	left := (&diffTable{name: "L", fields: lFields, cols: lCols, n: nL, boxed: boxedL}).serveStrs(strsL)
	right := (&diffTable{name: "R", fields: rFields, cols: rCols, n: nR, boxed: boxedR}).serveStrs(strsR)

	// The k2 key pair comes in four shapes: slot columns, kernel
	// expressions on both sides, a slot against a kernel, and a
	// comparison no kernel covers (the boxed-fallback key column).
	k2Keys := [][2]string{{"x.k2", "y.k2"}, {"x.k2 * 2", "y.k2 + y.k2"}, {"x.k2", "y.k2 * 1"}, {"x.k2 > 3", "y.k2 > 3"}}
	k2 := algebra.EquiPair{LExpr: mcl.MustParse(k2Keys[k2Shape][0]), RExpr: mcl.MustParse(k2Keys[k2Shape][1])}
	on := []algebra.EquiPair{{LExpr: mcl.MustParse("x.k"), RExpr: mcl.MustParse("y.k")}}
	switch keySet {
	case 1:
		on = append(on, k2)
	case 2:
		on = []algebra.EquiPair{k2}
	}
	join := &algebra.Join{
		L:  &algebra.Scan{Source: "L", Var: "x", Fields: lFields},
		R:  &algebra.Scan{Source: "R", Var: "y", Fields: rFields},
		On: on,
	}
	if buildFilter {
		// A selective build-side filter drives retainForBuild through its
		// compaction path (survivors and their key columns re-indexed).
		join.R.(*algebra.Scan).Filter = mcl.MustParse("y.b < 20")
	}
	var head mcl.Expr
	switch monoidName {
	case "sum":
		head = mcl.MustParse("x.a + y.b")
	case "count":
		head = mcl.MustParse("x.a")
	default:
		head = mcl.MustParse("(k := x.k, a := x.a, b := y.b, s := x.s, t := y.s, u := y.k)")
	}
	return joinScenario{
		desc: fmt.Sprintf("nL=%d nR=%d keyL=%d keyR=%d dom=%d distL=%d distR=%d nulls=%.2f keys=%d k2=%d filter=%v boxedL=%v boxedR=%v strsL=%d strsR=%d m=%s",
			nL, nR, keyL, keyR, dom, distL, distR, nullFrac, keySet, k2Shape, buildFilter, boxedL, boxedR, strsL, strsR, monoidName),
		cat:  algebra.MapCatalog{"L": left, "R": right},
		plan: &algebra.Reduce{M: mustMonoid(monoidName), Head: head, Input: join},
		nL:   nL, nR: nR,
	}
}

// fuzzSeed returns the deterministic seed (override: VIDA_JOIN_FUZZ_SEED).
func fuzzSeed(t *testing.T) int64 {
	if s := os.Getenv("VIDA_JOIN_FUZZ_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad VIDA_JOIN_FUZZ_SEED %q: %v", s, err)
		}
		return v
	}
	return 0xD1FF
}

func TestJoinDifferentialFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(fuzzSeed(t)))
	pool := sched.NewPool(4)
	defer pool.Close()
	cases := 30
	if testing.Short() {
		cases = 8
	}
	var ct Counters
	for ci := 0; ci < cases; ci++ {
		sc := genJoinScenario(rng)
		want, err := algebra.Reference{}.Run(sc.plan, sc.cat)
		if err != nil {
			t.Fatalf("case %d (%s): reference: %v", ci, sc.desc, err)
		}
		for _, w := range []int{1, 2, 4, 8} {
			for _, bs := range []int{1, 7, 1024} {
				ex := Executor{Opts: Options{Workers: w, BatchSize: bs, ParallelThreshold: 1, Pool: pool, Counters: &ct}}
				got, err := ex.Run(sc.plan, sc.cat)
				if err != nil {
					t.Fatalf("case %d (%s) w=%d bs=%d: %v", ci, sc.desc, w, bs, err)
				}
				if !values.Equal(got, want) {
					t.Fatalf("case %d (%s) w=%d bs=%d diverged:\n got %v\nwant %v", ci, sc.desc, w, bs, got, want)
				}
			}
		}
	}
	// The full set of cases must reach both index shapes.
	if dense, all := ct.JoinDenseFolds.Load(), ct.JoinFolds.Load(); !testing.Short() && (dense == 0 || dense == all) {
		t.Fatalf("%d of %d joins sealed a directory: the cases miss an index shape", dense, all)
	}
}

// TestJoinNullKeysNeverMatch pins "null never matches null" across every
// executor and every jit configuration, including the compacted-build
// path: a build side whose filter keeps few survivors exercises
// retainForBuild's Compact re-indexing, and the all-null key columns on
// both sides must still produce zero matches — the validity mask, not
// the (zeroed) payload, decides.
func TestJoinNullKeysNeverMatch(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	n := 600
	nullKeys := func(n int) vec.Col {
		col := vec.Col{Tag: vec.Int64, Ints: make([]int64, n), Nulls: make([]bool, n)}
		for i := range col.Nulls {
			col.Nulls[i] = true // payload stays 0 — equal across all rows
		}
		return col
	}
	seq := func(n int) vec.Col {
		col := vec.Col{Tag: vec.Int64}
		for i := 0; i < n; i++ {
			col.Ints = append(col.Ints, int64(i))
		}
		return col
	}
	left := &diffTable{name: "L", fields: []string{"k", "a"}, cols: []vec.Col{nullKeys(n), seq(n)}, n: n}
	right := &diffTable{name: "R", fields: []string{"k", "b"}, cols: []vec.Col{nullKeys(n), seq(n)}, n: n}
	cat := algebra.MapCatalog{"L": left, "R": right}
	plan := &algebra.Reduce{
		M:    mustMonoid("count"),
		Head: mcl.MustParse("x.a"),
		Input: &algebra.Join{
			L: &algebra.Scan{Source: "L", Var: "x", Fields: []string{"k", "a"}},
			// The sparse filter (survival < 1/4) forces Compact on every
			// retained build batch.
			R:  &algebra.Scan{Source: "R", Var: "y", Fields: []string{"k", "b"}, Filter: mcl.MustParse("y.b % 7 = 0")},
			On: []algebra.EquiPair{{LExpr: mcl.MustParse("x.k"), RExpr: mcl.MustParse("y.k")}},
		},
	}
	check := func(name string, got values.Value, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Int() != 0 {
			t.Fatalf("%s: null keys matched: count = %v", name, got)
		}
	}
	got, err := algebra.Reference{}.Run(plan, cat)
	check("reference", got, err)
	got, err = (Executor{Opts: Options{Workers: 1}}).Run(plan, cat)
	check("jit serial", got, err)
	got, err = (Executor{Opts: Options{Workers: 4, BatchSize: 64, ParallelThreshold: 1, Pool: pool}}).Run(plan, cat)
	check("jit parallel", got, err)
}
