package core

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vida/internal/cache"
	"vida/internal/clean"
	"vida/internal/sched"
	"vida/internal/sdg"
	"vida/internal/trace"
	"vida/internal/values"
	"vida/internal/vec"
)

// The append-refresh suite holds one equivalence: whatever happened to
// the file and however Refresh dealt with it, the engine answers exactly
// like a fresh engine registered over the same bytes — and it took the
// cheap path exactly when the change was an append it could extend.

const appendHeader = "id,k,s,f,u\n"

func appendSchema() *sdg.Type {
	return sdg.Bag(sdg.Record(
		sdg.Attr{Name: "id", Type: sdg.Int},
		sdg.Attr{Name: "k", Type: sdg.Int},
		sdg.Attr{Name: "s", Type: sdg.String},
		sdg.Attr{Name: "f", Type: sdg.Float},
		sdg.Attr{Name: "u", Type: sdg.Int}, // never queried: never mapped, never cached
	))
}

// appendTemplates read id, k, s and f between them: a bare count, a
// filtered sum, a group-by on the string column, a top-k and a self-join.
// f holds multiples of 1/8, so sums are exact in any order.
var appendTemplates = []string{
	`for { e <- E } yield sum 1`,
	`for { e <- E, e.k < 50 } yield sum e.f`,
	`for { e <- E } group by { s := e.s } agg { n := sum 1, t := sum e.f } yield list (s := s, n := n, t := t) order by s`,
	`for { e <- E } yield list (id := e.id, f := e.f) order by e.f desc, e.id limit 5`,
	`for { a <- E, b <- E, a.id = b.k, a.k < 20 } yield count 1`,
}

// appendFile is the file under test and the model of its content.
type appendFile struct {
	t       *testing.T
	path    string
	content string
	rng     *rand.Rand
	nextID  int
}

func (f *appendFile) row() string {
	f.nextID++
	return fmt.Sprintf("%d,%d,g%d,%g,%d\n", f.nextID, f.rng.Intn(100), f.rng.Intn(6), float64(f.rng.Intn(800))/8, f.rng.Intn(10))
}

func (f *appendFile) rows(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString(f.row())
	}
	return sb.String()
}

func (f *appendFile) bump() {
	f.t.Helper()
	fi, err := os.Stat(f.path)
	if err != nil {
		f.t.Fatal(err)
	}
	at := fi.ModTime().Add(2 * time.Second)
	if err := os.Chtimes(f.path, at, at); err != nil {
		f.t.Fatal(err)
	}
}

// grow appends tail to the file.
func (f *appendFile) grow(tail string) {
	f.t.Helper()
	fh, err := os.OpenFile(f.path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		f.t.Fatal(err)
	}
	if _, err := fh.WriteString(tail); err != nil {
		f.t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		f.t.Fatal(err)
	}
	f.content += tail
	f.bump()
}

// rewrite replaces the file's content in place.
func (f *appendFile) rewrite(content string) {
	f.t.Helper()
	if err := os.WriteFile(f.path, []byte(content), 0o644); err != nil {
		f.t.Fatal(err)
	}
	f.content = content
	f.bump()
}

// rename replaces the file atomically, as a writer that builds a new
// version beside it would.
func (f *appendFile) rename(content string) {
	f.t.Helper()
	tmp := f.path + ".next"
	if err := os.WriteFile(tmp, []byte(content), 0o644); err != nil {
		f.t.Fatal(err)
	}
	if err := os.Rename(tmp, f.path); err != nil {
		f.t.Fatal(err)
	}
	f.content = content
	f.bump()
}

// dataLines returns the non-empty lines after the header.
func dataLines(content string) []string {
	var out []string
	for _, l := range strings.Split(strings.TrimPrefix(content, appendHeader), "\n") {
		if l != "" {
			out = append(out, l)
		}
	}
	return out
}

// cachedColumnsParse reports whether a data line parses for the four
// columns the templates read (and therefore cache).
func cachedColumnsParse(line string) bool {
	fs := strings.Split(line, ",")
	if len(fs) < 4 {
		return false
	}
	_, e1 := strconv.ParseInt(fs[0], 10, 64)
	_, e2 := strconv.ParseInt(fs[1], 10, 64)
	_, e3 := strconv.ParseFloat(fs[3], 64)
	return e1 == nil && e2 == nil && e3 == nil
}

// otherDigit returns a digit that is not c.
func otherDigit(c byte) string {
	if c == '9' {
		return "8"
	}
	return "9"
}

func allParse(lines []string) bool {
	for _, l := range lines {
		if !cachedColumnsParse(l) {
			return false
		}
	}
	return true
}

func appendEngine(t *testing.T, path string, opts Options) *Engine {
	t.Helper()
	e := NewEngine(opts)
	if err := e.Register(sdg.DefaultDescription("E", sdg.FormatCSV, path, appendSchema())); err != nil {
		t.Fatal(err)
	}
	return e
}

func appendAnswers(t *testing.T, e *Engine, step string) []values.Value {
	t.Helper()
	out := make([]values.Value, len(appendTemplates))
	for i, q := range appendTemplates {
		v, err := e.Query(q)
		if err != nil {
			t.Fatalf("%s: %s: %v", step, q, err)
		}
		out[i] = v
	}
	return out
}

// assertLikeFreshEngine runs every template twice — the pass that meets
// whatever Refresh left, and the warm repeat — and compares each answer
// with the same pass of an engine that has never seen the file before.
// (Pass for pass, because a file with a row malformed for some columns
// gives different harvests different row counts, and what the cache then
// holds depends on the order of the queries since it was last empty.)
func assertLikeFreshEngine(t *testing.T, e *Engine, path, step string) {
	t.Helper()
	fresh := appendEngine(t, path, Options{DisableCaching: e.opts.DisableCaching})
	for pass := 0; pass < 2; pass++ {
		want := appendAnswers(t, fresh, step+" (fresh engine)")
		got := appendAnswers(t, e, step)
		for i := range want {
			if !values.Equal(got[i], want[i]) {
				t.Fatalf("%s, pass %d: %s\n got  %v\n want %v (fresh engine over the same bytes)", step, pass, appendTemplates[i], got[i], want[i])
			}
		}
	}
}

// TestAppendRefreshDifferential drives a seeded random sequence of file
// changes through Refresh in every cache state, starting from a file that
// holds only its header, and checks after each step the answers and which
// path the refresh took.
func TestAppendRefreshDifferential(t *testing.T) {
	states := []struct {
		name string
		opts func(t *testing.T) Options
	}{
		{"raw-only", func(*testing.T) Options { return Options{DisableCaching: true} }},
		{"hot", func(*testing.T) Options { return Options{} }},
		{"encoded", func(*testing.T) Options { return Options{CacheHotBytes: 1} }},
		{"cache-dir", func(t *testing.T) Options { return Options{CacheDir: t.TempDir()} }},
		{"encoded+cache-dir", func(t *testing.T) Options { return Options{CacheHotBytes: 1, CacheDir: t.TempDir()} }},
	}
	const (
		opRows = iota
		opPartialLine
		opBadCached
		opBadUncached
		opNoNewline
		opBlankLines
		opRewritePrefix
		opTruncate
		opSameSize
		opRename
		numOps
	)
	opNames := [numOps]string{"append rows", "append a partial line", "append a row malformed in a cached column",
		"append a row malformed in an uncached column", "append without trailing newline", "append blank lines and a row",
		"rewrite a prefix byte and grow", "truncate", "same-size rewrite", "atomic-rename replace"}
	for _, st := range states {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", st.name, seed), func(t *testing.T) {
				f := &appendFile{t: t, path: filepath.Join(t.TempDir(), "e.csv"), rng: rand.New(rand.NewSource(seed))}
				f.rewrite(appendHeader)
				opts := st.opts(t)
				e := appendEngine(t, f.path, opts)
				assertLikeFreshEngine(t, e, f.path, "header only")
				seen := map[string]int{}
				for step := 0; step < 45; step++ {
					before := f.content
					lines := dataLines(before)
					op := f.rng.Intn(numOps)
					if step == 0 {
						op = opRows // header-only start: the first rows arrive by append
					}
					if !strings.HasSuffix(before, "\n") && f.rng.Intn(3) > 0 {
						op = -1 // complete the dangling line, most of the time
					}
					name := "complete the partial line"
					if op >= 0 {
						name = opNames[op]
					}
					grew := true
					switch op {
					case -1:
						// Whatever field the line stopped in takes one more digit;
						// the fields it never reached follow.
						dangling := before[strings.LastIndexByte(before, '\n')+1:]
						f.grow("1" + strings.Repeat(",1", max(0, 4-strings.Count(dangling, ","))) + "\n")
					case opRows:
						f.grow(f.rows(1 + f.rng.Intn(30)))
					case opPartialLine:
						r := f.row()
						f.grow(r[:1+f.rng.Intn(len(r)-2)])
					case opBadCached:
						f.nextID++
						f.grow(fmt.Sprintf("%d,bad,g1,0.5,1\n", f.nextID))
					case opBadUncached:
						f.nextID++
						f.grow(fmt.Sprintf("%d,7,g1,0.5,zzz\n", f.nextID))
					case opNoNewline:
						f.grow(strings.TrimSuffix(f.row(), "\n"))
					case opBlankLines:
						f.grow("\n\n" + f.row())
					case opRewritePrefix:
						// Same length up to the old end, one byte different, and
						// longer: only the byte comparison can tell it from an append.
						grew = false
						if i := strings.Index(before, ",g"); i >= 0 {
							f.rewrite(before[:i+2] + otherDigit(before[i+2]) + before[i+3:] + f.row())
						} else {
							f.rewrite(appendHeader + f.rows(3))
						}
					case opTruncate:
						grew = false
						f.rewrite(appendHeader + strings.Join(lines[:len(lines)/2], "\n") + "\n")
					case opSameSize:
						grew = false
						if i := strings.Index(before, ",g"); i >= 0 {
							f.rewrite(before[:i+2] + otherDigit(before[i+2]) + before[i+3:])
						} else {
							f.rewrite(appendHeader)
						}
					case opRename:
						grew = false
						f.rename(appendHeader + f.rows(len(lines)+2))
					}
					// A positional map exists when there was a row to index (the
					// templates ran after the previous step).
					appendable := grew && len(lines) > 0 && strings.HasSuffix(before, "\n")
					tail := strings.TrimPrefix(f.content, before)
					// The cache can follow when every row, old and new, parses
					// for the cached columns. Once a row does not, harvests of
					// different column sets disagree on the row count and what
					// the entry holds depends on the last query; the path is
					// then asserted only without a cache.
					strict := opts.DisableCaching || allParse(lines)
					wantAppend := appendable && (opts.DisableCaching || allParse(dataLines(tail)))
					stats0 := e.StatsSnapshot()
					if err := e.Refresh(); err != nil {
						t.Fatal(err)
					}
					stats1 := e.StatsSnapshot()
					apps := stats1.RefreshAppends - stats0.RefreshAppends
					reps := stats1.RefreshReplacements - stats0.RefreshReplacements
					label := fmt.Sprintf("step %d (%s)", step, name)
					if f.content == before {
						if apps+reps != 0 {
							t.Fatalf("%s: file unchanged, counted %d appends %d replacements", label, apps, reps)
						}
					} else {
						if apps+reps != 1 {
							t.Fatalf("%s: one changed source, counted %d appends %d replacements", label, apps, reps)
						}
						if strict && (apps == 1) != wantAppend {
							t.Fatalf("%s: append path taken = %v, want %v", label, apps == 1, wantAppend)
						}
						if apps == 1 {
							rows, bytes := stats1.RefreshTailRows-stats0.RefreshTailRows, stats1.RefreshTailBytes-stats0.RefreshTailBytes
							if rows != int64(len(dataLines(tail))) || bytes != int64(len(tail)) {
								t.Fatalf("%s: counted a tail of %d rows %d bytes, appended %d rows %d bytes", label, rows, bytes, len(dataLines(tail)), len(tail))
							}
							seen["append"]++
						} else {
							seen["replace"]++
						}
					}
					assertLikeFreshEngine(t, e, f.path, label)
				}
				if seen["append"] < 3 || seen["replace"] < 3 {
					t.Fatalf("the sequence took the append path %d times and the replace path %d times", seen["append"], seen["replace"])
				}
			})
		}
	}
}

// scanModes runs q under a tracer and returns the mode of every scan span,
// whether a positional-map build was recorded and the plan-cache outcome.
func scanModes(t *testing.T, e *Engine, q string) (modes []string, built bool, plan string) {
	t.Helper()
	tr := trace.New("t", "test")
	if _, err := e.QueryCtx(trace.WithTracer(context.Background(), tr), q); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	tr.Snapshot().Walk(func(n *trace.SpanNode) {
		switch n.Name {
		case "scan":
			modes = append(modes, fmt.Sprint(n.Attrs["mode"]))
		case "posmap_build":
			built = true
		case "frontend":
			plan = fmt.Sprint(n.Attrs["plan_cache"])
		}
	})
	return modes, built, plan
}

// TestAppendNextQueryStaysInCache pins what the append path buys: after
// an appending Refresh the very next query of every template is served
// from the cache — no raw scan span, no positional-map build, no raw
// touch — in the hot and in the encoded tier. The appended entry is a new
// generation, so each template's first run after the append prepares its
// plan again and the second finds it cached. A replacement loses the
// cache as well.
func TestAppendNextQueryStaysInCache(t *testing.T) {
	for _, opts := range []Options{{}, {CacheHotBytes: 1}} {
		f := &appendFile{t: t, path: filepath.Join(t.TempDir(), "e.csv"), rng: rand.New(rand.NewSource(5))}
		f.rewrite(appendHeader + f.rows(500))
		e := appendEngine(t, f.path, opts)
		appendAnswers(t, e, "warm-up")
		gen := func() int64 {
			e.mu.RLock()
			defer e.mu.RUnlock()
			return e.sources["E"].gen
		}
		before := gen()
		f.grow(f.rows(25))
		if err := e.Refresh(); err != nil {
			t.Fatal(err)
		}
		if gen() == before {
			t.Fatal("the appended entry kept its predecessor's generation: what was derived from the shorter file would stay current")
		}
		raw := e.StatsSnapshot().QueriesTouchedRaw
		for _, q := range appendTemplates {
			for run, wantPlan := range []string{"miss", "hit"} {
				modes, built, plan := scanModes(t, e, q)
				if plan != wantPlan {
					t.Errorf("hot bytes %d: run %d of %q after an append: plan_cache=%s, want %s", opts.CacheHotBytes, run, q, plan, wantPlan)
				}
				for _, m := range modes {
					if !strings.HasPrefix(m, "cache") {
						t.Errorf("hot bytes %d: after an append %q ran a %s scan", opts.CacheHotBytes, q, m)
					}
				}
				if built || len(modes) == 0 {
					t.Errorf("hot bytes %d: after an append %q: posmap build = %v, scans = %v", opts.CacheHotBytes, q, built, modes)
				}
			}
		}
		if got := e.StatsSnapshot().QueriesTouchedRaw; got != raw {
			t.Errorf("hot bytes %d: raw touches grew from %d to %d across an append", opts.CacheHotBytes, raw, got)
		}
		assertLikeFreshEngine(t, e, f.path, "after append")

		f.rewrite(strings.Replace(f.content, ",g", ",h", 1) + f.row())
		if err := e.Refresh(); err != nil {
			t.Fatal(err)
		}
		if modes, built, plan := scanModes(t, e, appendTemplates[0]); len(modes) != 1 || modes[0] != "raw" || !built || plan != "miss" {
			t.Fatalf("after a replacement the first run ran its scans as %v (posmap build %v, plan_cache=%s), want a raw rebuild under a new plan", modes, built, plan)
		}
		assertLikeFreshEngine(t, e, f.path, "after replacement")
	}
}

// TestAppendKeepsCacheDirCurrent: with a cache directory an append
// respills the extended columns under the grown file's generation and
// rewrites the posmap sidecar, so a restarted engine answers from what it
// finds there without touching the raw file.
func TestAppendKeepsCacheDirCurrent(t *testing.T) {
	dir := t.TempDir()
	f := &appendFile{t: t, path: filepath.Join(t.TempDir(), "e.csv"), rng: rand.New(rand.NewSource(11))}
	f.rewrite(appendHeader + f.rows(300))
	e := appendEngine(t, f.path, Options{CacheDir: dir})
	appendAnswers(t, e, "warm-up")
	f.grow(f.rows(40))
	if err := e.Refresh(); err != nil {
		t.Fatal(err)
	}
	if st := e.StatsSnapshot(); st.RefreshAppends != 1 || st.RefreshTailRows != 40 {
		t.Fatalf("refresh stats = %+v", st)
	}
	spills, _ := filepath.Glob(filepath.Join(dir, "*.vspill"))
	if len(spills) != 1 {
		t.Fatalf("spill files after an append: %v", spills)
	}
	restarted := appendEngine(t, f.path, Options{CacheDir: dir})
	got := appendAnswers(t, restarted, "restarted")
	if st := restarted.StatsSnapshot(); st.QueriesTouchedRaw != 0 || st.Cache.RehydratedBlocks == 0 {
		t.Fatalf("restarted engine: %d queries touched the raw file, %d blocks rehydrated", st.QueriesTouchedRaw, st.Cache.RehydratedBlocks)
	}
	want := appendAnswers(t, appendEngine(t, f.path, Options{}), "fresh")
	for i := range want {
		if !values.Equal(got[i], want[i]) {
			t.Fatalf("restarted engine: %s = %v, want %v", appendTemplates[i], got[i], want[i])
		}
	}
}

// TestAppendAfterWholeRecordScan: a whole-record scan reads, and
// harvests into, the source's one columnar entry, so an append after it
// extends that entry instead of replacing a second, boxed copy.
func TestAppendAfterWholeRecordScan(t *testing.T) {
	f := &appendFile{t: t, path: filepath.Join(t.TempDir(), "e.csv"), rng: rand.New(rand.NewSource(3))}
	f.rewrite(appendHeader + f.rows(50))
	e := appendEngine(t, f.path, Options{Mode: ModeReference})
	for _, q := range []string{`for { e <- E } yield count e`, `for { e <- E, e.k < 50 } yield sum e.f`} {
		if _, err := e.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.Caches().Stats().Entries; n != 1 {
		t.Fatalf("%d cache entries after a whole-record and a projected scan", n)
	}
	f.grow(f.rows(5))
	if err := e.Refresh(); err != nil {
		t.Fatal(err)
	}
	if st := e.StatsSnapshot(); st.Cache.Entries != 1 || st.RefreshAppends != 1 || st.RefreshReplacements != 0 {
		t.Fatalf("%d cache entries, %d appends, %d replacements after a whole-record scan and an append",
			st.Cache.Entries, st.RefreshAppends, st.RefreshReplacements)
	}
	assertLikeFreshEngine(t, e, f.path, "append after a whole-record scan")
}

// TestAppendAfterEncodedHarvest: an entry pushed to the encoded tier,
// then grown by a harvest of another column (which decodes it, so it
// turns hot with its string column dictionary-coded), takes the append
// path on the next append and answers like a fresh engine.
func TestAppendAfterEncodedHarvest(t *testing.T) {
	const rows = 4000
	dir := t.TempDir()
	f := &appendFile{t: t, path: filepath.Join(dir, "e.csv"), rng: rand.New(rand.NewSource(9))}
	f.rewrite(appendHeader + f.rows(rows))
	g := &appendFile{t: t, path: filepath.Join(dir, "f.csv"), rng: rand.New(rand.NewSource(10))}
	g.rewrite(appendHeader + g.rows(rows))
	// E and F each cache s (dictionary-coded, 4 bytes a row) and k (8):
	// the two (24 bytes a row) do not fit the hot tier, E with f added
	// (20) does.
	e := appendEngine(t, f.path, Options{CacheHotBytes: 22 * rows})
	if err := e.Register(sdg.DefaultDescription("F", sdg.FormatCSV, g.path, appendSchema())); err != nil {
		t.Fatal(err)
	}
	entry := func(name string) *cache.Entry {
		t.Helper()
		en, ok := e.Caches().Peek(name, cache.LayoutColumns)
		if !ok {
			t.Fatalf("no cache entry for %s", name)
		}
		return en
	}
	for _, q := range []string{
		`for { e <- E } group by { s := e.s } agg { t := sum e.k } yield bag (s := s, t := t)`,
		`for { e <- F } group by { s := e.s } agg { t := sum e.k } yield bag (s := s, t := t)`,
	} {
		if _, err := e.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if !entry("E").Encoded() || entry("F").Encoded() {
		t.Fatalf("before the harvest: E encoded %v, F encoded %v", entry("E").Encoded(), entry("F").Encoded())
	}
	if _, err := e.Query(`for { e <- E, e.k < 50 } yield sum e.f`); err != nil {
		t.Fatal(err)
	}
	if en := entry("E"); en.Encoded() || en.Cols["s"].Tag != vec.StrDict || !en.HasColumns([]string{"s", "k", "f"}) {
		t.Fatalf("after the harvest: E encoded %v, columns %v", en.Encoded(), en.ColumnNames())
	}
	before := e.StatsSnapshot()
	f.grow(f.rows(50))
	if err := e.Refresh(); err != nil {
		t.Fatal(err)
	}
	st := e.StatsSnapshot()
	if st.RefreshAppends-before.RefreshAppends != 1 || st.RefreshReplacements != before.RefreshReplacements {
		t.Fatalf("%d appends, %d replacements", st.RefreshAppends-before.RefreshAppends, st.RefreshReplacements-before.RefreshReplacements)
	}
	if en := entry("E"); en.N != rows+50 || en.Encoded() || en.Cols["s"].Tag != vec.StrDict {
		t.Fatalf("after the append: E holds %d rows, encoded %v", en.N, en.Encoded())
	}
	assertLikeFreshEngine(t, e, f.path, "append after a harvest into an encoded entry")
}

// TestRefreshSeesThroughCleaner is the regression test for Refresh
// skipping cleaner-wrapped sources: AttachCleaner replaces the entry's
// source with a wrapper that has no Refresh of its own, and a changed
// file was never noticed again.
func TestRefreshSeesThroughCleaner(t *testing.T) {
	f := &appendFile{t: t, path: filepath.Join(t.TempDir(), "e.csv"), rng: rand.New(rand.NewSource(2))}
	f.rewrite(appendHeader + f.rows(20))
	e := appendEngine(t, f.path, Options{})
	if err := e.AttachCleaner("E", clean.New()); err != nil {
		t.Fatal(err)
	}
	count := func() int64 {
		v, err := e.Query(`for { e <- E } yield count e`)
		if err != nil {
			t.Fatal(err)
		}
		return v.Int()
	}
	if got := count(); got != 20 {
		t.Fatalf("count = %d", got)
	}
	f.rewrite(appendHeader + f.rows(7))
	if err := e.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != 7 {
		t.Fatalf("count after rewrite + Refresh = %d, want 7: the cleaner hid the reader from Refresh", got)
	}
	// Cleaned caches hold repaired values, not the file's: even a pure
	// append replaces them wholesale.
	f.grow(f.rows(3))
	if err := e.Refresh(); err != nil {
		t.Fatal(err)
	}
	if st := e.StatsSnapshot(); st.RefreshAppends != 0 || st.RefreshReplacements != 2 {
		t.Fatalf("refresh stats behind a cleaner = %+v", st)
	}
	if got := count(); got != 10 {
		t.Fatalf("count after append + Refresh = %d, want 10", got)
	}
}

// TestAppendRefreshRace: one appender with its Refresh loop beside four
// readers and a morsel-parallel join. Every answer must be the answer of
// some generation the query can have overlapped — from the last append
// whose Refresh had returned when it was sent to the last append begun
// when it was answered. Run with -race; ends with a goroutine-leak check.
func TestAppendRefreshRace(t *testing.T) {
	const base, perAppend, appends = 9000, 120, 12
	g0 := runtime.NumGoroutine()
	dir := t.TempDir()
	path := filepath.Join(dir, "e.csv")
	dimPath := filepath.Join(dir, "d.csv")
	var dim strings.Builder
	dim.WriteString("id,w\n")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&dim, "%d,%d\n", i, i%4)
	}
	if err := os.WriteFile(dimPath, []byte(dim.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	// Row i is a function of i alone, so each generation's answers are
	// plain loops over a prefix.
	rowOf := func(i int) (k int, s int, f float64) { return (i * 7) % 100, i % 5, float64(i%64) / 8 }
	var sb strings.Builder
	sb.WriteString(appendHeader)
	writeRows := func(sb *strings.Builder, lo, hi int) {
		for i := lo; i < hi; i++ {
			k, s, f := rowOf(i)
			fmt.Fprintf(sb, "%d,%d,g%d,%g,%d\n", i, k, s, f, i%3)
		}
	}
	writeRows(&sb, 0, base)
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`for { e <- E } yield sum 1`,
		`for { e <- E, e.k < 50 } yield sum e.f`,
		`for { e <- E } group by { s := e.s } agg { n := sum 1 } yield list (s := s, n := n) order by s`,
		`for { e <- E } yield max e.id`,
		`for { e <- E, d <- D, e.k = d.id, d.w = 1 } yield count 1`,
	}
	// want[g][q] renders the answer of generation g.
	want := make([][]string, appends+1)
	for g := range want {
		n := base + g*perAppend
		var sum float64
		var groups [5]int
		join := 0
		for i := 0; i < n; i++ {
			k, s, f := rowOf(i)
			if k < 50 {
				sum += f
			}
			groups[s]++
			if k%4 == 1 {
				join++
			}
		}
		var gl []string
		for s, c := range groups {
			gl = append(gl, fmt.Sprintf("(s := \"g%d\", n := %d)", s, c))
		}
		want[g] = []string{fmt.Sprint(n), fmt.Sprint(values.NewFloat(sum)), "list{" + strings.Join(gl, ", ") + "}", fmt.Sprint(n - 1), fmt.Sprint(join)}
	}

	pool := sched.NewPool(4)
	e := NewEngine(Options{Pool: pool, Workers: 4})
	if err := e.Register(sdg.DefaultDescription("E", sdg.FormatCSV, path, appendSchema())); err != nil {
		t.Fatal(err)
	}
	dimSchema := sdg.Bag(sdg.Record(sdg.Attr{Name: "id", Type: sdg.Int}, sdg.Attr{Name: "w", Type: sdg.Int}))
	if err := e.Register(sdg.DefaultDescription("D", sdg.FormatCSV, dimPath, dimSchema)); err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		v, err := e.Query(q)
		if err != nil {
			t.Fatalf("warm-up %s: %v", q, err)
		}
		if got := fmt.Sprint(v); got != want[0][qi] {
			t.Fatalf("warm-up %s = %s, model says %s", q, got, want[0][qi])
		}
	}

	var started, done atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < len(queries); r++ {
		wg.Add(1)
		go func(qi int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := done.Load()
				v, err := e.Query(queries[qi])
				hi := started.Load()
				if err != nil {
					t.Errorf("%s: %v", queries[qi], err)
					return
				}
				got, ok := fmt.Sprint(v), false
				for g := lo; g <= hi; g++ {
					ok = ok || got == want[g][qi]
				}
				if !ok {
					t.Errorf("%s = %s matches no generation in [%d,%d] (those give %s .. %s)", queries[qi], got, lo, hi, want[lo][qi], want[hi][qi])
					return
				}
			}
		}(r)
	}
	mtime := time.Now()
	for g := 1; g <= appends; g++ {
		var tail strings.Builder
		writeRows(&tail, base+(g-1)*perAppend, base+g*perAppend)
		started.Store(int64(g))
		fh, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.WriteString(tail.String()); err != nil {
			t.Fatal(err)
		}
		fh.Close()
		mtime = mtime.Add(2 * time.Second)
		os.Chtimes(path, mtime, mtime)
		if err := e.Refresh(); err != nil {
			t.Fatal(err)
		}
		done.Store(int64(g))
	}
	close(stop)
	wg.Wait()
	st := e.StatsSnapshot()
	if st.RefreshAppends != appends || st.RefreshReplacements != 0 || st.RefreshTailRows != appends*perAppend {
		t.Errorf("refresh stats after %d clean appends: %+v", appends, st)
	}
	for qi, q := range queries {
		v, err := e.Query(q)
		if err != nil || fmt.Sprint(v) != want[appends][qi] {
			t.Errorf("final %s = %v (%v), want %s", q, v, err, want[appends][qi])
		}
	}
	e.Close()
	pool.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > g0+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: started with %d, still %d", g0, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
