package vida_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vida"
	"vida/internal/algebra"
	"vida/internal/cache"
	"vida/internal/colenc"
	"vida/internal/faultinject"
	"vida/internal/jit"
	"vida/internal/sdg"
)

// writeCondPeopleCSV writes a deterministic CSV with a sequential int
// column, a high-cardinality string, a low-cardinality (dictionary
// friendly) string, and an int attribute.
func writeCondPeopleCSV(t *testing.T, dir string, n int) string {
	t.Helper()
	conds := []string{"healthy", "mild", "severe", "chronic", "acute"}
	var buf bytes.Buffer
	buf.WriteString("id,name,cond,age\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&buf, "%d,p%d,%s,%d\n", i, i, conds[i%len(conds)], 20+i%60)
	}
	path := filepath.Join(dir, "people.csv")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const condPeopleSchema = "Record(Att(id, int), Att(name, string), Att(cond, string), Att(age, int))"

// TestRestartWarmFromCacheDir is the restart satellite: an engine with a
// cache directory answers its first post-restart query entirely from
// rehydrated spill blocks — the raw file is provably never scanned
// (every raw CSV batch read is armed to fail) yet results are identical.
func TestRestartWarmFromCacheDir(t *testing.T) {
	dir := t.TempDir()
	path := writeCondPeopleCSV(t, dir, 4000)
	cacheDir := filepath.Join(dir, "cache")
	queries := []string{
		`for { p <- People, p.age > 40 } yield avg p.id`,
		`for { p <- People, p.cond = "severe" } yield count p`,
	}

	eng1 := vida.New(vida.WithCacheDir(cacheDir))
	if err := eng1.RegisterCSV("People", path, condPeopleSchema, nil); err != nil {
		t.Fatal(err)
	}
	want := make([]*vida.Result, len(queries))
	for i, q := range queries {
		r, err := eng1.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	if err := eng1.Close(); err != nil {
		t.Fatal(err)
	}
	if spills, _ := filepath.Glob(filepath.Join(cacheDir, "*.vspill")); len(spills) == 0 {
		t.Fatal("no spill files written")
	}

	// "Restart": a fresh engine over the same cache dir, with every raw
	// CSV batch read armed to fail — any fallback to the raw file breaks
	// the query loudly instead of hiding behind a correct answer.
	faultinject.Set(faultinject.CSVRead, faultinject.Always(faultinject.ErrInjected))
	defer faultinject.Reset()
	eng2 := vida.New(vida.WithCacheDir(cacheDir))
	if err := eng2.RegisterCSV("People", path, condPeopleSchema, nil); err != nil {
		t.Fatal(err)
	}
	if st := eng2.Stats(); st.Cache.RehydratedBlocks == 0 {
		t.Fatalf("nothing rehydrated: %+v", st.Cache)
	}
	for i, q := range queries {
		r, err := eng2.Query(q)
		if err != nil {
			t.Fatalf("post-restart query %d read the raw file (or failed): %v", i, err)
		}
		if !r.Value().Equal(want[i].Value()) {
			t.Fatalf("query %d diverged after restart: %s vs %s", i, r, want[i])
		}
	}
	st := eng2.Stats()
	if st.RawScans != 0 {
		t.Fatalf("post-restart queries touched raw %d times", st.RawScans)
	}
	if st.Cache.DecodedBlocks == 0 {
		t.Fatal("post-restart queries decoded no blocks")
	}
}

// TestRestartRebuildsOlderSpillVersion: a spill file of an older format
// version is stale, not corrupt. A restart deletes it without a .bad
// quarantine, the first query rebuilds the entry from the raw file once,
// and the spill written in its place has the current version.
func TestRestartRebuildsOlderSpillVersion(t *testing.T) {
	dir := t.TempDir()
	path := writeCondPeopleCSV(t, dir, 3000)
	cacheDir := filepath.Join(dir, "cache")
	q := `for { p <- People, p.cond = "mild" } yield sum p.age`
	spillVersions := func() []uint16 {
		t.Helper()
		files, _ := filepath.Glob(filepath.Join(cacheDir, "*.vspill"))
		var vs []uint16
		for _, f := range files {
			raw, err := os.ReadFile(f)
			if err != nil || len(raw) < 6 {
				t.Fatalf("spill %s: %v", f, err)
			}
			vs = append(vs, binary.LittleEndian.Uint16(raw[4:]))
		}
		return vs
	}

	eng1 := vida.New(vida.WithCacheDir(cacheDir))
	if err := eng1.RegisterCSV("People", path, condPeopleSchema, nil); err != nil {
		t.Fatal(err)
	}
	want, err := eng1.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng1.Close(); err != nil {
		t.Fatal(err)
	}
	current := spillVersions()
	if len(current) != 1 || current[0] < 2 {
		t.Fatalf("spill versions after the first run: %v", current)
	}
	files, _ := filepath.Glob(filepath.Join(cacheDir, "*.vspill"))
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(raw[4:], 1) // a version-1 header
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	eng2 := vida.New(vida.WithCacheDir(cacheDir))
	if err := eng2.RegisterCSV("People", path, condPeopleSchema, nil); err != nil {
		t.Fatal(err)
	}
	if st := eng2.Stats(); st.Cache.RehydratedBlocks != 0 || st.Cache.SpillCorrupt != 0 {
		t.Fatalf("a version-1 spill was rehydrated or counted corrupt: %+v", st.Cache)
	}
	got, err := eng2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Value().Equal(want.Value()) {
		t.Fatalf("answer after the rebuild: %s, want %s", got, want)
	}
	if st := eng2.Stats(); st.RawScans != 1 {
		t.Fatalf("raw scans after the restart = %d, want one rebuild", st.RawScans)
	}
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}
	if bad, _ := filepath.Glob(filepath.Join(cacheDir, "*.bad")); len(bad) != 0 {
		t.Fatalf("quarantined: %v", bad)
	}
	if vs := spillVersions(); len(vs) != 1 || vs[0] != current[0] {
		t.Fatalf("spill versions after the rebuild: %v, want [%d]", vs, current[0])
	}
}

// encodedCatalog serves an engine's encoded cache entry to a JIT
// executor run with options of its own.
type encodedCatalog struct {
	eng *vida.Engine
	src *cache.ColumnsSource
}

func (c encodedCatalog) Source(name string) (algebra.Source, bool) {
	return c.src, name == c.src.Dataset
}

func (c encodedCatalog) Description(name string) (*sdg.Description, bool) {
	return c.eng.Internal().Description(name)
}

// TestEncodedCacheAgreesWithHot extends the executor-equality suite to
// encoded sources: the same queries over a hot-vector cache, a
// forced-encoded cache, an uncached engine, and the reference executor
// must agree byte for byte — including dictionary-code filter fast
// paths on every relational operator (<, =, >, absent constants). An
// encoded entry of several blocks is also scanned morsel-parallel in small
// batches against the hot cache, so morsels reuse decode buffers earlier
// ones returned to the pool:
// a join build side, a top-k or a list root that kept a decoded window
// without copying it would read another morsel's rows.
func TestEncodedCacheAgreesWithHot(t *testing.T) {
	dir := t.TempDir()
	path := writeCondPeopleCSV(t, dir, 2500)
	queries := []string{
		`for { p <- People, p.cond = "severe" } yield count p`,
		`for { p <- People, p.cond < "mild" } yield count p`,
		`for { p <- People, p.cond > "healthy", p.age > 30 } yield avg p.id`,
		`for { p <- People, p.cond = "zzz-not-present" } yield count p`,
		`for { p <- People, p.cond != "acute" } yield sum p.age`,
		`for { p <- People, p.name = "p100" } yield sum p.id`,
		`for { p <- People, p.id <= 20 } yield bag (c := p.cond) order by p.cond, p.id limit 10`,
		`for { p <- People, q <- People, p.id = q.id, q.cond = "mild" } yield count p`,
		`for { p <- People, q <- People, p.id = q.id + 3, q.cond = "mild" } yield bag (a := p.id, n := q.name, c := q.cond)`,
		`for { p <- People, p.age > 25 } yield list (i := p.id, n := p.name, c := p.cond) order by p.age desc, p.id limit 15`,
		`for { p <- People, p.age > 70 } yield list (i := p.id, c := p.cond, n := p.name)`,
	}
	type config struct {
		name string
		opts []vida.Option
	}
	configs := []config{
		{"hot", nil},
		{"encoded", []vida.Option{vida.WithCacheHotBytes(1)}},
		{"uncached", []vida.Option{vida.WithoutCaching()}},
		{"reference", []vida.Option{vida.WithReferenceExecutor()}},
	}
	results := make(map[string][]*vida.Result)
	for _, cfg := range configs {
		eng := vida.New(cfg.opts...)
		if err := eng.RegisterCSV("People", path, condPeopleSchema, nil); err != nil {
			t.Fatal(err)
		}
		// Two passes: the first harvests (and, for "encoded", tiers) the
		// cache, the second runs against the tier under test.
		for pass := 0; pass < 2; pass++ {
			results[cfg.name] = results[cfg.name][:0]
			for _, q := range queries {
				r, err := eng.Query(q)
				if err != nil {
					t.Fatalf("%s: %s: %v", cfg.name, q, err)
				}
				results[cfg.name] = append(results[cfg.name], r)
			}
		}
		if cfg.name == "encoded" {
			if st := eng.Stats(); st.Cache.EncodedBytes == 0 || st.Cache.DecodedBlocks == 0 {
				t.Fatalf("encoded config never exercised the encoded tier: %+v", st.Cache)
			}
		}
	}
	for _, cfg := range configs[1:] {
		for i := range queries {
			if !results[cfg.name][i].Value().Equal(results["hot"][i].Value()) {
				t.Fatalf("%s diverged on %q: %s vs %s", cfg.name, queries[i], results[cfg.name][i], results["hot"][i])
			}
		}
	}

	// A file several blocks long, so morsels decode different blocks into
	// the buffers they pass on.
	big := writeCondPeopleCSV(t, t.TempDir(), 3*colenc.BlockRows+500)
	_, want := twoPasses(t, big, queries)
	enc, _ := twoPasses(t, big, queries, vida.WithCacheHotBytes(1))
	for i, got := range morselsOverEncoded(t, enc, queries) {
		if got != want[i] {
			t.Fatalf("encoded morsels diverged on %q: %s vs %s", queries[i], got, want[i])
		}
	}
}

// twoPasses runs queries twice over People at path on a new engine — the
// first pass fills (and tiers) the cache — and returns the engine and the
// second pass's rendered answers.
func twoPasses(t *testing.T, path string, queries []string, opts ...vida.Option) (*vida.Engine, []string) {
	t.Helper()
	eng := vida.New(opts...)
	if err := eng.RegisterCSV("People", path, condPeopleSchema, nil); err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(queries))
	for pass := 0; pass < 2; pass++ {
		for i, q := range queries {
			r, err := eng.Query(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			out[i] = r.String()
		}
	}
	return eng, out
}

// morselsOverEncoded runs queries over eng's encoded People entry with a
// four-worker JIT that splits every scan into morsels of a few 64-row
// batches, and returns the rendered answers.
func morselsOverEncoded(t *testing.T, eng *vida.Engine, queries []string) []string {
	t.Helper()
	entry, ok := eng.Internal().Caches().Peek("People", cache.LayoutColumns)
	if !ok || !entry.Encoded() {
		t.Fatal("People is not in the encoded tier")
	}
	cat := encodedCatalog{eng: eng, src: &cache.ColumnsSource{Entry: entry, Dataset: "People"}}
	ex := jit.Executor{Opts: jit.Options{Workers: 4, ParallelThreshold: 1, BatchSize: 64}}
	out := make([]string, len(queries))
	for i, q := range queries {
		p, err := eng.Internal().Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		v, err := ex.Run(p.Plan(), cat)
		if err != nil {
			t.Fatalf("encoded-morsels: %s: %v", q, err)
		}
		out[i] = v.String()
	}
	return out
}
