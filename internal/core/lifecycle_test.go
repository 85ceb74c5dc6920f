package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vida/internal/algebra"
	"vida/internal/cache"
	"vida/internal/clean"
	"vida/internal/faultinject"
	"vida/internal/jit"
	"vida/internal/sdg"
	"vida/internal/trace"
	"vida/internal/values"
	"vida/internal/vec"
)

// The lifecycle suite holds one rule: what was derived from a catalog
// generation — a harvest, a cached plan — is used only while that
// generation is published. Whatever a catalog change is and wherever a
// harvest of the outgoing generation completes or a plan is prepared
// relative to it, the engine answers like a fresh engine over the files
// and catalog the change left.

func patientsSchema() *sdg.Type {
	return sdg.Bag(sdg.Record(
		sdg.Attr{Name: "id", Type: sdg.Int},
		sdg.Attr{Name: "age", Type: sdg.Int},
		sdg.Attr{Name: "city", Type: sdg.String},
		sdg.Attr{Name: "score", Type: sdg.Float},
	))
}

// patientRows renders rows lo..hi-1 of the Patients file (writeFiles'
// formula); score, when non-negative, replaces every row's score.
func patientRows(lo, hi int, score float64) string {
	var sb strings.Builder
	for i := lo; i < hi; i++ {
		s := float64(i) / 2
		if score >= 0 {
			s = score
		}
		fmt.Fprintf(&sb, "%d,%d,c%d,%g\n", i, 20+i%50, i%5, s)
	}
	return sb.String()
}

// writePatients writes a Patients file and returns its path.
func writePatients(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte("id,age,city,score\n"+content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// appendPatients appends rows 50..59 to the Patients file at path.
func appendPatients(t *testing.T, path string) {
	t.Helper()
	fh, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.WriteString(patientRows(50, 60, -1)); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	bumpMtime(t, path)
}

// bumpMtime moves a file's mtime forward so Refresh notices a change.
func bumpMtime(t *testing.T, path string) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	at := fi.ModTime().Add(2 * time.Second)
	if err := os.Chtimes(path, at, at); err != nil {
		t.Fatal(err)
	}
}

// The cleaners of the suite: score above 5 drops the row (11 of the 50
// rows stay) or nulls the score (all 50 rows stay).
var (
	skipScore = clean.Rule{Attr: "score", Policy: clean.SkipRow, Max: clean.Float(5)}
	nullScore = clean.Rule{Attr: "score", Policy: clean.NullField, Max: clean.Float(5)}
)

// lifecycleQueries read the score column a harvest of the outgoing
// generation installs, and the age column the warm-up cached.
var lifecycleQueries = []string{
	`for { p <- P } yield count p.score`,
	`for { p <- P, p.score > 5 } yield count p`,
	`for { p <- P, p.age > 30 } yield count p`,
	`for { p <- P, p.age > 30 } yield list p.id order by p.id`,
}

func lifecycleAnswers(t *testing.T, e *Engine, step string) []values.Value {
	t.Helper()
	out := make([]values.Value, len(lifecycleQueries))
	for i, q := range lifecycleQueries {
		v, err := e.Query(q)
		if err != nil {
			t.Fatalf("%s: %s: %v", step, q, err)
		}
		out[i] = v
	}
	return out
}

// freshEngine registers P over path on a new engine, with the cleaner
// rules given attached.
func freshEngine(t *testing.T, path string, opts Options, rules ...clean.Rule) *Engine {
	t.Helper()
	e := NewEngine(opts)
	if err := e.Register(sdg.DefaultDescription("P", sdg.FormatCSV, path, patientsSchema())); err != nil {
		t.Fatal(err)
	}
	if rules != nil {
		if err := e.AttachCleaner("P", clean.New(rules...)); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// assertLikeFresh compares every lifecycle query — the pass that meets
// what the change left and the warm repeat — with a fresh engine.
func assertLikeFresh(t *testing.T, e, fresh *Engine, step string) {
	t.Helper()
	want := lifecycleAnswers(t, fresh, step+" (fresh engine)")
	for pass := 0; pass < 2; pass++ {
		got := lifecycleAnswers(t, e, step)
		for i := range want {
			if !values.Equal(got[i], want[i]) {
				t.Fatalf("%s, pass %d: %s\n got  %v\n want %v (fresh engine)", step, pass, lifecycleQueries[i], got[i], want[i])
			}
		}
	}
}

// harvestThrough completes a cold, harvesting batch scan of fields through
// src, a source the catalog handed out earlier.
func harvestThrough(t *testing.T, src algebra.Source, fields ...string) {
	t.Helper()
	err := src.(jit.BatchSource).IterateBatches(fields, vec.DefaultBatchSize, func(*vec.Batch) error { return nil })
	if err != nil {
		t.Error(err)
	}
}

// TestPublishReregisterWindow: a harvest of a deregistered file that
// completes from the Publish point of the next Register under the same
// name — after the Deregister, before the swap — must not answer for the
// file registered next.
func TestPublishReregisterWindow(t *testing.T) {
	defer faultinject.Reset()
	e := newEngine(t, Options{})
	next := writePatients(t, t.TempDir(), "next.csv", patientRows(0, 50, 1000))
	old, _ := e.sourceFor(nil, "Patients", nil)
	e.Deregister("Patients")
	faultinject.Set(faultinject.Publish, func() error {
		harvestThrough(t, old, "score")
		return nil
	})
	if err := e.Register(sdg.DefaultDescription("Patients", sdg.FormatCSV, next, patientsSchema())); err != nil {
		t.Fatal(err)
	}
	faultinject.Clear(faultinject.Publish)
	got, err := e.Query(`for { p <- Patients } yield sum p.score`)
	if err != nil || got.Float() != 50000 {
		t.Fatalf("sum p.score over the re-registered file = %v (%v), want 50000: the old file's harvest landed", got, err)
	}
}

// prepareTraced prepares q under a tracer and returns the plan-cache
// outcome its frontend span recorded.
func prepareTraced(t *testing.T, e *Engine, q string) (*Prepared, string) {
	t.Helper()
	tr := trace.New("t", "test")
	p, err := e.PrepareCtx(trace.WithTracer(context.Background(), tr), q)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	var outcome string
	tr.Snapshot().Walk(func(n *trace.SpanNode) {
		if n.Name == "frontend" {
			outcome = fmt.Sprint(n.Attrs["plan_cache"])
		}
	})
	return p, outcome
}

// TestPlanPreparedAcrossReregister: a Prepare reads the catalog, P is
// deregistered and re-registered under another schema, and only then the
// plan enters the plan cache. That plan read a generation no longer
// published, so it is never served: the next Prepare runs the frontend
// again, and the next query answers like a fresh engine over the new file.
func TestPlanPreparedAcrossReregister(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	e := freshEngine(t, writePatients(t, dir, "p.csv", patientRows(0, 50, -1)), Options{})
	// The new schema renames the first attribute, which a row-count-only
	// scan reads: a plan optimized against the old schema scans "id".
	next := filepath.Join(dir, "next.csv")
	if err := os.WriteFile(next, []byte("key,age,city,score\n"+patientRows(0, 30, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	keyed := sdg.Bag(sdg.Record(
		sdg.Attr{Name: "key", Type: sdg.Int},
		sdg.Attr{Name: "age", Type: sdg.Int},
		sdg.Attr{Name: "city", Type: sdg.String},
		sdg.Attr{Name: "score", Type: sdg.Float},
	))
	const q = `for { p <- P } yield count 1`
	var fired atomic.Bool
	faultinject.Set(faultinject.PlanInstall, func() error {
		if fired.CompareAndSwap(false, true) {
			e.Deregister("P")
			if err := e.Register(sdg.DefaultDescription("P", sdg.FormatCSV, next, keyed)); err != nil {
				t.Error(err)
			}
		}
		return nil
	})
	stale, err := e.Prepare(q)
	faultinject.Clear(faultinject.PlanInstall)
	if err != nil || !fired.Load() {
		t.Fatalf("prepare across the re-registration: %v (re-registered: %v)", err, fired.Load())
	}
	if p, outcome := prepareTraced(t, e, q); outcome != "miss" || p.Plan() == stale.Plan() {
		t.Fatalf("the plan prepared across the re-registration was served (plan_cache=%s)", outcome)
	}
	fresh := NewEngine(Options{})
	if err := fresh.Register(sdg.DefaultDescription("P", sdg.FormatCSV, next, keyed)); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := e.Query(q); err != nil || !values.Equal(got, want) {
		t.Fatalf("%s = %v (%v), want %v (fresh engine)", q, got, err, want)
	}
	if _, outcome := prepareTraced(t, e, q); outcome != "hit" {
		t.Fatalf("the re-prepared plan is not served: plan_cache=%s", outcome)
	}
}

// TestPlanCacheAdmitsPastFullShards: once every shard of the plan cache is
// full, a new text still gets cached — a full shard evicts one entry
// instead of refusing the insert — so its second Prepare is a hit.
func TestPlanCacheAdmitsPastFullShards(t *testing.T) {
	e := newEngine(t, Options{})
	for i := 0; i < 2000; i++ {
		if _, err := e.Prepare(fmt.Sprintf(`for { p <- Patients, p.age > %d } yield count p`, i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		q := fmt.Sprintf(`for { p <- Patients, p.score > %d } yield count p`, i)
		prepareTraced(t, e, q)
		if _, outcome := prepareTraced(t, e, q); outcome != "hit" {
			t.Fatalf("second prepare of new text %d: plan_cache=%s, want hit", i, outcome)
		}
	}
}

// TestSpillSkipsCleanedGeneration: a cleaned generation's columns are not
// the file's, so they must not spill under the file's generation for a
// restarted engine to rehydrate.
func TestSpillSkipsCleanedGeneration(t *testing.T) {
	dir := t.TempDir()
	path := writePatients(t, t.TempDir(), "p.csv", patientRows(0, 50, -1))
	count := func(e *Engine) int64 {
		t.Helper()
		v, err := e.Query(`for { p <- P } yield count p.score`)
		if err != nil {
			t.Fatal(err)
		}
		return v.Int()
	}
	if got := count(freshEngine(t, path, Options{CacheDir: dir}, skipScore)); got != 11 {
		t.Fatalf("cleaned engine counts %d, want 11", got)
	}
	if got := count(freshEngine(t, path, Options{CacheDir: dir})); got != 50 {
		t.Fatalf("restarted engine without the cleaner counts %d, want 50: it rehydrated cleaned columns", got)
	}
	if got := count(freshEngine(t, path, Options{CacheDir: dir}, skipScore)); got != 11 {
		t.Fatalf("restarted engine with the cleaner re-attached counts %d, want 11", got)
	}
}

// parkedHarvest starts a cold harvesting scan of fields through the entry
// published under name now and parks it inside its batch loop, after it
// has read its first batch. finish lets it run to completion.
func parkedHarvest(t *testing.T, e *Engine, name string, fields ...string) (finish func()) {
	t.Helper()
	src, ok := e.sourceFor(nil, name, nil)
	if !ok {
		t.Fatalf("no source %s", name)
	}
	parked, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var once atomic.Bool
	faultinject.Set(faultinject.RefreshDuringScan, func() error {
		if once.CompareAndSwap(false, true) {
			close(parked)
			<-release
		}
		return nil
	})
	go func() {
		defer close(done)
		harvestThrough(t, src, fields...)
	}()
	<-parked
	faultinject.Clear(faultinject.RefreshDuringScan)
	var finished atomic.Bool
	return func() {
		if finished.CompareAndSwap(false, true) {
			close(release)
			<-done
		}
	}
}

// lifecycleChange is one kind of catalog change: apply performs it on P
// (whose file is at path) and returns the engine that, fresh, holds the
// catalog the change leaves — nil when P is gone. atPublish, when set,
// runs from the change's first Publish point after the parked harvest.
type lifecycleChange struct {
	name      string
	apply     func(t *testing.T, e *Engine, path string) (fresh func() *Engine)
	atPublish func(t *testing.T, e *Engine)
}

func lifecycleChanges() []lifecycleChange {
	attach := func(rule clean.Rule) func(*testing.T, *Engine, string) func() *Engine {
		return func(t *testing.T, e *Engine, path string) func() *Engine {
			if err := e.AttachCleaner("P", clean.New(rule)); err != nil {
				t.Fatal(err)
			}
			return func() *Engine { return freshEngine(t, path, Options{}, rule) }
		}
	}
	appendRows := func(t *testing.T, e *Engine, path string) func() *Engine {
		appendPatients(t, path)
		if err := e.Refresh(); err != nil {
			t.Fatal(err)
		}
		return func() *Engine { return freshEngine(t, path, Options{}) }
	}
	return []lifecycleChange{
		{name: "reregister", apply: func(t *testing.T, e *Engine, path string) func() *Engine {
			e.Deregister("P")
			next := writePatients(t, filepath.Dir(path), "next.csv", patientRows(0, 50, 1000))
			if err := e.Register(sdg.DefaultDescription("P", sdg.FormatCSV, next, patientsSchema())); err != nil {
				t.Fatal(err)
			}
			return func() *Engine { return freshEngine(t, next, Options{}) }
		}},
		{name: "cleaner-skip", apply: attach(skipScore)},
		{name: "cleaner-null", apply: attach(nullScore)},
		{name: "deregister", apply: func(t *testing.T, e *Engine, _ string) func() *Engine {
			e.Deregister("P")
			return nil
		}},
		{name: "append", apply: appendRows},
		{name: "replace", apply: func(t *testing.T, e *Engine, path string) func() *Engine {
			writePatients(t, filepath.Dir(path), filepath.Base(path), patientRows(0, 40, 3))
			bumpMtime(t, path)
			if err := e.Refresh(); err != nil {
				t.Fatal(err)
			}
			return func() *Engine { return freshEngine(t, path, Options{}) }
		}},
		// A NullField cleaner keeps the row count, so its columns would
		// extend: the append must see the cleaner attached under it, and a
		// cleaned harvest installed before it, and replace.
		{name: "append-cleaner-at-publish", apply: func(t *testing.T, e *Engine, path string) func() *Engine {
			appendRows(t, e, path)
			return func() *Engine { return freshEngine(t, path, Options{}, nullScore) }
		}, atPublish: func(t *testing.T, e *Engine) {
			if err := e.AttachCleaner("P", clean.New(nullScore)); err != nil {
				t.Error(err)
			}
			for _, q := range lifecycleQueries {
				if _, err := e.Query(q); err != nil {
					t.Error(err)
				}
			}
		}},
	}
}

// TestLifecycleHarvestMatrix crosses every change kind with both places a
// harvest of the outgoing generation can complete — from the change's
// Publish point, or after the change returned — in every cache state, and
// runs plans prepared before the change after it.
func TestLifecycleHarvestMatrix(t *testing.T) {
	defer faultinject.Reset()
	states := []struct {
		name string
		opts func(t *testing.T) Options
	}{
		{"hot", func(*testing.T) Options { return Options{} }},
		{"encoded", func(*testing.T) Options { return Options{CacheHotBytes: 1} }},
		{"cache-dir", func(t *testing.T) Options { return Options{CacheDir: t.TempDir()} }},
	}
	for _, st := range states {
		for _, ch := range lifecycleChanges() {
			for _, atPublish := range []bool{true, false} {
				boundary := "after"
				if atPublish {
					boundary = "at-publish"
				}
				t.Run(st.name+"/"+ch.name+"/"+boundary, func(t *testing.T) {
					defer faultinject.Reset()
					path := writePatients(t, t.TempDir(), "p.csv", patientRows(0, 50, -1))
					e := freshEngine(t, path, st.opts(t))
					// Warm-up caches id and age; the parked scan harvests score.
					if _, err := e.Query(lifecycleQueries[3]); err != nil {
						t.Fatal(err)
					}
					// The plan column: plans prepared before the change run after it.
					plans := make([]*Prepared, len(lifecycleQueries))
					for i, q := range lifecycleQueries {
						var err error
						if plans[i], err = e.Prepare(q); err != nil {
							t.Fatal(err)
						}
					}
					finish := parkedHarvest(t, e, "P", "score")
					defer finish()
					var fired atomic.Bool
					faultinject.Set(faultinject.Publish, func() error {
						if !fired.CompareAndSwap(false, true) {
							return nil
						}
						if atPublish {
							finish()
						}
						if ch.atPublish != nil {
							ch.atPublish(t, e)
						}
						return nil
					})
					fresh := ch.apply(t, e, path)
					faultinject.Clear(faultinject.Publish)
					finish()
					if fresh == nil {
						if _, err := e.Query(lifecycleQueries[0]); err == nil {
							t.Fatal("a query over the deregistered source answered")
						}
						for _, l := range []cache.Layout{cache.LayoutColumns, cache.LayoutRows} {
							if _, ok := e.Caches().Peek("P", l); ok {
								t.Fatalf("the deregistered source keeps a %v cache entry", l)
							}
						}
						for i, p := range plans {
							if _, err := p.Run(); err == nil {
								t.Fatalf("%s, prepared before the change, answered over the deregistered source", lifecycleQueries[i])
							}
						}
						return
					}
					f := fresh()
					assertLikeFresh(t, e, f, ch.name)
					want := lifecycleAnswers(t, f, ch.name+" (fresh engine)")
					for i, p := range plans {
						if got, err := p.Run(); err != nil || !values.Equal(got, want[i]) {
							t.Fatalf("%s, prepared before the change: %v (%v), want %v (fresh engine)", lifecycleQueries[i], got, err, want[i])
						}
					}
				})
			}
		}
	}
}

// TestRefreshCleanerAttachedMidRefresh: a cleaner attached while Refresh
// is between sources — after it listed them, before it reached this one —
// is seen by the append, so cleaned columns harvested before it are
// replaced rather than extended by raw tail rows. Two sources over one
// file change together; from the first Publish point both get a NullField
// cleaner (row count unchanged) and a cleaned harvest of the score column,
// which for the source still to come covers exactly the old rows.
func TestRefreshCleanerAttachedMidRefresh(t *testing.T) {
	defer faultinject.Reset()
	path := writePatients(t, t.TempDir(), "p.csv", patientRows(0, 50, -1))
	names := []string{"P", "Q"}
	e := NewEngine(Options{})
	for _, name := range names {
		if err := e.Register(sdg.DefaultDescription(name, sdg.FormatCSV, path, patientsSchema())); err != nil {
			t.Fatal(err)
		}
	}
	appendPatients(t, path)
	var fired atomic.Bool
	faultinject.Set(faultinject.Publish, func() error {
		if fired.CompareAndSwap(false, true) {
			for _, name := range names {
				if err := e.AttachCleaner(name, clean.New(nullScore)); err != nil {
					t.Error(err)
				}
				if _, err := e.Query(`for { p <- ` + name + `, p.score > 5 } yield count p`); err != nil {
					t.Error(err)
				}
			}
		}
		return nil
	})
	if err := e.Refresh(); err != nil {
		t.Fatal(err)
	}
	faultinject.Clear(faultinject.Publish)
	fresh := freshEngine(t, path, Options{}, nullScore)
	for _, q := range lifecycleQueries {
		want, err := fresh.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			q := strings.Replace(q, "<- P", "<- "+name, 1)
			if got, err := e.Query(q); err != nil || !values.Equal(got, want) {
				t.Fatalf("%s = %v (%v), want %v (fresh engine)", q, got, err, want)
			}
		}
	}
}
