package core

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vida/internal/algebra"
	"vida/internal/cache"
	"vida/internal/clean"
	"vida/internal/faultinject"
	"vida/internal/jit"
	"vida/internal/rawcsv"
	"vida/internal/sdg"
	"vida/internal/values"
	"vida/internal/vec"
)

// The lifecycle suite holds one rule: a harvest lands only on the catalog
// generation it was scanned from. Whatever a catalog change is and
// wherever a harvest of the outgoing generation completes relative to it,
// the engine answers like a fresh engine over the files and catalog the
// change left.

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

// stallInDropPlans runs change with a plan shard held, so a change that
// drops plans stalls there, waits until the catalog no longer holds the
// entry name had before, runs during, and lets the change finish.
func stallInDropPlans(t *testing.T, e *Engine, name string, change, during func()) {
	t.Helper()
	e.mu.RLock()
	before := e.sources[name]
	e.mu.RUnlock()
	sh := &e.planShards[0]
	sh.mu.RLock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		change()
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		e.mu.RLock()
		swapped := e.sources[name] != before
		e.mu.RUnlock()
		if swapped {
			break
		}
		if time.Now().After(deadline) {
			sh.mu.RUnlock()
			t.Fatal("the change never published")
		}
	}
	during()
	sh.mu.RUnlock()
	<-done
}

// TestPublishAttachCleanerWindow: a cold harvest of the uncleaned entry
// that completes while AttachCleaner is still dropping plans must not
// install uncleaned columns.
func TestPublishAttachCleanerWindow(t *testing.T) {
	e := newEngine(t, Options{})
	old, _ := e.sourceFor(nil, "Patients", nil)
	stallInDropPlans(t, e, "Patients", func() {
		if err := e.AttachCleaner("Patients", clean.New(skipScore)); err != nil {
			t.Error(err)
		}
	}, func() { harvestThrough(t, old, "score") })
	got, err := e.Query(`for { p <- Patients } yield count p.score`)
	if err != nil || got.Int() != 11 {
		t.Fatalf("count p.score after attaching a cleaner = %v (%v), want 11: an uncleaned harvest landed", got, err)
	}
}

// TestPublishReregisterWindow: a harvest of a deregistered file that
// completes while Deregister is still dropping plans must not answer for
// the file registered next under the same name.
func TestPublishReregisterWindow(t *testing.T) {
	e := newEngine(t, Options{})
	next := writePatients(t, t.TempDir(), "next.csv", patientRows(0, 50, 1000))
	old, _ := e.sourceFor(nil, "Patients", nil)
	stallInDropPlans(t, e, "Patients", func() {
		e.Deregister("Patients")
		if err := e.Register(sdg.DefaultDescription("Patients", sdg.FormatCSV, next, patientsSchema())); err != nil {
			t.Error(err)
		}
	}, func() { harvestThrough(t, old, "score") })
	got, err := e.Query(`for { p <- Patients } yield sum p.score`)
	if err != nil || got.Float() != 50000 {
		t.Fatalf("sum p.score over the re-registered file = %v (%v), want 50000: the old file's harvest landed", got, err)
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

// TestDeregisterReleasesReader: once a source is deregistered nothing in
// the engine keeps its reader (and the file's bytes) reachable.
func TestDeregisterReleasesReader(t *testing.T) {
	e := newEngine(t, Options{})
	if _, err := e.Query(`for { p <- Patients, p.age > 30 } yield sum p.score`); err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	func() {
		e.mu.RLock()
		defer e.mu.RUnlock()
		runtime.SetFinalizer(e.sources["Patients"].csv, func(*rawcsv.Reader) { close(released) })
	}()
	e.Deregister("Patients")
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-released:
			runtime.KeepAlive(e)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(e)
	t.Fatal("the deregistered reader is still reachable after 10 collections")
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
// Publish point, or after the change returned — in every cache state.
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
						return
					}
					assertLikeFresh(t, e, fresh(), ch.name)
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
