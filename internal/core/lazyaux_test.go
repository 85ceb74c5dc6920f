package core

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"vida/internal/faultinject"
	"vida/internal/trace"
	"vida/internal/values"
)

// The lazy-sidecar suite: a restarted engine records the positional-map
// sidecar of each CSV source at Register and loads it, once, only when a
// raw scan, the cost model or a Refresh first needs the map. A restart the
// rehydrated cache answers never reads it.

// lazyAuxDir runs the lifecycle queries on an engine with a cache
// directory, so the directory holds the spill of the columns they read and
// the sidecar of their positional map, and returns the directory.
func lazyAuxDir(t *testing.T, path string) string {
	t.Helper()
	dir := t.TempDir()
	lifecycleAnswers(t, freshEngine(t, path, Options{CacheDir: dir}), "populate")
	if aux, _ := filepath.Glob(filepath.Join(dir, "*.posmap")); len(aux) != 1 {
		t.Fatalf("sidecars written: %v", aux)
	}
	return dir
}

// dropSpills removes the spilled cache entries, so a restart over dir
// finds only the sidecar and its first query scans the raw file.
func dropSpills(t *testing.T, dir string) {
	t.Helper()
	spills, _ := filepath.Glob(filepath.Join(dir, "*.vspill"))
	if len(spills) == 0 {
		t.Fatal("no spill files written")
	}
	for _, f := range spills {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}
}

// auxCounters returns the sidecar loads and tokenizing builds of P's
// reader (cumulative over its generations).
func auxCounters(e *Engine) (loads, builds int64) {
	st := CSVReader(e, "P").StatsSnapshot()
	return st["aux_loads"], st["builds"]
}

// TestLazyAuxCacheServedRestartLoadsNothing: every query of a restart is
// served from rehydrated blocks with every raw CSV read armed to fail, and
// the sidecar is never loaded, so the engine reports no auxiliary bytes.
func TestLazyAuxCacheServedRestartLoadsNothing(t *testing.T) {
	defer faultinject.Reset()
	path := writePatients(t, t.TempDir(), "p.csv", patientRows(0, 50, -1))
	dir := lazyAuxDir(t, path)
	want := lifecycleAnswers(t, freshEngine(t, path, Options{}), "fresh")

	faultinject.Set(faultinject.CSVRead, faultinject.Always(faultinject.ErrInjected))
	e := freshEngine(t, path, Options{CacheDir: dir})
	got := lifecycleAnswers(t, e, "restarted")
	for i := range want {
		if !values.Equal(got[i], want[i]) {
			t.Fatalf("%s = %v, want %v", lifecycleQueries[i], got[i], want[i])
		}
	}
	st := e.StatsSnapshot()
	if st.RawScans != 0 || st.Cache.RehydratedBlocks == 0 {
		t.Fatalf("restart: %d raw scans, %d blocks rehydrated", st.RawScans, st.Cache.RehydratedBlocks)
	}
	if loads, _ := auxCounters(e); loads != 0 || st.AuxiliaryBytes != 0 {
		t.Fatalf("a cache-served restart loaded the sidecar %d times (%d auxiliary bytes)", loads, st.AuxiliaryBytes)
	}
}

// TestLazyAuxRawQueryLoadsOnce: with no spill to rehydrate, the first
// query scans the raw file over the loaded sidecar — one load, recorded
// on that query's trace, and no tokenizing build — and later queries load
// nothing more. Every answer is a fresh engine's.
func TestLazyAuxRawQueryLoadsOnce(t *testing.T) {
	path := writePatients(t, t.TempDir(), "p.csv", patientRows(0, 50, -1))
	dir := lazyAuxDir(t, path)
	dropSpills(t, dir)
	e := freshEngine(t, path, Options{CacheDir: dir})
	if loads, _ := auxCounters(e); loads != 0 {
		t.Fatalf("Register loaded the sidecar %d times", loads)
	}

	tr := trace.New("t", "test")
	if _, err := e.QueryCtx(trace.WithTracer(context.Background(), tr), lifecycleQueries[2]); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	if ev := tr.Snapshot().Find("sidecar_load"); ev == nil || ev.Attrs["source"] != "P" {
		t.Fatalf("the first raw query recorded no sidecar_load event for P: %+v", ev)
	}
	if loads, builds := auxCounters(e); loads != 1 || builds != 0 {
		t.Fatalf("first raw query: %d loads, %d builds; want 1 and 0", loads, builds)
	}
	if st := e.StatsSnapshot(); st.AuxiliaryBytes == 0 || st.RawScans == 0 {
		t.Fatalf("after the load: %d auxiliary bytes, %d raw scans", st.AuxiliaryBytes, st.RawScans)
	}
	assertLikeFresh(t, e, freshEngine(t, path, Options{}), "after the load")
	if loads, builds := auxCounters(e); loads != 1 || builds != 0 {
		t.Fatalf("later queries: %d loads, %d builds; want 1 and 0", loads, builds)
	}
}

// TestLazyAuxAppendRefreshExtendsLoadedMap: an append refreshed before any
// raw scan loads the sidecar and extends it, so the change is an append
// (the cache is kept and extended), not a replace, and the answers are a
// fresh engine's over the grown file.
func TestLazyAuxAppendRefreshExtendsLoadedMap(t *testing.T) {
	path := writePatients(t, t.TempDir(), "p.csv", patientRows(0, 50, -1))
	dir := lazyAuxDir(t, path)
	e := freshEngine(t, path, Options{CacheDir: dir})
	appendPatients(t, path)
	if err := e.Refresh(); err != nil {
		t.Fatal(err)
	}
	st := e.StatsSnapshot()
	if st.RefreshAppends != 1 || st.RefreshReplacements != 0 || st.RefreshTailRows != 10 {
		t.Fatalf("refresh: %d appends (%d tail rows), %d replacements; want one append of 10 rows",
			st.RefreshAppends, st.RefreshTailRows, st.RefreshReplacements)
	}
	if loads, builds := auxCounters(e); loads != 1 || builds != 0 {
		t.Fatalf("refresh: %d loads, %d builds; want 1 and 0", loads, builds)
	}
	if n := CSVReader(e, "P").PosMap().NumRows(); n != 60 {
		t.Fatalf("the refreshed map indexes %d rows, want 60", n)
	}
	assertLikeFresh(t, e, freshEngine(t, path, Options{}), "after the append")
	if st := e.StatsSnapshot(); st.RawScans != 0 {
		t.Fatalf("queries after the append touched raw %d times", st.RawScans)
	}
}

// TestLazyAuxConcurrentFirstScans: first raw scans race each other and an
// appending Refresh on a restarted engine. The sidecar loads exactly once,
// every query succeeds, and afterwards the engine answers like a fresh
// one over the grown file.
func TestLazyAuxConcurrentFirstScans(t *testing.T) {
	path := writePatients(t, t.TempDir(), "p.csv", patientRows(0, 50, -1))
	dir := lazyAuxDir(t, path)
	dropSpills(t, dir)
	e := freshEngine(t, path, Options{CacheDir: dir})
	appendPatients(t, path)
	const queries = 6
	var wg sync.WaitGroup
	errs := make(chan error, queries+1) // one per query and the Refresh
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			if _, err := e.Query(q); err != nil {
				errs <- err
			}
		}(lifecycleQueries[i%len(lifecycleQueries)])
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := e.Refresh(); err != nil {
			errs <- err
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if loads, _ := auxCounters(e); loads != 1 {
		t.Fatalf("concurrent first scans loaded the sidecar %d times, want 1", loads)
	}
	assertLikeFresh(t, e, freshEngine(t, path, Options{}), "after the race")
	if loads, _ := auxCounters(e); loads != 1 {
		t.Fatalf("the successor loaded a sidecar again: %d loads", loads)
	}
}
