package core

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vida/internal/rawfile"
	"vida/internal/sdg"
	"vida/internal/values"
)

// The alias suite holds one rule: names registered over one path hold
// one copy of each version of the file (rawfile.Load's known
// generations), and each still answers like a fresh engine over it.

// aliasName is the i-th name registered over file f.
func aliasName(f, i int) string { return fmt.Sprintf("A%d_%d", f, i) }

// aliasEngine registers perFile names over each path.
func aliasEngine(t *testing.T, paths []string, perFile int) *Engine {
	t.Helper()
	e := NewEngine(Options{})
	for i := 0; i < perFile; i++ {
		for f, path := range paths {
			if err := e.Register(sdg.DefaultDescription(aliasName(f, i), sdg.FormatCSV, path, patientsSchema())); err != nil {
				t.Fatal(err)
			}
		}
	}
	return e
}

// aliasFile returns the generation name's reader holds.
func aliasFile(t *testing.T, e *Engine, name string) *rawfile.Generation {
	t.Helper()
	r := CSVReader(e, name)
	if r == nil {
		t.Fatalf("%s is not registered", name)
	}
	return r.File()
}

// assertAliasesLikeFresh runs the lifecycle queries against each name
// and a fresh engine's P over path.
func assertAliasesLikeFresh(t *testing.T, e *Engine, path, step string, names ...string) {
	t.Helper()
	want := lifecycleAnswers(t, freshEngine(t, path, Options{}), step+" (fresh engine)")
	for _, name := range names {
		for i, q := range lifecycleQueries {
			q = strings.Replace(q, "p <- P", "p <- "+name, 1)
			got, err := e.Query(q)
			if err != nil {
				t.Fatalf("%s: %s: %v", step, q, err)
			}
			if !values.Equal(got, want[i]) {
				t.Fatalf("%s: %s\n got  %v\n want %v (fresh engine)", step, q, got, want[i])
			}
		}
	}
}

// assertOneCopy checks that names hold one generation and that it is the
// only copy of the file the engine reports.
func assertOneCopy(t *testing.T, e *Engine, path, step string, names ...string) *rawfile.Generation {
	t.Helper()
	g := aliasFile(t, e, names[0])
	for _, name := range names[1:] {
		if aliasFile(t, e, name) != g {
			t.Fatalf("%s: %s and %s hold two copies of %s", step, names[0], name, path)
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.StatsSnapshot().RawFileBytes; got != fi.Size() {
		t.Fatalf("%s: RawFileBytes = %d, want the file's %d", step, got, fi.Size())
	}
	return g
}

// appendPatientRows appends rows lo..hi-1 to the Patients file at path.
func appendPatientRows(t *testing.T, path string, lo, hi int) {
	t.Helper()
	fh, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.WriteString(patientRows(lo, hi, -1)); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	bumpMtime(t, path)
}

// TestAliasesShareOneGeneration: 36 names over 4 files hold 4 copies —
// RawFileBytes is the 4 file sizes — and answer like fresh engines;
// deregistering all but one name of a file leaves that one answering
// over the same copy.
func TestAliasesShareOneGeneration(t *testing.T) {
	const files, perFile = 4, 9
	dir := t.TempDir()
	var paths []string
	var want int64
	for f := 0; f < files; f++ {
		paths = append(paths, writePatients(t, dir, fmt.Sprintf("p%d.csv", f), patientRows(0, 50+10*f, -1)))
		fi, err := os.Stat(paths[f])
		if err != nil {
			t.Fatal(err)
		}
		want += fi.Size()
	}
	e := aliasEngine(t, paths, perFile)
	if got := e.StatsSnapshot().RawFileBytes; got != want {
		t.Fatalf("RawFileBytes = %d over %d names, want the %d files' %d", got, files*perFile, files, want)
	}
	for f, path := range paths {
		var names []string
		for i := 0; i < perFile; i++ {
			names = append(names, aliasName(f, i))
		}
		g := aliasFile(t, e, names[0])
		for _, name := range names[1:] {
			if aliasFile(t, e, name) != g {
				t.Fatalf("%s and %s hold two copies of %s", names[0], name, path)
			}
		}
		assertAliasesLikeFresh(t, e, path, "registered", names...)
		for _, name := range names[:perFile-1] {
			e.Deregister(name)
		}
		last := names[perFile-1]
		if aliasFile(t, e, last) != g {
			t.Fatalf("deregistering the other names changed %s's generation", last)
		}
		assertAliasesLikeFresh(t, e, path, "after deregistering the others", last)
	}
	if got := e.StatsSnapshot().RawFileBytes; got != want {
		t.Fatalf("RawFileBytes = %d with one name per file, want %d", got, want)
	}
}

// TestAliasesRefreshShareOneSuccessor: after an append, the first name
// Refresh reaches reads the tail and the others adopt its successor, so
// every name holds one copy of the grown file; each name's positional map
// is its own and is extended in its own storage, adopted file or not.
// A rename that replaces the file is read once for all names too.
func TestAliasesRefreshShareOneSuccessor(t *testing.T) {
	const perFile = 5
	path := writePatients(t, t.TempDir(), "p.csv", patientRows(0, 50, -1))
	e := aliasEngine(t, []string{path}, perFile)
	var names []string
	for i := 0; i < perFile; i++ {
		names = append(names, aliasName(0, i))
	}
	assertAliasesLikeFresh(t, e, path, "registered", names...)
	refresh := func(step string) {
		t.Helper()
		if err := e.Refresh(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		assertOneCopy(t, e, path, step, names...)
		assertAliasesLikeFresh(t, e, path, step, names...)
	}
	// The first append leaves every map with spare capacity; the second
	// fits it, so an extension in place keeps the map's storage.
	appendPatientRows(t, path, 50, 60)
	refresh("first append")
	rows := map[string]*int64{}
	for _, name := range names {
		rows[name] = &CSVReader(e, name).PosMap().Snapshot().Rows[0]
	}
	appendPatientRows(t, path, 60, 62)
	before := e.StatsSnapshot()
	refresh("second append")
	inPlace := 0
	for _, name := range names {
		if &CSVReader(e, name).PosMap().Snapshot().Rows[0] == rows[name] {
			inPlace++
		}
	}
	if inPlace != perFile {
		t.Fatalf("%d of %d positional maps extended in place, want all", inPlace, perFile)
	}
	if st := e.StatsSnapshot(); st.RefreshAppends-before.RefreshAppends != perFile {
		t.Fatalf("appends tallied = %d, want %d", st.RefreshAppends-before.RefreshAppends, perFile)
	}

	tmp := path + ".next"
	if err := os.WriteFile(tmp, []byte("id,age,city,score\n"+patientRows(0, 40, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	bumpMtime(t, tmp)
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
	before = e.StatsSnapshot()
	refresh("rename-replace")
	if st := e.StatsSnapshot(); st.RefreshReplacements-before.RefreshReplacements != perFile {
		t.Fatalf("replacements tallied = %d, want %d", st.RefreshReplacements-before.RefreshReplacements, perFile)
	}
}

// TestAliasesScanBesideRefresh: queries over names sharing a file run
// beside appends and Refresh. Each answer is the row count of a version
// of the file, and the names end on one copy answering like a fresh
// engine. Run with -race.
func TestAliasesScanBesideRefresh(t *testing.T) {
	const perFile, appends, perAppend = 4, 8, 25
	path := writePatients(t, t.TempDir(), "p.csv", patientRows(0, 100, -1))
	e := aliasEngine(t, []string{path}, perFile)
	var names []string
	for i := 0; i < perFile; i++ {
		names = append(names, aliasName(0, i))
	}
	var appended atomic.Int64 // rows appended and refreshed so far
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			q := fmt.Sprintf(`for { p <- %s, p.age > 0 } yield count p`, name)
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := 100 + appended.Load()
				v, err := e.Query(q)
				if err != nil {
					t.Error(err)
					return
				}
				// Rows are appended perAppend at a time, and the query
				// started after the first lo were refreshed.
				if n := v.Int(); n < lo || n > 100+appends*perAppend || (n-100)%perAppend != 0 {
					t.Errorf("%s counted %d rows, want a version of at least %d", name, n, lo)
					return
				}
			}
		}(name)
	}
	for a := 0; a < appends; a++ {
		lo := 100 + a*perAppend
		appendPatientRows(t, path, lo, lo+perAppend)
		if err := e.Refresh(); err != nil {
			t.Error(err)
			break
		}
		appended.Add(perAppend)
	}
	close(stop)
	wg.Wait()
	assertOneCopy(t, e, path, "after the appends", names...)
	assertAliasesLikeFresh(t, e, path, "after the appends", names...)
}

// TestNextOncePerGeneration: one Refresh reads each file the catalog
// holds once, however many names are registered over it — after appends,
// after a rename that replaces a file and with nothing changed — and the
// names then hold one copy each file and answer like a fresh engine.
func TestNextOncePerGeneration(t *testing.T) {
	const files, perFile = 2, 6
	dir := t.TempDir()
	var paths []string
	for f := 0; f < files; f++ {
		paths = append(paths, writePatients(t, dir, fmt.Sprintf("p%d.csv", f), patientRows(0, 50, -1)))
	}
	e := aliasEngine(t, paths, perFile)
	for f := range paths {
		for i := 0; i < perFile; i++ {
			if _, err := e.Query(fmt.Sprintf(`for { p <- %s } yield count p.age`, aliasName(f, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	nexts := countNext(t, nil)
	refresh := func(step string) {
		t.Helper()
		before := nexts.Load()
		if err := e.Refresh(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if got := nexts.Load() - before; got != files {
			t.Fatalf("%s: Refresh read %d successors over %d names, want one per file (%d)", step, got, files*perFile, files)
		}
		for f, path := range paths {
			var names []string
			for i := 0; i < perFile; i++ {
				names = append(names, aliasName(f, i))
			}
			g := aliasFile(t, e, names[0])
			for _, name := range names[1:] {
				if aliasFile(t, e, name) != g {
					t.Fatalf("%s: %s and %s hold two copies of %s", step, names[0], name, path)
				}
			}
			assertAliasesLikeFresh(t, e, path, step, names...)
		}
	}
	for _, path := range paths {
		appendPatientRows(t, path, 50, 60)
	}
	before := e.StatsSnapshot()
	refresh("appended")
	if st := e.StatsSnapshot(); st.RefreshAppends-before.RefreshAppends != files*perFile {
		t.Fatalf("appends tallied = %d, want one per name (%d)", st.RefreshAppends-before.RefreshAppends, files*perFile)
	}
	tmp := paths[0] + ".next"
	if err := os.WriteFile(tmp, []byte("id,age,city,score\n"+patientRows(0, 40, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	bumpMtime(t, tmp)
	if err := os.Rename(tmp, paths[0]); err != nil {
		t.Fatal(err)
	}
	refresh("one file replaced")
	refresh("unchanged")
}

// TestDeregisterMidRefresh: a name deregistered after Refresh read its
// file's successor and before anything was published over it is not
// published again, and its siblings are: they hold the successor and
// answer like a fresh engine over the grown file.
func TestDeregisterMidRefresh(t *testing.T) {
	const perFile = 4
	path := writePatients(t, t.TempDir(), "p.csv", patientRows(0, 50, -1))
	e := aliasEngine(t, []string{path}, perFile)
	var names []string
	for i := 0; i < perFile; i++ {
		names = append(names, aliasName(0, i))
	}
	assertAliasesLikeFresh(t, e, path, "registered", names...)
	gone := names[1]
	countNext(t, func() { e.Deregister(gone) })
	appendPatientRows(t, path, 50, 60)
	before := e.StatsSnapshot()
	if err := e.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Description(gone); ok {
		t.Fatalf("%s was published again after it was deregistered", gone)
	}
	siblings := append([]string{names[0]}, names[2:]...)
	if st := e.StatsSnapshot(); st.RefreshAppends-before.RefreshAppends != int64(len(siblings)) {
		t.Fatalf("appends tallied = %d, want one per sibling (%d)", st.RefreshAppends-before.RefreshAppends, len(siblings))
	}
	assertOneCopy(t, e, path, "after the refresh", siblings...)
	assertAliasesLikeFresh(t, e, path, "after the refresh", siblings...)
}
