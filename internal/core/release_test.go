package core_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"vida"
	"vida/internal/core"
	"vida/internal/rawcsv"
	"vida/internal/serve"
)

// TestDeregisterReleasesReader: once a source is deregistered nothing
// keeps its reader (and the file's bytes) reachable — not the engine, not
// its plan cache, and not a query service holding a cached result over
// the source. What was derived from a generation records its number, not
// the entry.
func TestDeregisterReleasesReader(t *testing.T) {
	eng, _ := releaseEngine(t)
	svc := serve.NewService(eng, nil, serve.Config{})
	const q = `for { p <- Patients, p.age > 30 } yield sum p.score`
	for i, want := range []bool{false, true} {
		out, err := svc.Query(context.Background(), q, nil, 0)
		if err != nil || out.Cached != want {
			t.Fatalf("run %d: %v (cached=%v), want cached=%v", i, err, out != nil && out.Cached, want)
		}
	}
	released := watchRelease(eng)
	eng.Internal().Deregister("Patients")
	awaitRelease(t, released, "the deregistered reader")
	runtime.KeepAlive(svc)
}

// TestRefreshReleasesPredecessor: a reader is one generation of its file,
// so once Refresh has published the successor nothing keeps the
// predecessor (and its bytes) reachable — not the catalog, the plan
// cache, the cache's spill key or the successor, which shares storage
// with it after an append.
func TestRefreshReleasesPredecessor(t *testing.T) {
	for _, change := range []string{"append", "replace", "cleaned append"} {
		t.Run(change, func(t *testing.T) {
			eng, path := releaseEngine(t)
			if change == "cleaned append" {
				if err := eng.AttachCleaner("Patients", vida.CleanRule{Attr: "score", Policy: vida.CleanNullField, Max: vida.CleanFloat(5)}); err != nil {
					t.Fatal(err)
				}
			}
			const q = `for { p <- Patients, p.age > 30 } yield sum p.age`
			if _, err := eng.Query(q); err != nil {
				t.Fatal(err)
			}
			released := watchRelease(eng)
			// Rewritten in place, an unchanged prefix is an append.
			content := "id,age,city,score\n" + patientsCSV(0, 60)
			if change == "replace" {
				content = "id,age,city,score\n" + patientsCSV(0, 40)
			}
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			at := time.Now().Add(time.Hour)
			if err := os.Chtimes(path, at, at); err != nil {
				t.Fatal(err)
			}
			if err := eng.Refresh(); err != nil {
				t.Fatal(err)
			}
			if st := eng.Internal().StatsSnapshot(); (st.RefreshAppends == 1) != (change == "append") {
				t.Fatalf("refresh stats %+v after the %s", st, change)
			}
			if _, err := eng.Query(q); err != nil {
				t.Fatal(err)
			}
			awaitRelease(t, released, "the "+change+"'s predecessor reader")
		})
	}
}

// patientsCSV renders Patients rows lo..hi-1.
func patientsCSV(lo, hi int) string {
	var sb strings.Builder
	for i := lo; i < hi; i++ {
		fmt.Fprintf(&sb, "%d,%d,c%d,%g\n", i, 20+i%50, i%5, float64(i)/2)
	}
	return sb.String()
}

// releaseEngine registers Patients over a 50-row file on a new engine.
func releaseEngine(t *testing.T) (*vida.Engine, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "patients.csv")
	if err := os.WriteFile(path, []byte("id,age,city,score\n"+patientsCSV(0, 50)), 0o644); err != nil {
		t.Fatal(err)
	}
	eng := vida.New()
	if err := eng.RegisterCSV("Patients", path, "Record(Att(id, int), Att(age, int), Att(city, string), Att(score, float))", nil); err != nil {
		t.Fatal(err)
	}
	return eng, path
}

// watchRelease sets a finalizer on the reader Patients publishes now; the
// channel closes once it ran.
func watchRelease(eng *vida.Engine) <-chan struct{} {
	released := make(chan struct{})
	runtime.SetFinalizer(core.CSVReader(eng.Internal(), "Patients"), func(*rawcsv.Reader) { close(released) })
	return released
}

// awaitRelease collects until released closes, failing after 10 rounds.
func awaitRelease(t *testing.T, released <-chan struct{}, what string) {
	t.Helper()
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-released:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("%s is still reachable after 10 collections", what)
}
