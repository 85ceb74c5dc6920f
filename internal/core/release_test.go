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
	var sb strings.Builder
	sb.WriteString("id,age,city,score\n")
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&sb, "%d,%d,c%d,%g\n", i, 20+i%50, i%5, float64(i)/2)
	}
	path := filepath.Join(t.TempDir(), "patients.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	eng := vida.New()
	if err := eng.RegisterCSV("Patients", path, "Record(Att(id, int), Att(age, int), Att(city, string), Att(score, float))", nil); err != nil {
		t.Fatal(err)
	}
	svc := serve.NewService(eng, nil, serve.Config{})
	const q = `for { p <- Patients, p.age > 30 } yield sum p.score`
	for i, want := range []bool{false, true} {
		out, err := svc.Query(context.Background(), q, nil, 0)
		if err != nil || out.Cached != want {
			t.Fatalf("run %d: %v (cached=%v), want cached=%v", i, err, out != nil && out.Cached, want)
		}
	}
	released := make(chan struct{})
	runtime.SetFinalizer(core.CSVReader(eng.Internal(), "Patients"), func(*rawcsv.Reader) { close(released) })
	eng.Internal().Deregister("Patients")
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-released:
			runtime.KeepAlive(svc)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(svc)
	t.Fatal("the deregistered reader is still reachable after 10 collections")
}
