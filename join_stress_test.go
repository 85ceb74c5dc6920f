// Race and determinism stress for the morsel-parallel hash
// join: two 300k-row CSVs joined while Refresh churn atomically replaces
// the build-side file underneath, plus mid-query cancellation once the
// build has started. Every completed parallel result must byte-equal the
// serial engine's, the engine must stay healthy after a cancelled join,
// and no goroutines may leak. These run under -race in CI.
package vida_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"vida"
	"vida/internal/sched"
)

// joinStressRows is sized so the parallel gate (ParallelThreshold)
// engages for both the build and the probe side through the public API
// at its default.
const joinStressRows = 300_000

// writeJoinStressCSVs writes People(id,v) and Dim(id,w), both
// joinStressRows long with identical id domains, so every People row
// matches exactly one Dim row and aggregates are exactly computable.
func writeJoinStressCSVs(t testing.TB, dir string) (people, dim string) {
	t.Helper()
	write := func(name, header string, row func(i int) string) string {
		var sb strings.Builder
		sb.WriteString(header)
		for i := 0; i < joinStressRows; i++ {
			sb.WriteString(row(i))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	people = write("people.csv", "id,v\n", func(i int) string {
		return fmt.Sprintf("%d,%d\n", i, i%7)
	})
	dim = write("dim.csv", "id,w\n", func(i int) string {
		return fmt.Sprintf("%d,%d\n", i, i%100)
	})
	return people, dim
}

func joinStressEngine(t testing.TB, people, dim string, opts ...vida.Option) *vida.Engine {
	t.Helper()
	eng := vida.New(opts...)
	if err := eng.RegisterCSV("People", people, "Record(Att(id, int), Att(v, int))", nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterCSV("Dim", dim, "Record(Att(id, int), Att(w, int))", nil); err != nil {
		t.Fatal(err)
	}
	return eng
}

// joinStressQueries exercise the join with a plain equi key, a
// probe-side predicate, and a build-side predicate that forces retained
// batches through selection compaction.
var joinStressQueries = []string{
	"for { p <- People, d <- Dim, p.id = d.id } yield count p",
	"for { p <- People, d <- Dim, p.id = d.id, d.w > 50 } yield sum p.v",
	"for { p <- People, d <- Dim, p.id = d.id, p.v = 3, d.w < 10 } yield count p",
}

// TestJoinParallelDeterminismUnderChurn joins the two 300k-row CSVs
// morsel-parallel while a churn goroutine atomically rewrites the
// build-side file (same bytes, new mtime) and calls Refresh, so cache
// invalidation and cold rescans race the parallel build. Every
// completed result must equal the serial baseline, and closing
// everything must return the goroutine count to its starting level.
func TestJoinParallelDeterminismUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("300k-row join churn stress skipped in -short mode")
	}
	g0 := runtime.NumGoroutine()

	dir := t.TempDir()
	people, dim := writeJoinStressCSVs(t, dir)

	// Serial oracle on its own copy of the files, warmed before any
	// churn starts.
	serialDir := t.TempDir()
	sPeople, sDim := writeJoinStressCSVs(t, serialDir)
	serial := joinStressEngine(t, sPeople, sDim, vida.WithWorkers(1))
	expected := make(map[string]string, len(joinStressQueries))
	for _, q := range joinStressQueries {
		res, err := serial.Query(q)
		if err != nil {
			t.Fatalf("serial %s: %v", q, err)
		}
		expected[q] = res.String()
	}

	pool := sched.NewPool(4)
	eng := joinStressEngine(t, people, dim,
		vida.WithScheduler(pool), vida.WithWorkers(4))

	// Churn the build side (Dim): atomic rename keeps readers off
	// partial files while Refresh invalidates caches and positional maps
	// mid-join.
	content, err := os.ReadFile(dim)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tmp := filepath.Join(dir, fmt.Sprintf("dim.tmp.%d", i))
			if err := os.WriteFile(tmp, content, 0o644); err != nil {
				t.Error(err)
				return
			}
			now := time.Now().Add(time.Duration(i+1) * 10 * time.Millisecond)
			os.Chtimes(tmp, now, now)
			if err := os.Rename(tmp, dim); err != nil {
				t.Error(err)
				return
			}
			if err := eng.Refresh(); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	const goroutines = 3
	const rounds = 2
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				q := joinStressQueries[(g+r)%len(joinStressQueries)]
				res, err := eng.Query(q)
				if err != nil {
					t.Errorf("parallel %s: %v", q, err)
					return
				}
				if got := res.String(); got != expected[q] {
					t.Errorf("parallel %s = %s, want %s", q, got, expected[q])
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	churn.Wait()

	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := serial.Close(); err != nil {
		t.Fatal(err)
	}
	pool.Close()

	// No goroutine leaks: everything the join spawned (build morsels,
	// probe morsels, churn, pool workers) must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > g0+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: started with %d, still %d after close",
				g0, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJoinCancelMidProbeRecovers cancels a parallel join once the
// build index is sealed (JoinBuildRows bumps at seal, so the query is
// mid-probe) and asserts the cancellation surfaces as context.Canceled
// and a follow-up join on the same engine answers exactly — no cache
// poisoning from the aborted probe.
func TestJoinCancelMidProbeRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("300k-row join cancel stress skipped in -short mode")
	}
	dir := t.TempDir()
	people, dim := writeJoinStressCSVs(t, dir)
	pool := sched.NewPool(4)
	defer pool.Close()
	eng := joinStressEngine(t, people, dim,
		vida.WithScheduler(pool), vida.WithWorkers(4))
	defer eng.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	buildBefore := eng.Stats().JoinBuildRows
	go func() {
		// JoinBuildRows is published when the index seals, well before
		// the 300k-row probe finishes.
		for eng.Stats().JoinBuildRows == buildBefore {
			time.Sleep(50 * time.Microsecond)
		}
		cancel()
	}()
	_, err := eng.QueryCtx(ctx, "for { p <- People, d <- Dim, p.id = d.id } yield count p")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// The abort was query-scoped: the identical join now completes with
	// the exact expected cardinality (bijective id domains).
	res, err := eng.Query("for { p <- People, d <- Dim, p.id = d.id } yield count p")
	if err != nil {
		t.Fatal(err)
	}
	if res.Value().Int() != joinStressRows {
		t.Fatalf("post-cancel join count = %d, want %d", res.Value().Int(), joinStressRows)
	}
}
