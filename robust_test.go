package vida_test

// Fault-isolation regression tests at the public API: panic containment
// at the execution and stream-producer barriers, double-Close safety on
// Rows, and memory governance degrading gracefully (harvests shed before
// queries die).

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"vida"
	"vida/internal/core"
	"vida/internal/faultinject"
	"vida/internal/workload"
)

func robustEngine(t testing.TB, opts ...vida.Option) *vida.Engine {
	t.Helper()
	dir := t.TempDir()
	sc := workload.Scale{
		PatientsRows:   900,
		PatientsCols:   12,
		GeneticsRows:   700,
		GeneticsCols:   10,
		RegionsObjects: 150,
	}
	paths, err := workload.GenerateAll(dir, sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := vida.New(opts...)
	if err := eng.RegisterCSV("Patients", paths.Patients, workload.PatientsSchema(sc), nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterCSV("Genetics", paths.Genetics, workload.GeneticsSchema(sc), nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterJSON("BrainRegions", paths.Regions, ""); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestPanicContainment: a panic inside a scan becomes a query-scoped
// error; the engine answers the next query as if nothing happened.
func TestPanicContainment(t *testing.T) {
	defer faultinject.Reset()
	eng := robustEngine(t)

	faultinject.Set(faultinject.CSVRead, func() error { panic("injected scan panic") })
	_, err := eng.Query("for { p <- Patients } yield count p")
	if err == nil {
		t.Fatal("query with panicking scan returned nil error")
	}
	if !strings.Contains(err.Error(), "panic recovered") {
		t.Fatalf("err = %v, want a recovered-panic error", err)
	}

	faultinject.Reset()
	res, err := eng.Query("for { p <- Patients } yield count p")
	if err != nil {
		t.Fatalf("engine dead after contained panic: %v", err)
	}
	if res.Len() == 0 {
		t.Fatal("empty result after contained panic")
	}
}

// TestStreamProducerPanicContainment: the same containment on the
// cursor path — the producer goroutine's panic surfaces as Rows.Err,
// never as a crash.
func TestStreamProducerPanicContainment(t *testing.T) {
	defer faultinject.Reset()
	eng := robustEngine(t)

	faultinject.Set(faultinject.CSVRead, func() error { panic("injected producer panic") })
	rows, err := eng.QueryRows("for { p <- Patients } yield bag p.id")
	if err != nil {
		// Planning may fail before the producer starts; that is fine as
		// long as it is the recovered panic, not a crash.
		if !strings.Contains(err.Error(), "panic recovered") {
			t.Fatalf("open err = %v, want recovered panic", err)
		}
		return
	}
	for rows.Next() {
	}
	err = rows.Err()
	rows.Close()
	if err == nil || !strings.Contains(err.Error(), "panic recovered") {
		t.Fatalf("rows.Err() = %v, want recovered panic", err)
	}
}

// TestRowsDoubleCloseRace: Close is idempotent and safe to race with
// another Close and with a reader (run under -race in CI).
func TestRowsDoubleCloseRace(t *testing.T) {
	eng := robustEngine(t)
	for i := 0; i < 10; i++ {
		rows, err := eng.QueryRows("for { p <- Patients } yield bag p.id")
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatalf("no rows: %v", rows.Err())
		}
		var wg sync.WaitGroup
		for c := 0; c < 3; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rows.Close()
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rows.Next() {
			}
		}()
		wg.Wait()
		if err := rows.Close(); err != nil {
			t.Fatalf("Close after Close: %v", err)
		}
	}
}

// TestGlobalBudgetShedsHarvestNotQueries: with a global budget too small
// for the columnar caches, cold scans still answer — the engine sheds
// the harvest (counted in stats) instead of killing the query.
func TestGlobalBudgetShedsHarvestNotQueries(t *testing.T) {
	eng := robustEngine(t, vida.WithMemoryBudget(16<<10))

	res, err := eng.Query("for { p <- Patients } yield count p")
	if err != nil {
		t.Fatalf("cold scan under tiny global budget: %v", err)
	}
	if res.Len() == 0 {
		t.Fatal("empty result")
	}
	mem := eng.Stats().Memory
	if mem.HarvestSkips == 0 {
		t.Fatalf("harvest not shed under a 16KiB global budget: %+v", mem)
	}
	if mem.QueryKills != 0 {
		t.Fatalf("query killed instead of harvest shed: %+v", mem)
	}

	// Rerunning still answers (raw every time, never cached) and matches.
	res2, err := eng.Query("for { p <- Patients } yield count p")
	if err != nil {
		t.Fatal(err)
	}
	if res.Value().String() != res2.Value().String() {
		t.Fatalf("unharvested rescan drifted: %v vs %v", res.Value(), res2.Value())
	}
}

// TestQueryBudgetKillIsTyped: the per-query budget aborts with the
// ErrMemoryBudget sentinel and counts the kill.
func TestQueryBudgetKillIsTyped(t *testing.T) {
	eng := robustEngine(t, vida.WithQueryMemoryBudget(2<<10))
	_, err := eng.Query("for { p <- Patients, g <- Genetics, p.id = g.id } yield count p")
	if !errors.Is(err, core.ErrMemoryBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget", err)
	}
	var mbe *core.MemoryBudgetError
	if !errors.As(err, &mbe) || mbe.Scope != "query" {
		t.Fatalf("err = %#v, want query-scoped MemoryBudgetError", err)
	}
	if kills := eng.Stats().Memory.QueryKills; kills == 0 {
		t.Fatalf("QueryKills = %d, want > 0", kills)
	}
}

// TestQueryBudgetChargesBufferedResults: a buffered collection result is
// retained state like any other, so every collection monoid and the
// ordered root charge the per-query budget for the elements they keep —
// 900 wide Patients records (~828 000 estimated bytes) overrun 16 KiB
// whether they come back as a list, set, bag or ordered bag, through
// either frontend. Results that keep a handful of rows still answer.
func TestQueryBudgetChargesBufferedResults(t *testing.T) {
	eng := robustEngine(t, vida.WithQueryMemoryBudget(16<<10))
	kills := eng.Stats().Memory.QueryKills
	for _, q := range []string{
		"for { p <- Patients } yield list p",
		"for { p <- Patients } yield set p",
		"for { p <- Patients } yield bag p",
		"for { p <- Patients } yield bag p order by p.id",
		"SQL:SELECT * FROM Patients p",
	} {
		var err error
		if sql, ok := strings.CutPrefix(q, "SQL:"); ok {
			_, err = eng.QuerySQL(sql)
		} else {
			_, err = eng.Query(q)
		}
		var mbe *core.MemoryBudgetError
		if !errors.As(err, &mbe) || mbe.Scope != "query" {
			t.Fatalf("%s: err = %v, want a query-scoped *core.MemoryBudgetError", q, err)
		}
		kills++
		if got := eng.Stats().Memory.QueryKills; got != kills {
			t.Fatalf("%s: QueryKills = %d, want %d (one per killed query)", q, got, kills)
		}
	}
	for q, want := range map[string]int{
		"SELECT p.id, p.bmi FROM Patients p ORDER BY p.bmi DESC, p.id LIMIT 10": 10,
		"SELECT p.city, COUNT(*) AS n FROM Patients p GROUP BY p.city":          8,
	} {
		res, err := eng.QuerySQL(q)
		if err != nil {
			t.Fatalf("%s under a 16 KiB budget: %v", q, err)
		}
		if res.Len() != want {
			t.Fatalf("%s: %d rows, want %d", q, res.Len(), want)
		}
	}
}

// TestJoinBuildStallFaultPoint: the jit.join_build_stall point fires on
// every retained build batch, so an injected error aborts the join as a
// query-scoped failure and an injected panic is contained by the same
// barriers as any other executor fault; either way the engine answers
// the identical join once the point is disarmed.
func TestJoinBuildStallFaultPoint(t *testing.T) {
	defer faultinject.Reset()
	eng := robustEngine(t)
	const join = "for { p <- Patients, g <- Genetics, p.id = g.id } yield count p"

	faultinject.Set(faultinject.JoinBuildStall, func() error {
		return errors.New("injected join build stall")
	})
	_, err := eng.Query(join)
	if err == nil || !strings.Contains(err.Error(), "injected join build stall") {
		t.Fatalf("err = %v, want the injected build-stall error", err)
	}
	if faultinject.Hits(faultinject.JoinBuildStall) == 0 {
		t.Fatal("join build ran without hitting the stall point")
	}

	faultinject.Set(faultinject.JoinBuildStall, func() error { panic("injected join build panic") })
	_, err = eng.Query(join)
	if err == nil || !strings.Contains(err.Error(), "panic recovered") {
		t.Fatalf("err = %v, want a recovered-panic error", err)
	}

	// Disarmed, the same join completes and the aborted builds left no
	// poisoned state behind.
	faultinject.Reset()
	res, err := eng.Query(join)
	if err != nil {
		t.Fatalf("join dead after contained build faults: %v", err)
	}
	if res.Value().Int() == 0 {
		t.Fatal("join returned zero matches after contained build faults")
	}
}
