// Exploration: the engine-mechanics tour — watch the auxiliary structures
// and caches do their work. Shows EXPLAIN plans with pushed-down filters
// and pruned projections, the positional map accelerating repeated CSV
// access, file updates invalidating state (paper §2.1), and the executor
// ablation (generated vs static operators) on the same plan.
// Run with: go run ./examples/exploration
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"vida"
)

func main() {
	dir, err := os.MkdirTemp("", "vida-exploration")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// A moderately wide CSV: 40 columns, 20k rows.
	path := filepath.Join(dir, "wide.csv")
	f, err := os.Create(path)
	must(err)
	header := "id"
	for c := 1; c < 40; c++ {
		header += fmt.Sprintf(",c%d", c)
	}
	fmt.Fprintln(f, header)
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(f, "%d", i)
		for c := 1; c < 40; c++ {
			fmt.Fprintf(f, ",%d", (i*c)%1000)
		}
		fmt.Fprintln(f)
	}
	f.Close()

	schema := "Record(Att(id, int)"
	for c := 1; c < 40; c++ {
		schema += fmt.Sprintf(", Att(c%d, int)", c)
	}
	schema += ")"

	eng := vida.New()
	must(eng.RegisterCSV("Wide", path, schema, nil))

	// 1. The optimizer turns the comprehension into a physical plan with
	// the filter inside the scan and only the touched columns decoded.
	query := `for { w <- Wide, w.c7 > 500 } yield avg w.c39`
	plan, err := eng.Explain(query)
	must(err)
	fmt.Println("EXPLAIN", query)
	fmt.Print(plan)

	// 2. First access tokenizes raw bytes and builds the positional map;
	// repeats jump straight to the two columns.
	t0 := time.Now()
	res, err := eng.Query(query)
	must(err)
	cold := time.Since(t0)
	t0 = time.Now()
	_, err = eng.Query(query)
	must(err)
	warm := time.Since(t0)
	fmt.Printf("\navg = %s; cold %v → warm %v (%0.1fx)\n\n",
		res, cold.Round(time.Microsecond), warm.Round(time.Microsecond),
		float64(cold)/float64(warm))

	// 3. In-place file updates drop the affected auxiliary structures
	// (paper §2.1) — the next query sees the new data.
	before, _ := eng.Query(`for { w <- Wide } yield count 1`)
	appendRow(path)
	must(eng.Refresh())
	after, err := eng.Query(`for { w <- Wide } yield count 1`)
	must(err)
	fmt.Printf("rows before append: %s, after Refresh: %s\n\n", before, after)

	// 4. The same plan on the two executors: generated operators vs the
	// interpreter's generic "pre-cooked" operators (the reference
	// executor). Both engines get one warm-up run so the comparison
	// measures pure execution, not first-touch raw parsing (the Refresh
	// above dropped eng's caches).
	staticEng := vida.New(vida.WithReferenceExecutor())
	must(staticEng.RegisterCSV("Wide", path, schema, nil))
	_, _ = staticEng.Query(query)
	_, _ = eng.Query(query)
	t0 = time.Now()
	_, err = eng.Query(query)
	must(err)
	jit := time.Since(t0)
	t0 = time.Now()
	_, err = staticEng.Query(query)
	must(err)
	static := time.Since(t0)
	fmt.Printf("same query: generated operators %v, static operators %v (%.1fx)\n",
		jit.Round(time.Microsecond), static.Round(time.Microsecond),
		float64(static)/float64(jit))
}

func appendRow(path string) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	must(err)
	defer f.Close()
	fmt.Fprintf(f, "999999")
	for c := 1; c < 40; c++ {
		fmt.Fprintf(f, ",1")
	}
	fmt.Fprintln(f)
	// Make sure the mtime visibly moves even on coarse filesystems.
	now := time.Now().Add(2 * time.Second)
	must(os.Chtimes(path, now, now))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
