package core

import (
	"fmt"
	"sync"
	"testing"

	"vida/internal/clean"
)

// TestCleanerCountersConcurrent runs concurrent queries over one cleaned
// source with caching off, so every query re-reads (and re-cleans) every
// row: serially, and at 4 workers from the positional map's morsels once
// the first query has built it. The cleaner's counters must add up
// exactly. Under -race this is also the data-race probe for the stage.
func TestCleanerCountersConcurrent(t *testing.T) {
	const goroutines, queries, rows = 4, 10, 10000
	path := writePatients(t, t.TempDir(), "p.csv", patientRows(0, rows, -1))
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			e := freshEngine(t, path, Options{DisableCaching: true, Workers: workers})
			c := clean.New(clean.Rule{Attr: "age", Policy: clean.NullField, Max: clean.Float(60)})
			if err := e.AttachCleaner("P", c); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < queries; i++ {
						v, err := e.Query(`for { p <- P } yield count p`)
						if err != nil {
							errs <- err
							return
						}
						if v.Int() != rows {
							t.Errorf("count = %v, want %d", v, rows)
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			st := c.Stats()
			// Ages run 20..69: the nine rows in fifty above 60 are nulled
			// on every pass.
			nulled := int64(goroutines * queries * rows / 50 * 9)
			if st.RowsChecked != goroutines*queries*rows || st.FieldsNulled != nulled || st.RowsSkipped != 0 || st.FieldsFixed != 0 {
				t.Fatalf("cleaner stats = %+v, want %d rows checked and %d fields nulled", st, goroutines*queries*rows, nulled)
			}
		})
	}
}
