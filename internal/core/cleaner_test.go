package core

import (
	"sync"
	"testing"

	"vida/internal/clean"
)

// TestCleanerCountersConcurrent runs concurrent queries over one cleaned
// source with caching off, so every query re-reads (and re-cleans) all 50
// rows: the cleaner's counters must add up exactly. Under -race this is
// also the data-race probe for Cleaner.Apply.
func TestCleanerCountersConcurrent(t *testing.T) {
	e := newEngine(t, Options{DisableCaching: true})
	c := clean.New(clean.Rule{Attr: "age", Policy: clean.NullField, Max: clean.Float(60)})
	if err := e.AttachCleaner("Patients", c); err != nil {
		t.Fatal(err)
	}
	const goroutines, queries, rows = 4, 20, 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queries; i++ {
				v, err := e.Query(`for { p <- Patients } yield count p`)
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
	// Ages run 20..69: the nine rows above 60 are nulled on every pass.
	if st.RowsChecked != goroutines*queries*rows || st.FieldsNulled != goroutines*queries*9 || st.RowsSkipped != 0 {
		t.Fatalf("cleaner stats = %+v, want %d rows checked and %d fields nulled", st, goroutines*queries*rows, goroutines*queries*9)
	}
}
