package core

import (
	"sync/atomic"
	"testing"

	"vida/internal/rawcsv"
	"vida/internal/rawfile"
)

// CSVReader returns the reader of name's published generation (nil when
// there is none or it is not a CSV source), for the external tests.
func CSVReader(e *Engine, name string) *rawcsv.Reader {
	s, ok := e.entry(name)
	if !ok {
		return nil
	}
	return s.csv()
}

// countNext counts the successor reads Refresh makes (nextGeneration) until
// the test ends, running after, when given, once each read returns and
// before anything is published over its successor.
func countNext(t *testing.T, after func()) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	was := nextGeneration
	nextGeneration = func(g *rawfile.Generation, held ...*rawfile.Generation) (*rawfile.Generation, rawfile.Change, error) {
		n.Add(1)
		next, ch, err := was(g, held...)
		if after != nil {
			after()
		}
		return next, ch, err
	}
	t.Cleanup(func() { nextGeneration = was })
	return &n
}
