package core

import "vida/internal/rawcsv"

// CSVReader returns the reader of name's published generation (nil when
// there is none or it is not a CSV source), for the external tests.
func CSVReader(e *Engine, name string) *rawcsv.Reader {
	s, ok := e.entry(name)
	if !ok {
		return nil
	}
	return s.csv
}
