package core

import (
	"log/slog"

	"vida/internal/cache"
	"vida/internal/rawcsv"
	"vida/internal/vec"
)

// Refresh re-checks every file-backed source. A CSV file that only grew
// keeps what the engine built over it: the reader extends its positional
// map by the tail (rawcsv.Reader.Refresh), the columnar cache entry is
// extended by the same rows, and compiled plans survive. Any other change
// drops the source's auxiliary structures and cache entries wholesale and
// every cached plan with them (paper §2.1). Either way the epoch moves,
// after the caches are consistent with the new generation, so results
// keyed on it roll over.
func (e *Engine) Refresh() error {
	e.refreshMu.Lock()
	defer e.refreshMu.Unlock()
	// Readers are reached through the entry's typed fields, not through
	// src: a cleaner wraps src and would hide the reader behind it.
	type target struct {
		entry   *sourceEntry
		cleaned bool
	}
	e.mu.RLock()
	targets := make([]target, 0, len(e.sources))
	for _, s := range e.sources {
		if s.csv != nil || s.json != nil {
			_, cleaned := s.src.(*cleanedSource)
			targets = append(targets, target{entry: s, cleaned: cleaned})
		}
	}
	e.mu.RUnlock()
	// Plans embed cost-model choices made against the old row counts and
	// auxiliary structures; appends leave both close enough to keep them.
	replaced := false
	defer func() {
		if replaced {
			e.dropPlans()
		}
	}()
	for _, t := range targets {
		name := t.entry.desc.Name
		var ch rawcsv.Change
		if t.entry.csv != nil {
			var err error
			if ch, err = t.entry.csv.Refresh(); err != nil {
				return err
			}
		} else {
			changed, err := t.entry.json.Refresh()
			if err != nil {
				return err
			}
			if changed {
				ch = rawcsv.Change{Kind: rawcsv.Replaced, Reason: "json sources are re-read whole"}
			}
		}
		if ch.Kind == rawcsv.Appended {
			if reason := e.extendCached(t.entry, t.cleaned, ch); reason != "" {
				ch = rawcsv.Change{Kind: rawcsv.Replaced, Reason: reason}
			}
		}
		switch ch.Kind {
		case rawcsv.Unchanged:
			continue
		case rawcsv.Appended:
			e.refreshAppends.Add(1)
			e.refreshTailRows.Add(int64(ch.NewRows - ch.OldRows))
			e.refreshTailBytes.Add(ch.TailBytes)
			// The sidecar is validated by size and mtime: keep it describing
			// the file on disk so a restart still skips the first-touch build.
			e.saveAux(t.entry)
			slog.Debug("core: refresh", "dataset", name, "path", "append",
				"rows", ch.NewRows-ch.OldRows, "bytes", ch.TailBytes)
		case rawcsv.Replaced:
			replaced = true
			e.caches.Invalidate(name)
			e.refreshReplacements.Add(1)
			slog.Debug("core: refresh", "dataset", name, "path", "replace", "reason", ch.Reason)
		}
		e.epoch.Add(1)
	}
	return nil
}

// extendCached brings the columnar cache entry of an appended CSV source
// up to the reader's new generation by parsing the tail rows of exactly
// the columns the entry holds. It returns "" when the cache is consistent
// with the new generation (extended, or holding nothing for the source)
// and otherwise the reason the caller must invalidate instead.
func (e *Engine) extendCached(s *sourceEntry, cleaned bool, ch rawcsv.Change) string {
	if cleaned {
		return "cleaner attached: cached values are not the file's"
	}
	name := s.desc.Name
	if e.opts.DisableCaching {
		return ""
	}
	entry, ok := e.caches.Peek(name, cache.LayoutColumns)
	if !ok {
		for _, l := range []cache.Layout{cache.LayoutRows, cache.LayoutBSON, cache.LayoutSpans} {
			if _, ok := e.caches.Peek(name, l); ok {
				return "cached in a layout that cannot be extended"
			}
		}
		return ""
	}
	if entry.N != ch.OldRows {
		return "cached columns do not cover every row of the previous generation"
	}
	fields := entry.ColumnNames()
	scan, n, ok := s.csv.OpenRange(fields)
	if !ok || n != ch.NewRows {
		return "a cached column is no longer in the positional map"
	}
	tailRows := ch.NewRows - ch.OldRows
	if tailRows == 0 {
		return "" // the tail held no rows (blank lines)
	}
	builders := make([]*vec.ColBuilder, len(fields))
	for i := range builders {
		builders[i] = vec.NewColBuilder(tailRows)
	}
	got := 0
	err := scan(ch.OldRows, ch.NewRows, vec.DefaultBatchSize, func(b *vec.Batch) error {
		for i := range builders {
			builders[i].Append(&b.Cols[i], b)
		}
		got += b.Len()
		return nil
	})
	if err != nil || got != tailRows {
		return "a tail row is malformed for a cached column"
	}
	tail := make(map[string]vec.Col, len(fields))
	for i, f := range fields {
		tail[f] = builders[i].Finish()
	}
	if !e.caches.ExtendColumns(name, ch.OldRows, tail) {
		return "cache entry changed shape during the refresh"
	}
	return ""
}
