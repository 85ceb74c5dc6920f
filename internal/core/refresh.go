package core

import (
	"log/slog"

	"vida/internal/cache"
	"vida/internal/rawcsv"
	"vida/internal/vec"
)

// Refresh re-checks every file-backed source. A CSV file that only grew
// keeps what the engine built over it: the reader extends its positional
// map by the tail (rawcsv.Reader.Refresh) and the columnar cache entry is
// extended by the same rows. Any other change drops the source's
// auxiliary structures and cache entries wholesale (paper §2.1). Either
// way the change is one publish of a new generation, so plans and cached
// results that read the source are prepared and computed again.
func (e *Engine) Refresh() error {
	e.refreshMu.Lock()
	defer e.refreshMu.Unlock()
	// Readers are reached through the entry's typed fields, not through
	// src: a cleaner wraps src and would hide the reader behind it.
	e.mu.RLock()
	targets := make([]*sourceEntry, 0, len(e.sources))
	for _, s := range e.sources {
		if s.csv != nil || s.json != nil {
			targets = append(targets, s)
		}
	}
	e.mu.RUnlock()
	for _, s := range targets {
		name := s.desc.Name
		var ch rawcsv.Change
		if s.csv != nil {
			var err error
			if ch, err = s.csv.Refresh(); err != nil {
				return err
			}
		} else {
			changed, err := s.json.Refresh()
			if err != nil {
				return err
			}
			if changed {
				ch = rawcsv.Change{Kind: rawcsv.Replaced, Reason: "json sources are re-read whole"}
			}
		}
		if ch.Kind == rawcsv.Unchanged {
			continue
		}
		var tail map[string]vec.Col
		if ch.Kind == rawcsv.Appended {
			tail, ch.Reason = e.parseTail(s, ch)
		}
		_ = e.publish(name, func(cur *sourceEntry) (*sourceEntry, bool, error) { // cannot fail
			if ch.Kind == rawcsv.Appended && ch.Reason == "" {
				ch.Reason = e.extendCache(cur, s, ch, tail)
			}
			if ch.Reason != "" {
				ch.Kind = rawcsv.Replaced
			}
			if cur == nil {
				return nil, false, nil // deregistered meanwhile
			}
			next := *cur
			return &next, ch.Kind == rawcsv.Appended, nil
		})
		if ch.Kind == rawcsv.Appended {
			e.refreshAppends.Add(1)
			e.refreshTailRows.Add(int64(ch.NewRows - ch.OldRows))
			e.refreshTailBytes.Add(ch.TailBytes)
			// The sidecar is validated by size and mtime: keep it describing
			// the file on disk so a restart still skips the first-touch build.
			e.saveAux(s)
			slog.Debug("core: refresh", "dataset", name, "path", "append",
				"rows", ch.NewRows-ch.OldRows, "bytes", ch.TailBytes)
		} else {
			e.refreshReplacements.Add(1)
			slog.Debug("core: refresh", "dataset", name, "path", "replace", "reason", ch.Reason)
		}
	}
	return nil
}

// parseTail parses, outside every lock, the tail rows of an appended CSV
// source for exactly the columns its columnar cache entry holds. A nil
// tail and no reason means nothing was cached; a reason means the cache
// cannot follow the append and the change is a replace.
func (e *Engine) parseTail(s *sourceEntry, ch rawcsv.Change) (map[string]vec.Col, string) {
	entry, ok := e.caches.Peek(s.desc.Name, cache.LayoutColumns)
	if !ok || s.cleaned() {
		return nil, "" // extendCache decides under the lock
	}
	if entry.N != ch.OldRows {
		return nil, "cached columns do not cover every row of the previous generation"
	}
	fields := entry.ColumnNames()
	scan, n, ok := s.csv.OpenRange(fields)
	if !ok || n != ch.NewRows {
		return nil, "a cached column is no longer in the positional map"
	}
	tailRows := ch.NewRows - ch.OldRows
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
		return nil, "a tail row is malformed for a cached column"
	}
	tail := make(map[string]vec.Col, len(fields))
	for i, f := range fields {
		tail[f] = builders[i].Finish()
	}
	return tail, ""
}

// extendCache brings the cache up to an appended generation, inside
// publish: against the entry published now (cur), not the one the refresh
// started from (was), and against whatever harvests installed meanwhile.
// It returns "" when the cache is consistent with the grown file and
// otherwise the reason the change must be a replace.
func (e *Engine) extendCache(cur, was *sourceEntry, ch rawcsv.Change, tail map[string]vec.Col) string {
	name := was.desc.Name
	switch {
	case cur == nil || cur.csv != was.csv:
		return "the source was re-registered during the refresh"
	case cur.cleaned():
		return "cleaner attached: cached values are not the file's"
	case tail != nil:
		if !e.caches.ExtendColumns(name, ch.OldRows, tail) {
			return "the cache holds what the tail cannot extend"
		}
		return ""
	}
	for _, l := range []cache.Layout{cache.LayoutColumns, cache.LayoutRows, cache.LayoutBSON, cache.LayoutSpans} {
		if _, ok := e.caches.Peek(name, l); ok {
			return "cached in a layout the tail was not parsed for"
		}
	}
	return ""
}
