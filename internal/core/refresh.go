package core

import (
	"errors"
	"log/slog"

	"vida/internal/cache"
	"vida/internal/rawcsv"
	"vida/internal/vec"
)

// Refresh re-checks every file-backed source. A reader is one generation
// of its file: its Refresh returns the successor, which only publish
// shows to later scans, so one query reads one file. A CSV file that only
// grew keeps what the engine built over it: the successor extends the
// positional map by the tail (rawcsv.Reader.Refresh) and the columnar
// cache entry is extended by the same rows. Any other change drops the
// source's auxiliary structures and cache entries wholesale (paper §2.1).
func (e *Engine) Refresh() error {
	e.refreshMu.Lock()
	defer e.refreshMu.Unlock()
	e.mu.RLock()
	targets := make([]*sourceEntry, 0, len(e.sources))
	for _, s := range e.sources {
		if s.csv != nil || s.json != nil {
			targets = append(targets, s)
		}
	}
	e.mu.RUnlock()
	for _, s := range targets {
		if err := e.refresh(s); err != nil {
			return err
		}
	}
	return nil
}

// errSuperseded aborts the publish of a successor whose reader was
// replaced or removed meanwhile.
var errSuperseded = errors.New("core: the refreshed reader is no longer published")

// refresh publishes the successor of s's reader, wrapped in the cleaner
// of the entry published then, if that entry still holds s's reader;
// else, like a stale harvest, the successor is dropped.
func (e *Engine) refresh(s *sourceEntry) error {
	name := s.desc.Name
	next := *s // s with its reader replaced by the successor
	var ch rawcsv.Change
	var err error
	if s.csv != nil {
		next.csv, ch, err = s.csv.Refresh()
	} else {
		var changed bool
		next.json, changed, err = s.json.Refresh()
		if changed {
			ch = rawcsv.Change{Kind: rawcsv.Replaced, Reason: "json sources are re-read whole"}
		}
	}
	if err != nil || ch.Kind == rawcsv.Unchanged {
		return err
	}
	var tail map[string]vec.Col
	if ch.Kind == rawcsv.Appended {
		tail, ch.Reason = e.parseTail(s, next.csv, ch)
	}
	var published *sourceEntry
	err = e.publish(name, func(cur *sourceEntry) (*sourceEntry, bool, error) {
		if cur == nil || cur.csv != s.csv || cur.json != s.json {
			return nil, false, errSuperseded
		}
		succ := *cur
		succ.csv, succ.json = next.csv, next.json
		published = succ.derive()
		if ch.Kind == rawcsv.Appended && ch.Reason == "" {
			ch.Reason = e.extendCache(published, ch, tail)
		}
		if ch.Reason != "" {
			ch.Kind = rawcsv.Replaced
		}
		return published, ch.Kind == rawcsv.Appended, nil
	})
	if errors.Is(err, errSuperseded) {
		return nil
	}
	if ch.Kind == rawcsv.Appended {
		e.refreshAppends.Add(1)
		e.refreshTailRows.Add(int64(ch.NewRows - ch.OldRows))
		e.refreshTailBytes.Add(ch.TailBytes)
		// The sidecar is validated by size and mtime: keep it describing
		// the file on disk so a restart still skips the first-touch build.
		_ = e.whileCurrent([]Generation{{Source: name, Gen: published.gen}}, func() error {
			e.saveAux(published)
			return nil
		})
		slog.Debug("core: refresh", "dataset", name, "path", "append",
			"rows", ch.NewRows-ch.OldRows, "bytes", ch.TailBytes)
	} else {
		e.refreshReplacements.Add(1)
		slog.Debug("core: refresh", "dataset", name, "path", "replace", "reason", ch.Reason)
	}
	return nil
}

// parseTail parses, outside every lock, the tail rows of an appended CSV
// source from its successor next for exactly the columns its columnar
// cache entry holds. A nil tail and no reason means nothing was cached; a
// reason means the cache cannot follow the append and the change is a
// replace.
func (e *Engine) parseTail(s *sourceEntry, next *rawcsv.Reader, ch rawcsv.Change) (map[string]vec.Col, string) {
	entry, ok := e.caches.Peek(s.desc.Name, cache.LayoutColumns)
	if !ok || s.cleaner != nil {
		return nil, "" // extendCache decides under the lock
	}
	if entry.N != ch.OldRows {
		return nil, "cached columns do not cover every row of the previous generation"
	}
	fields := entry.ColumnNames()
	scan, n, ok := next.OpenRange(fields)
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

// extendCache brings the cache up to next, the appended generation about
// to be published, inside publish and against whatever harvests installed
// meanwhile. It returns "" when the cache is consistent with the grown
// file and otherwise the reason the change must be a replace.
func (e *Engine) extendCache(next *sourceEntry, ch rawcsv.Change, tail map[string]vec.Col) string {
	name := next.desc.Name
	switch {
	case next.cleaner != nil:
		return "cleaner attached: cached values are not the file's"
	case tail != nil:
		// ExtendColumns respills the grown entry under the current spill
		// key, which must already name the successor's content.
		e.caches.SetSpillKey(name, next.csv.Generation)
		if !e.caches.ExtendColumns(name, ch.OldRows, tail) {
			return "the cache holds what the tail cannot extend"
		}
		return ""
	}
	if _, ok := e.caches.Peek(name, cache.LayoutColumns); ok {
		return "cached columns the tail was not parsed for"
	}
	return ""
}
