package core

import (
	"cmp"
	"errors"
	"fmt"
	"log/slog"

	"vida/internal/cache"
	"vida/internal/jit"
	"vida/internal/rawfile"
	"vida/internal/vec"
)

// Refresh re-checks every file-backed source. A reader is one generation
// of its file, and the catalog owns the generation: Refresh asks each
// published generation for its successor once (rawfile.Generation.Next,
// given the generations the catalog holds for the path, so names holding
// different versions of one file converge on one copy), then publishes
// every name over it with a reader built from that one successor, so one
// query reads one file. A CSV file that only grew keeps what the engine
// built over it: the successor's reader extends the positional map by the
// tail (rawcsv.Reader.Follow) and the columnar cache entry is extended by
// the same rows. Any other change drops the source's auxiliary structures
// and cache entries wholesale (paper §2.1). An unreadable file keeps its
// sources' generation; errors are joined.
func (e *Engine) Refresh() error {
	e.refreshMu.Lock()
	defer e.refreshMu.Unlock()
	e.mu.RLock()
	byFile := map[*rawfile.Generation][]*sourceEntry{}
	for _, s := range e.sources {
		if s.file != nil {
			byFile[s.file.File()] = append(byFile[s.file.File()], s)
		}
	}
	e.mu.RUnlock()
	var errs []error
	for g, over := range byFile {
		next, ch, err := nextGeneration(g, e.known(over[0].desc.Path)...)
		for _, s := range over {
			serr := err
			if serr == nil && ch.Kind != rawfile.Unchanged {
				serr = e.refresh(s, next, ch)
			}
			if serr != nil {
				errs = append(errs, fmt.Errorf("core: refresh %s: %w", s.desc.Name, serr))
			}
		}
	}
	return errors.Join(errs...)
}

// nextGeneration is rawfile.Generation.Next, the one read of a changed
// file per Refresh; tests count it.
var nextGeneration = (*rawfile.Generation).Next

// errSuperseded aborts the publish of a successor whose reader was
// replaced or removed meanwhile.
var errSuperseded = errors.New("core: the refreshed reader is no longer published")

// refresh publishes s with a reader over file, the successor of its own
// that Next reported as ch, wrapped in the cleaner of the entry published
// then, if that entry still holds s's reader; else, like a stale harvest,
// the successor is dropped. A CSV reader follows the change; any other
// format is built again over the successor, which replaces it.
func (e *Engine) refresh(s *sourceEntry, file *rawfile.Generation, ch rawfile.Change) error {
	name := s.desc.Name
	var succ plugin
	if r := s.csv(); r != nil {
		succ, ch = r.Follow(file, ch)
	} else {
		var err error
		if succ, err = readers[s.desc.Format](s.desc, file); err != nil {
			return err
		}
		ch.Reason = cmp.Or(ch.Reason, "the format rebuilds its index on any change")
	}
	var tail map[string]vec.Col
	if ch.Kind == rawfile.Appended && ch.Reason == "" { // a CSV reader's append
		tail, ch.Reason = e.parseTail(s, succ.(jit.RangeBatchSource), ch)
	}
	var published *sourceEntry
	err := e.publish(name, func(cur *sourceEntry) (*sourceEntry, bool, error) {
		if cur == nil || cur.file != s.file {
			return nil, false, errSuperseded
		}
		next := *cur
		next.file = succ
		published = next.derive()
		if ch.Kind == rawfile.Appended && ch.Reason == "" {
			ch.Reason = e.extendCache(published, ch, tail)
		}
		if ch.Reason != "" {
			ch.Kind = rawfile.Replaced
		}
		return published, ch.Kind == rawfile.Appended, nil
	})
	if errors.Is(err, errSuperseded) {
		return nil
	}
	if ch.Kind == rawfile.Appended {
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
func (e *Engine) parseTail(s *sourceEntry, next jit.RangeBatchSource, ch rawfile.Change) (map[string]vec.Col, string) {
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
func (e *Engine) extendCache(next *sourceEntry, ch rawfile.Change, tail map[string]vec.Col) string {
	name := next.desc.Name
	switch {
	case next.cleaner != nil:
		return "cleaner attached: cached values are not the file's"
	case tail != nil:
		// ExtendColumns respills the grown entry under the current spill
		// key, which must already name the successor's content.
		e.caches.SetSpillKey(name, next.csv().Generation)
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
