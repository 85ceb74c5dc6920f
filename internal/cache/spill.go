package cache

import (
	"fmt"
	"hash/fnv"
	"log/slog"
	"os"
	"path/filepath"
	"strings"

	"vida/internal/colenc"
)

// This file connects the cache's encoded tier to the spill directory:
// columnar entries are persisted as generation-keyed spill files at
// harvest time, a restarting engine rehydrates them back into the
// encoded tier (the first post-restart query then decodes blocks
// instead of re-scanning the raw file), and anything unreadable is
// quarantined as <file>.bad rather than trusted or crashed on.

// spillPrefix returns the filename prefix of a dataset's spill files:
// a hash keeps arbitrary dataset names filesystem-safe, the generation
// suffix varies with the raw file's content.
func spillPrefix(dataset string) string {
	h := fnv.New64a()
	h.Write([]byte(dataset))
	return fmt.Sprintf("c-%016x-", h.Sum64())
}

func (m *Manager) spillPath(dataset, generation string) string {
	return filepath.Join(m.cfg.SpillDir, spillPrefix(dataset)+generation+".vspill")
}

// spillLocked persists a hot or encoded columnar entry to the spill
// directory. Failures only cost the warm restart, so they log and move
// on; the entry stays served from memory either way.
func (m *Manager) spillLocked(e *Entry) {
	if m.cfg.SpillDir == "" {
		return
	}
	gen, ok := m.spillKeys[e.Dataset]
	if !ok {
		return
	}
	tab := e.Enc
	if tab == nil {
		t, err := colenc.EncodeColumns(e.Cols, e.N)
		if err != nil {
			slog.Warn("cache: encoding for spill failed", "dataset", e.Dataset, "err", err)
			return
		}
		tab = t
		m.encodes++
	}
	generation := gen()
	path := m.spillPath(e.Dataset, generation)
	if err := os.MkdirAll(m.cfg.SpillDir, 0o755); err != nil {
		slog.Warn("cache: creating spill dir failed", "dir", m.cfg.SpillDir, "err", err)
		return
	}
	meta := colenc.SpillMeta{Dataset: e.Dataset, Generation: generation}
	if err := colenc.WriteSpillFile(path, meta, tab); err != nil {
		slog.Warn("cache: spill write failed", "dataset", e.Dataset, "path", path, "err", err)
		return
	}
	m.spillWrites++
}

// removeSpillFilesLocked deletes every spill file of a dataset (its
// generation changed or the source was invalidated).
func (m *Manager) removeSpillFilesLocked(dataset string) {
	if m.cfg.SpillDir == "" {
		return
	}
	matches, err := filepath.Glob(filepath.Join(m.cfg.SpillDir, spillPrefix(dataset)+"*.vspill"))
	if err != nil {
		return
	}
	for _, p := range matches {
		os.Remove(p)
	}
}

// quarantineLocked renames an unreadable spill file out of the way so
// rehydration never retries (or trusts) it.
func (m *Manager) quarantineLocked(path string, err error) {
	m.corrupt++
	bad := path + ".bad"
	if rerr := os.Rename(path, bad); rerr != nil {
		slog.Warn("cache: quarantining corrupt spill file failed", "path", path, "read_err", err, "rename_err", rerr)
		return
	}
	slog.Warn("cache: corrupt spill file quarantined", "path", path, "renamed_to", bad, "err", err)
}

// Rehydrate loads a dataset's spill file into the encoded tier, keyed
// to the given raw-file generation. Stale-generation files are deleted,
// corrupt ones quarantined; neither aborts startup. Returns the number
// of encoded blocks brought back (0 when nothing usable was found).
func (m *Manager) Rehydrate(dataset, generation string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cfg.SpillDir == "" {
		return 0
	}
	matches, err := filepath.Glob(filepath.Join(m.cfg.SpillDir, spillPrefix(dataset)+"*.vspill"))
	if err != nil || len(matches) == 0 {
		return 0
	}
	blocks := 0
	for _, path := range matches {
		if !strings.HasSuffix(path, generation+".vspill") {
			os.Remove(path) // stale generation: the raw file moved on
			continue
		}
		meta, tab, rerr := colenc.ReadSpillFile(path)
		if rerr != nil {
			m.quarantineLocked(path, rerr)
			continue
		}
		if meta.Dataset != dataset || meta.Generation != generation {
			m.quarantineLocked(path, fmt.Errorf("cache: spill header names %q@%q, want %q@%q",
				meta.Dataset, meta.Generation, dataset, generation))
			continue
		}
		m.removeLocked(dataset)
		e := &Entry{Dataset: dataset, N: tab.N, Enc: tab, size: tab.SizeBytes()}
		m.entries[dataset] = e
		m.used += e.size
		m.encodedUsed += e.size
		m.touchLocked(e)
		nb := tab.NumBlocks()
		m.rehydrated += int64(nb)
		blocks += nb
		slog.Info("cache: rehydrated spilled entry", "dataset", dataset, "rows", tab.N, "cols", len(tab.Cols), "blocks", nb, "bytes", e.size)
	}
	m.evictLocked()
	return blocks
}

// noteDecodedBlocks tallies on-demand block decodes from scans (called
// without the manager lock).
func (m *Manager) noteDecodedBlocks(n int64) {
	if m == nil {
		return
	}
	m.decodedBlocks.Add(n)
}
