// Package cache implements ViDa's data caches: previously-accessed raw
// data kept in memory under query-appropriate layouts (paper §2.1 "ViDa
// also maintains caches of previously accessed data", §5 "Re-using and
// re-shaping results"). The same dataset may be cached simultaneously in
// several layouts — typed columns for analytical scans, parsed objects
// for hierarchical access, binary JSON for RESTful result serving, and
// bare byte spans that defer object assembly to projection time
// (Figure 4).
//
// # Entry layouts
//
// Each (dataset, layout) pair owns at most one Entry:
//
//   - LayoutColumns — one vec.Col per attribute. Columns stay in the
//     typed representation the harvesting scan produced (int64/float64/
//     string payload slices with optional validity masks); attributes
//     whose rows mix types, or that arrive boxed because the plug-in
//     only produces records (lifted by vec.PackRecords), are stored as
//     boxed []values.Value payloads. Warm scans are
//     served as slice windows of these vectors — zero copies, marked
//     vec.Batch.Stable so consumers may retain them header-only.
//   - LayoutRows — record values in row order (the "C++ object"
//     analogue, Fig 4c), for whole-record access without a schema.
//   - LayoutBSON — binary JSON documents (Fig 4b): field projection
//     decodes only the requested attributes.
//   - LayoutSpans — (start, end) byte positions into the raw file
//     (Fig 4d), deferring all parsing to access time.
//
// Columnar entries grow with the workload: a later scan touching new
// attributes extends the entry copy-on-write (published entries are
// never mutated — readers hold Entry pointers outside the manager
// lock), sharing the already-cached column storage.
//
// # Eviction policy
//
// The Manager owns every entry under one byte budget. Entry sizes are
// estimated per column from the physical layout — 8 bytes per int64/
// float64 row, string header plus payload per string row, a deep
// estimated walk for boxed values, one byte per validity-mask row — so
// typed entries charge the budget roughly 7-14x less than their boxed
// equivalents and the same budget holds proportionally more data.
// Eviction is strict LRU over entries (not columns): every Get/Touch
// bumps the entry's logical tick and the lowest tick is dropped until
// the budget holds. A file that changed invalidates all of its
// dataset's entries wholesale — unless it only grew: then Refresh
// extends the columnar entry by the tail rows (ExtendColumns),
// copy-on-write like every other change to a published entry.
//
// # Encoded tier
//
// Columnar entries live in two tiers. The hot tier holds decoded
// vec.Col vectors served as zero-copy windows. When Config.HotBytes is
// set and hot usage exceeds it, least-recently-used columnar entries
// are re-encoded in place as colenc block tables (dictionary-coded
// strings, delta/zig-zag varint ints, checksummed 4096-row blocks) —
// typically 5x+ smaller than the flat vectors they replace, so the same
// budget holds proportionally more data at the price of per-batch
// decode on access. ColumnsSource decodes one block at a time into
// reused buffers (batches are not Stable); low-cardinality string
// columns decode to dictionary-coded windows the JIT filter kernels
// compare as integer codes. Tier membership is part of the accounting:
// Stats splits BytesUsed into HotBytes and EncodedBytes, and the
// encode/decode traffic is counted.
//
// # Disk spill and rehydration
//
// With Config.SpillDir set, every columnar put also writes the encoded
// table to a spill file named by the dataset and a caller-provided
// generation key (a content hash — see SetSpillKey), so a process
// restart can Rehydrate the entry from disk instead of re-scanning the
// raw source. A dataset without a key never spills: the engine keys only
// what is the raw file's own content, so a cleaned generation (repaired
// or dropped rows) stays in memory and a restart never mistakes it for
// the file. Files from stale generations are deleted; truncated or
// checksum-failing files are quarantined (renamed *.bad) and counted,
// never served. Invalidate removes a dataset's spill files along with
// its entries.
package cache
