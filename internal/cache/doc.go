// Package cache implements ViDa's data caches: previously-accessed raw
// data kept in memory (paper §2.1 "ViDa also maintains caches of
// previously accessed data") as "replicas of tabular, row-oriented data
// in a columnar format" (§5).
//
// # One entry per dataset
//
// A dataset owns at most one Entry: one vec.Col per attribute. Columns
// stay in the typed representation the harvesting scan produced
// (int64/float64/string payload slices with optional validity masks),
// with one exception: a string column that passes the dictionary rule
// (vec.DictEncode: at most vec.MaxDictSize distinct strings, at most one
// per two rows — the rule the encoded tier applies too) is installed as
// vec.StrDict, codes over one sorted dictionary that every window of
// the column shares, so filters compare codes and a GROUP BY on it
// indexes its group table by code. The encode runs before the manager
// lock is taken. Attributes whose rows mix types, or that arrive boxed
// because the plug-in only produces records (lifted by vec.PackRecords)
// or hold nested values, are stored as boxed []values.Value payloads.
// Warm scans are served as slice windows of these vectors — zero copies,
// marked vec.Batch.Stable so consumers may retain them header-only. A
// whole-record scan is the scan of every attribute, so it reads and
// grows the same entry a projected scan does.
//
// Entries grow with the workload: a later scan touching new attributes
// extends the entry copy-on-write (published entries are never mutated
// — readers hold Entry pointers outside the manager lock), sharing the
// already-cached column storage.
//
// # Eviction policy
//
// The Manager owns every entry under one byte budget. Entry sizes are
// estimated per column from the physical layout — 8 bytes per int64/
// float64 row, string header plus payload per string row, a deep
// estimated walk for boxed values, one byte per validity-mask row — so
// typed entries charge the budget roughly 7-14x less than their boxed
// equivalents and the same budget holds proportionally more data.
// Eviction is strict LRU over entries (not columns): every GetColumns
// or Touch bumps the entry's logical tick and the lowest tick is dropped
// until the budget holds. A file that changed invalidates its dataset's
// entry wholesale — unless it only grew: then Refresh extends the entry
// by the tail rows (ExtendColumns), copy-on-write like every other
// change to a published entry. A StrDict column extends by the codes of
// tail strings already in its dictionary; a new string re-encodes the
// column into a fresh dictionary (or demotes it to plain strings once it
// fails the rule), and the entry a scan holds keeps the old one. Like
// an install's encode, the extension is built outside the manager lock;
// only the check that the entry is still the one it grew, and the
// publish, run under it.
//
// # Encoded tier
//
// Entries live in two tiers. The hot tier holds decoded vec.Col
// vectors served as zero-copy windows. When Config.HotBytes is set and
// hot usage exceeds it, least-recently-used entries are re-encoded in place as colenc block tables (dictionary-coded
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
// With Config.SpillDir set, every put also writes the encoded
// table to a spill file named by the dataset and a caller-provided
// generation key (a content hash — see SetSpillKey), so a process
// restart can Rehydrate the entry from disk instead of re-scanning the
// raw source. A dataset without a key never spills: the engine keys only
// what is the raw file's own content, so a cleaned generation (repaired
// or dropped rows) stays in memory and a restart never mistakes it for
// the file. Files from stale generations or of another spill format
// version are deleted, and the entry rebuilt from raw; truncated or
// checksum-failing files are quarantined (renamed *.bad) and counted,
// never served. Invalidate removes a dataset's spill files along with
// its entry.
package cache
