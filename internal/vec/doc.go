// Package vec defines the column-vector batch format shared by the JIT
// execution pipeline and the access paths that feed it (internal/jit,
// internal/rawcsv, internal/cache). A Batch carries a fixed-capacity run
// of rows decomposed into per-slot column vectors; typed columns hold
// int64/float64/string payloads directly, so scan→select→project chains
// move primitive slices instead of boxed values.Value structs, boxing
// only at monoid-reduce boundaries.
//
// # Column representations
//
// A Col is tagged with its physical representation: Int64, Float64 and
// Str carry unboxed payload slices with an optional validity mask
// (Nulls[i] == true marks row i null; a nil mask means "no nulls");
// Boxed is the generic fallback, one values.Value per row, used for
// bools, nested records/collections and columns whose rows mix types.
// Col.Value boxes a single row on demand — it is the typed→generic
// boundary, and kernels that stay on the payload slices never cross it.
//
// # Batch and selection-vector invariants
//
// A Batch holds N physical rows. Sel, when non-nil, is the ordered list
// of physical row indices that survived upstream filters; nil means all
// N rows are live. The invariants every producer and consumer relies on:
//
//   - Sel is strictly increasing and every element is in [0, N).
//   - Filters refine Sel only — they never reorder, duplicate, or
//     compact column storage. Batch.Len()/Index(k) are the only
//     sanctioned ways to enumerate live rows.
//   - Column storage is never mutated by consumers. Producers may reuse
//     it between emissions, so a consumer that retains data must copy
//     (Retain/Compact) unless the batch is marked Stable.
//
// # Zero-copy stability
//
// Batches are transient by default: the producer owns the column
// storage and overwrites it on the next emission. A producer that
// guarantees the storage is immutable for the life of the process state
// it came from — the columnar cache serving slice windows of its
// published entries is the canonical case — sets Stable = true, and
// consumers (join build sides, cursors) may then retain column slices
// with a header-level copy and no payload copy. Retain on a transient
// batch performs one bulk typed copy per column; Compact additionally
// drops unselected rows (re-indexing the result). Anything downstream
// of a mutation point (Packer, Bind extension columns) must clear
// Stable.
//
// # Records in, records out
//
// Batches are the only scan contract the engine speaks; the record
// contract plug-ins are written against (algebra.Source.Iterate) meets
// it through two adapters that live here because every layer imports
// this package: PackRecords lifts a record iterator into boxed batches,
// BoxRecords lowers a batch's live rows back into records.
package vec
