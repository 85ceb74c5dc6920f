// Package jit implements ViDa's two execution engines over the algebra.
//
// # The just-in-time executor
//
// Every operator is generated at query time by composing specialized
// closures (paper §4). Attribute references are resolved to frame-slot
// indices at compile time, scan plugins decode only the attributes the
// query touches, non-blocking operator chains are fused into a single
// loop, and generic branches (type checks, record lookups) are eliminated
// where the schema is known. Closure staging is this reproduction's
// substitute for the paper's LLVM code generation — it removes the same
// interpretation overheads relative to the static engine.
//
// # Batch format
//
// The staged pipeline moves data batch-at-a-time rather than row-at-a-
// time: a vec.Batch is a fixed-capacity run of rows (default 1024)
// decomposed into per-slot column vectors. Columns are typed where the
// source schema allows — int64/float64/string payloads parsed straight
// from raw bytes, with an optional validity mask — and boxed
// ([]values.Value) otherwise. Filters refine a selection vector (Sel)
// instead of copying survivors, which lets columnar cache entries serve
// their slices zero-copy; values are boxed only at the typed→generic
// boundaries: interpreted expressions, join build sides, and the
// monoid-reduce root when no unboxed kernel applies.
//
// Scans enter the batch pipeline through one contract, BatchSource
// (column-vector batches), optionally extended by RangeBatchSource
// (arbitrary row ranges, what morsel-parallel scans build on). A plug-in
// written against algebra.Source.Iterate alone is lifted into it by Lift:
// vec.PackRecords packs its records into boxed batches, so the compiler
// stages exactly one scan loop whatever the format. The only scan that
// reads records directly is the open-schema one, which has no field list
// to vectorize over and binds each datum as one whole-value slot. Warm
// scans of previously-touched fields come from the typed columnar cache,
// which serves slice windows of its published vectors zero-copy.
//
// # Vectorized kernels
//
// Three kernel families keep hot paths off values.Value entirely; each
// dispatches on the columns' runtime representation once per batch, so
// the same staged pipeline serves typed CSV vectors, zero-copy cache
// slices and boxed fallback batches:
//
//   - Comparison filters refine the selection vector: slot⊕const,
//     slot⊕slot and conjunctions, with typed int/float/string loops.
//   - Expression kernels (vecexpr.go) stage arithmetic/projection
//     trees — + - * / % and negation over slots, numeric constants
//     folded into the kernel — into per-batch column loops. They feed
//     comparison filters over computed values, reduce heads, ORDER BY
//     key extraction, stream heads and Bind extension columns (which
//     then stay typed for everything downstream). Inputs that arrive
//     boxed at run time take a row-wise mcl.ApplyBinOp loop inside the
//     kernel, so semantics (null propagation, int/float promotion,
//     division-by-zero errors, string concatenation) are byte-identical
//     with the row engine. Options.NoExprKernels disables this family
//     for A/B benchmarks and fallback-equivalence tests.
//   - Join-key kernels (hash.go) hash the key column of each build and
//     probe batch in one tag-dispatched pass using the scalar hash
//     helpers of internal/values (typed rows hash identically to their
//     boxed forms), and verify hash matches with typed equality —
//     slot-keyed hash joins never box a key row.
//
// Unboxed reduce kernels cover the count/sum/avg/min/max monoids over
// slot or kernel heads, and over numeric constant heads (a literal or a
// bound parameter — SQL's COUNT(*) lowers to `sum 1`), which fold as
// arithmetic on the batch's live row count without touching a row; every
// other shape falls back to the row-wise compiled closures, batch by
// batch.
//
// # Grouped aggregation
//
// A Reduce carrying GroupBy keys stages a vectorized hash-aggregation
// consumer (groupagg.go) instead of a scalar fold: an open-addressing
// table maps key tuples to dense group indices, and each aggregate
// folds into a typed per-group accumulator array (count/sum/avg/
// min/max), with one boxed Collector per group as the generic
// fallback. Key hashing and aggregate-head evaluation run per batch
// through the same kernel families as ungrouped reduces; the per-row
// key equality check on a hash match compares column payloads against
// unpacked primitive mirrors of the stored keys, so the probe loop
// never touches a boxed values.Value. Partitionable scans fold
// morsel-parallel with per-worker tables merged at the root in morsel
// order, which keeps unordered group output in deterministic
// first-occurrence order. HAVING applies post-fold over the group
// scope, and the table's growth is charged against the query memory
// budget.
//
// # Morsel-parallel scans
//
// When the access path can serve arbitrary row ranges (RangeBatchSource —
// the CSV plugin over a built positional map, columnar cache entries) and
// the operator chain above it is per-row independent (scan, select, bind,
// generate), the root reduce runs the scan morsel-parallel: the row range
// is split into morsels handed out to Options.Workers workers, each
// worker drives a thread-local clone of the staged pipeline, and the
// per-morsel partial aggregates are merged at the root in morsel order.
// Merging partials with the monoid's associative ⊕ keeps results exactly
// equal to the serial fold, including for the non-commutative list
// monoid. Sources below Options.ParallelThreshold rows stay serial.
//
// # Partitioned parallel hash join
//
// Equi-joins (join.go) extend the same morsel machinery to both join
// sides. The build side scans morsel-parallel: each morsel hashes its
// key column with the join-key kernels, radix-partitions rows by the
// top hash bits into Options.JoinPartitions private chunks (null keys
// dropped — NULL = NULL never matches), and retains the batch,
// compacting it first when a selective filter left few survivors. A
// seal step concatenates the per-morsel partials in morsel order into
// one immutable index — per partition a power-of-two bucket-head array
// over entry chains that enumerate entries in build-scan order — after
// which probe morsels share the index without synchronization and
// produce output byte-identical to the serial join for any worker or
// partition count (pinned by the differential fuzzer in
// join_diff_test.go). Retained batches and index arrays charge the
// query memory budget; builds under Options.JoinBuildThreshold rows
// stay serial over an identical index layout. The join traces as a
// fold span (kind=join) with join_build/join_seal/join_probe children.
//
// # Pull-sink streaming mode
//
// Collection-rooted plans (list/bag/set reduces) have a second execution
// mode next to collect-into-a-Collector: CompileStream stages the same
// pipeline but replaces the root reduceConsumer with a streamConsumer
// that evaluates the head per live row and emits fixed-size chunks of
// head values to a caller-supplied StreamSink. Nothing above the root
// changes — the same scan plugins, vectorized filters and frames serve
// both modes. The sink owns each emitted chunk, so a cursor layer can
// hand chunks across a bounded channel without copying; backpressure
// from a slow consumer blocks the producer inside emit, which keeps
// resident memory at O(channel capacity × chunk size) regardless of
// result cardinality, and gives first-row latency independent of total
// result size. For the commutative bag and set monoids, large
// partitionable scans stream morsel-parallel with workers emitting
// chunks in completion order; the non-commutative list monoid streams
// serially so element order matches the collect mode exactly. Scalar
// aggregates keep the collect mode: their value is only known after the
// full fold, so there is nothing to stream.
//
// # ORDER BY / LIMIT / OFFSET pushdown
//
// An ordered plan (Reduce.Order with sort keys) replaces the root fold
// with a keyed top-k accumulator (monoid.TopKAcc): per live row the sort
// keys are evaluated (slot fast paths where they are pure column
// references) and the entry offered to a bounded heap retaining at most
// offset+limit entries — heap memory is O(offset+limit), never O(rows).
// A keys-only competitiveness pre-check rejects rows that cannot place
// before their head expression is evaluated, so a wide SELECT under a
// small LIMIT folds allocation-free in the steady state. The fold runs
// morsel-parallel over partitionable scans: each worker keeps its own
// bounded partial heap and partials merge at the root — sound for any
// collection monoid because the final sort's total order (keys, then the
// element value as tiebreaker) does not depend on input order, which
// also makes parallel top-k results deterministic across worker counts.
// Set plans deduplicate at finalize (first entry in key order wins), so
// DISTINCT + ORDER BY + LIMIT bounds distinct elements; dedup disables
// the heap bound. In stream mode the fold is blocking: chunks of the
// sorted, offset/limit-applied elements are emitted once the fold
// completes, so ordered NDJSON responses buffer nothing beyond the heap.
//
// A bare LIMIT/OFFSET (no sort keys) on a collection plan instead pushes
// a row quota into the stream: offset rows are dropped, at most limit
// rows emitted, and the moment the quota fills the remaining producers
// are cancelled — the sentinel stops the serial pipeline mid-scan and a
// context cancellation stops morsel dispatch in the shared scheduler, so
// a cold 300k-row scan under LIMIT 10 reads a few batches, not the file.
// Which rows survive a bare bag limit is unspecified (bag semantics);
// list plans take their in-order prefix. Collect mode shares the same
// quota machinery and gathers the surviving chunks into the declared
// collection.
//
// # The static executor
//
// Pre-cooked generic Volcano operators pipelined over Go channels,
// evaluating expressions by AST interpretation on every row. This mirrors
// the paper's own fallback engine ("the static executor is written in GO,
// exploiting GO's channels to offer pipelined execution") and serves as
// the baseline of the JIT-vs-static ablation (experiment E6).
package jit
