// Package jit implements ViDa's just-in-time execution engine over the
// algebra; the interpreted engine it is measured and checked against is
// algebra.Reference.
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
// interpretation overheads relative to the interpreted operators of
// algebra.Reference.
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
// boundaries: interpreted expressions and the monoid-reduce root when no
// unboxed kernel applies. Join build sides retain their batches typed,
// and a join or product gathers its output column by column from them.
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
// One stager, mkGetter (groupagg.go), turns every expression a consumer
// reads into a per-batch column: root heads and ORDER BY keys, group
// keys and aggregate inputs, join keys, Bind extension columns and
// predicates no comparison kernel covers. It takes compileVecExpr's
// kernels first — the identity kernel of a slot returns the batch's own
// column (shared, allocation-free), a constant is a broadcast column
// (Int64, Float64 or Str) filled once, + - * / % and negation over
// slots, numeric constants folded in, compute a typed column — and
// otherwise evaluates the expression row-wise into a reused boxed
// column. Each decision is tallied once (Counters.KernelsVectorized /
// KernelsBoxed). Kernels dispatch on the columns' runtime representation
// once per batch, so the same staged pipeline serves typed CSV vectors,
// zero-copy cache slices and boxed fallback batches; inputs that arrive
// boxed at run time take a row-wise mcl.ApplyBinOp loop inside the
// kernel, so semantics (null propagation, int/float promotion,
// division-by-zero errors, string concatenation) are byte-identical with
// the row engine. Three families consume the columns:
//
//   - Comparison filters refine the selection vector: kernel⊕const and
//     kernel⊕kernel (a slot is its identity kernel) and conjunctions,
//     with typed int/float/string/dictionary loops. No loop branches on
//     the data: each stores the row index unconditionally and advances
//     by the test's 0/1 outcome, into a selection buffer sized once to
//     the batch. A compare against a constant is staged per batch as a
//     range: an int64 or dictionary-code compare is one unsigned
//     `uint64(v-lo) <= width` test (a circular range, so != is the
//     complement of [c, c]), a float compare a closed range or its
//     complement that orders NaN and ±0 as values.CompareFloats does.
//     Pair and string compares apply the accepted three-way outcomes as
//     a bit mask. The cost per row is flat across selectivity, so no
//     form is chosen per call.
//   - Unboxed reduce kernels fold count/sum/avg/min/max heads per batch
//     into a monoid collector; any other monoid, and any boxed column,
//     folds value by value.
//   - Key kernels (hash.go) hash the key columns of a batch — a hashed
//     join's build entries and probe rows, a grouped fold's rows — in
//     one tag-dispatched pass using the scalar hash helpers of
//     internal/values (typed rows hash identically to their boxed
//     forms), and check hash matches with one key equality, keyEqual,
//     that compares typed payloads as values.Equal compares their boxed
//     forms, so neither operator boxes a typed key row. A dense join
//     reads its Int64 keys directly.
//
// Two heads stay special. A numeric constant head (a literal or a bound
// parameter — SQL's COUNT(*) lowers to `sum 1`) folds on the batch's live
// row count without touching a row: integer sums multiply, float sums add
// the constant once per row so they round as the reference executor does.
// A `count` whose head cannot fail (a constant, a slot, or a bare variable
// such as the whole record in `yield count r`) folds the same way: count
// ignores its argument, so nothing is staged. A head that can fail is
// still computed, for its errors. The top-k head is evaluated lazily (see
// below).
//
// # Grouped aggregation
//
// A Reduce carrying GroupBy keys stages a vectorized hash-aggregation
// consumer (groupagg.go) instead of a scalar fold: an open-addressing
// table maps key tuples to dense group indices, and each aggregate
// folds into a typed per-group accumulator array (count/sum/avg/
// min/max), with one boxed Collector per group as the generic
// fallback. Key hashing and aggregate-head evaluation run per batch
// through the same kernel families as ungrouped reduces — slots,
// expression kernels and broadcast constants, so a grouped COUNT(*)
// folds a typed column (a grouped `count` over a head that cannot fail
// reads no column at all). The table stores each key position as one
// typed column, boxed only once two key columns it is fed disagree on
// a tag, and checks a hash match with the join's key equality plus the
// grouping rule that nulls are equal; the finished groups emit windows
// of those columns. A single key column served as
// vec.StrDict (a dictionary-coded cache column, hot or encoded) skips
// the hash and the probe: the consumer memoizes each code's group in an
// array indexed by code, reset when the dictionary changes, so a row
// costs one array load; a code's first row goes through the hash table
// with the tuple hash the hash path computes, so group ids, order and
// partial merges do not depend on the representation. Partitionable scans fold
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
// the operator chain above it is per-row independent (the per-batch
// stages: scan filter, select, bind, generate, root predicate), a scan of at least Options.ParallelThreshold rows runs
// morsel-parallel through one driver (parallel.go): the row range is
// split into a few morsels per worker, submitted as one job to the shared
// scheduler pool, each morsel drives its own clone of the staged pipeline
// and the per-morsel results come back in morsel order. Every parallel
// operator — the fold, elements and top-k roots, the group-agg stage and
// the join build — is that driver plus a merge: partials merged in morsel
// order with the monoid's associative ⊕ equal the serial fold exactly,
// including for the non-commutative list monoid.
//
// # Parallel hash join
//
// Equi-joins (join.go) extend the same morsel machinery to both join
// sides, with one key path, one index layout and two slot rules. Each
// side's join keys are key columns staged like group keys (a slot, a
// kernel or the boxed fallback); a null in any key drops the row (NULL
// = NULL never matches). The build side scans morsel-parallel once it
// reaches Options.ParallelThreshold rows, retaining each batch —
// compacted first when a selective filter left few survivors — with
// its computed key columns beside it and the rows of its entries in a
// slice sized once for the batch. A seal step reads the partials in
// morsel order and lays the entries out by one stable counting sort on
// their slots, so slot s lists its entries [off[s], off[s+1]) in
// build-scan order. The slot rule is:
//
//   - dense (key − min) when the join has one key, every retained
//     build key column is Int64, the keys lie inside ±2^53 and the dense
//     layout (4 bytes per slot plus 8 per entry) is no larger than the
//     hashed one; every entry of a dense slot matches, so a probe needs
//     no hash and no key compare, and a probe key column that is not
//     Int64 maps each row through values.Equal (an integral float or a
//     boxed number to its slot; NaN, strings and other kinds nowhere);
//   - hashed otherwise: the low bits of the key-tuple hash over a
//     power-of-two slot count no smaller than the entries; a probe
//     hashes its keys the same way and checks each entry of its slot's
//     range by its hash's high 32 bits, then by the grouped fold's key
//     equality.
//
// Probe morsels share the index without synchronization and produce
// output byte-identical to the serial join for any worker count and
// either shape (pinned by the differential fuzzer in join_diff_test.go
// and TestDenseJoinIndexChoice). A probe records its matches as (probe
// row, build entry) pairs and gathers them into its output batch column
// by column, each column typed as its source is; a build column whose
// retained batches differ in tag, or in dictionary for StrDict, gathers
// boxed. A product pairs every left row with every retained right row
// through the same gather. Retained batches charge the query memory
// budget as they arrive, the index arrays before seal allocates them.
// The join traces as a fold span (kind=join, with index=dense|hash,
// key_span for one Int64 key inside ±2^53, build_rows and table_bytes)
// with join_build/join_seal/join_probe children.
//
// # One root per plan; results go to sinks
//
// A compiled plan is a producer (a scan, a join probe, a product, the
// group table) plus per-batch stages fused in front of its consumer:
// filters, binds and generates are all instances of one stage, built
// once per serial run and once per morsel (compiledPlan.then, drive,
// parallelInput). Every plan compiles once (root.go) into that pipeline
// under exactly one root, chosen from the plan alone. The root predicate
// — HAVING, for a grouped plan — is compiled there once, as one more
// filter stage, so every root consumes already-filtered batches: a fold (scalar and other
// non-collection monoids, into a monoid collector through the unboxed
// reduce kernels), elements (list/bag/set: the head of every live row,
// emitted in chunks), a keyed top-k (ORDER BY) or a row quota (bare
// LIMIT/OFFSET). How the result leaves is the sink's business, not a
// second compilation mode: a cursor passes a StreamSink feeding a bounded
// channel — ownership of each chunk transfers, so nothing is copied, a
// slow consumer blocks the producer in emit (resident memory O(channel
// capacity × chunk size)) and the first chunk leaves at the first input
// batch — while CompileWith drains the same program into a collecting
// sink that rebuilds the collection and charges the query memory budget
// for every element it keeps. A fold root hands back its value directly,
// or emits it once (a scalar as one row, an array as its elements). Bag
// and set morsels emit in completion order; list morsels hold their
// chunks until the fold completes and emit in morsel order. Set roots
// deduplicate in the root, first occurrence wins.
//
// The top-k root computes the sort-key columns per batch and offers each
// live row's keys to a monoid.TopKAcc bounded to offset+limit entries —
// O(offset+limit) memory, never O(rows). Once the heap is full and the
// first sort key's column is typed, the column-vs-constant selection
// kernel first keeps the rows whose first key is >= (DESC) or <= (ASC)
// the worst retained one, so the rows that cannot place are never
// boxed; the worst key only tightens within a batch, so this superset
// changes no answer. A null worst key, a boxed column, or an ascending
// key over a column with nulls (null keys sort first and stay
// candidates) skips it. A keys-only competitiveness pre-check then
// rejects the remaining rows that cannot place before their head is
// evaluated: the head getter runs over a one-row selection for each row
// that passes, never over the whole batch, because the head is usually
// a record build — the per-row cost of a wide SELECT — and under a small
// LIMIT almost no row places. So a wide SELECT under a small LIMIT folds
// allocation-free in the steady state. Morsel-parallel
// partial heaps merge at the root, sound for any monoid because the final
// sort's total order (keys, then the element value) does not depend on
// input order. Set plans deduplicate at finalize, so DISTINCT + ORDER BY
// + LIMIT bounds distinct elements. The sorted, offset/limit-applied
// elements are emitted once the fold completes.
//
// The quota root drops offset rows, emits at most limit rows, and the
// moment the quota fills cancels the remaining producers — a sentinel
// stops the serial pipeline mid-scan and a context cancellation stops
// morsel dispatch, so a cold 300k-row scan under LIMIT 10 reads a few
// batches, not the file. Which rows survive a bare bag limit is
// unspecified (bag semantics); list plans scan serially and take their
// in-order prefix.
package jit
