// Package monoid implements the primitive and collection monoids of the
// Fegaras–Maier monoid comprehension calculus that ViDa adopts as its
// internal query language (paper §3.2). A monoid supplies an associative
// merge ⊕ with identity Z⊕ and, for collections, a unit function U⊕; the
// comprehension for{...} yield ⊕ e folds the evaluated heads with ⊕.
//
// # Monoid laws
//
// Every Monoid implementation must satisfy, over its accumulation
// domain:
//
//	Merge(Zero, x) == x == Merge(x, Zero)        (identity)
//	Merge(Merge(x, y), z) == Merge(x, Merge(y, z)) (associativity)
//
// Commutative() additionally promises Merge(x, y) == Merge(y, x).
// These laws are what the executors lean on: associativity lets
// morsel-parallel scans fold per-worker partial accumulators and merge
// them in morsel order with an exact result — including for the
// non-commutative list monoid — and commutativity is the license for
// the streaming paths to emit chunks in completion order (bag/set).
//
// Some "monoids" the paper exposes to users (avg, median, top-k) are
// not literal monoids over their output type; they follow the standard
// trick of accumulating in an auxiliary monoid (sum/count pair, sorted
// list, bounded list) and applying a Finalize step when the
// comprehension completes.
//
// # Collector
//
// Collector is the streaming accumulator executors fold through. For
// scalar monoids it merges incrementally (constant state); for the
// collection monoids and median it gathers elements and canonicalizes
// once at Result — both compute exactly Finalize(fold of units).
// MergeFrom accepts another collector's partial state in input order.
// Add applies the one null rule: aggregates skip null inputs except
// count, and the collection monoids keep them (SkipsNull).
//
// A reduce folds the same monoids once per group; an ungrouped reduce
// is the one-group case. The JIT's group table keeps typed per-group
// accumulator arrays for the scalar monoids and falls back to one
// Collector per group otherwise. The monoid laws carry over
// unchanged — associativity makes merging per-worker group tables in
// morsel order exactly equal to the serial per-group fold, and the
// avg/median-style Finalize runs once per group at emission.
//
// # TopKAcc merge determinism
//
// TopKAcc generalizes the top-k monoid into the keyed, offset-aware
// bounded heap behind ORDER BY/LIMIT/OFFSET pushdown. Its total order
// is the sort keys in sequence with the element's own value as the
// final tiebreaker, so the ranking is a total order over (keys,
// element) pairs — no two distinct elements are ever "equal". That
// makes MergeFrom deterministic regardless of how rows were partitioned
// into morsels or which worker finished first: the same multiset of
// offered rows always finalizes to the same list, so parallel ordered
// queries are byte-identical across worker counts. Offer bounds each
// accumulator to offset+limit entries, and Competitive lets scan loops
// skip head evaluation for rows that cannot place.
package monoid
