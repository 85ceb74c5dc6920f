package monoid

import "vida/internal/values"

// Collector is the streaming accumulator executors use for yield clauses.
// For scalar monoids it folds incrementally (constant state). For
// collection-building monoids (list/bag/set/array) and for median — whose
// accumulation domains are collections — folding via Merge would
// re-canonicalize the whole accumulator on every element (quadratic);
// Collector instead gathers elements and builds the collection once at
// Result. Both strategies compute exactly Finalize(fold of units): for
// these monoids the fold of n units is, by the monoid laws, the
// collection of the n elements.
type Collector struct {
	m       Monoid
	collect bool
	elems   []values.Value
	acc     values.Value
}

// NewCollector returns a fresh accumulator for m.
func NewCollector(m Monoid) *Collector {
	switch m.Name() {
	case "list", "bag", "set", "array", "median":
		return &Collector{m: m, collect: true}
	}
	return &Collector{m: m, acc: m.Zero()}
}

// Add feeds one input. A null input is skipped by the monoids that
// SkipsNull names, so sum, avg, min, max, prod, and, or, median and
// top-k fold the non-null inputs (all-null folds to the finalized zero:
// 0 for sum, null for avg/min/max), while count counts it and the
// collection monoids keep it as an element. Grouped or not, every
// executor folds through this one rule.
func (c *Collector) Add(v values.Value) {
	if v.IsNull() && SkipsNull(c.m) {
		return
	}
	if c.collect {
		c.elems = append(c.elems, v)
		return
	}
	c.acc = c.m.Merge(c.acc, c.m.Unit(v))
}

// MergeFrom absorbs another collector's partial state. Merging partials
// in input order is what makes morsel-parallel execution exact for
// non-commutative monoids (list): associativity of ⊕ is all it needs.
// The absorbed collector must not be used afterwards.
func (c *Collector) MergeFrom(o *Collector) {
	if c.collect {
		c.elems = append(c.elems, o.elems...)
		return
	}
	c.acc = c.m.Merge(c.acc, o.acc)
}

// SkipsNull reports whether m skips null inputs: every monoid but count,
// which counts every binding, and the collection monoids, which keep
// nulls as elements.
func SkipsNull(m Monoid) bool {
	switch m.Name() {
	case "count", "list", "bag", "set", "array":
		return false
	}
	return true
}

// Result finalizes the accumulation.
func (c *Collector) Result() values.Value {
	if !c.collect {
		return c.m.Finalize(c.acc)
	}
	switch c.m.Name() {
	case "list":
		return values.NewList(c.elems...)
	case "bag":
		return values.NewBag(c.elems...)
	case "set":
		return values.NewSet(c.elems...)
	case "array":
		return values.NewArray([]int{len(c.elems)}, c.elems)
	case "median":
		return c.m.Finalize(values.NewBag(c.elems...))
	}
	panic("monoid: unreachable collector state")
}
