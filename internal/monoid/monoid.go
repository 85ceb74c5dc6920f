package monoid

import (
	"fmt"
	"strconv"
	"strings"

	"vida/internal/values"
)

// Monoid is one accumulator usable as the ⊕ of a comprehension.
type Monoid interface {
	// Name returns the keyword used after "yield".
	Name() string
	// Zero returns Z⊕, the left and right identity of Merge.
	Zero() values.Value
	// Unit lifts one head value into the accumulation domain (U⊕).
	Unit(v values.Value) values.Value
	// Merge combines two accumulated values (⊕). It must be associative
	// with Zero as identity over the accumulation domain.
	Merge(a, b values.Value) values.Value
	// Finalize maps the accumulated value to the user-visible result.
	// For true monoids this is the identity.
	Finalize(acc values.Value) values.Value
	// Commutative reports whether Merge commutes; the optimizer may only
	// reorder inputs for commutative monoids.
	Commutative() bool
	// Idempotent reports whether x⊕x = x; duplicate-insensitive monoids
	// (set, max, min, and, or) admit more aggressive rewrites.
	Idempotent() bool
}

// ---------------------------------------------------------------------------
// Primitive numeric monoids
// ---------------------------------------------------------------------------

type sumMonoid struct{}

func (sumMonoid) Name() string                         { return "sum" }
func (sumMonoid) Zero() values.Value                   { return values.NewInt(0) }
func (sumMonoid) Commutative() bool                    { return true }
func (sumMonoid) Idempotent() bool                     { return false }
func (sumMonoid) Unit(v values.Value) values.Value     { return v }
func (sumMonoid) Finalize(a values.Value) values.Value { return a }
func (sumMonoid) Merge(a, b values.Value) values.Value { return numAdd(a, b) }

type prodMonoid struct{}

func (prodMonoid) Name() string                         { return "prod" }
func (prodMonoid) Zero() values.Value                   { return values.NewInt(1) }
func (prodMonoid) Commutative() bool                    { return true }
func (prodMonoid) Idempotent() bool                     { return false }
func (prodMonoid) Unit(v values.Value) values.Value     { return v }
func (prodMonoid) Finalize(a values.Value) values.Value { return a }
func (prodMonoid) Merge(a, b values.Value) values.Value {
	if a.Kind() == values.KindInt && b.Kind() == values.KindInt {
		return values.NewInt(a.Int() * b.Int())
	}
	return values.NewFloat(a.Float() * b.Float())
}

type countMonoid struct{}

func (countMonoid) Name() string                         { return "count" }
func (countMonoid) Zero() values.Value                   { return values.NewInt(0) }
func (countMonoid) Commutative() bool                    { return true }
func (countMonoid) Idempotent() bool                     { return false }
func (countMonoid) Unit(values.Value) values.Value       { return values.NewInt(1) }
func (countMonoid) Finalize(a values.Value) values.Value { return a }
func (countMonoid) Merge(a, b values.Value) values.Value {
	return values.NewInt(a.Int() + b.Int())
}

type maxMonoid struct{}

func (maxMonoid) Name() string                         { return "max" }
func (maxMonoid) Zero() values.Value                   { return values.Null }
func (maxMonoid) Commutative() bool                    { return true }
func (maxMonoid) Idempotent() bool                     { return true }
func (maxMonoid) Unit(v values.Value) values.Value     { return v }
func (maxMonoid) Finalize(a values.Value) values.Value { return a }
func (maxMonoid) Merge(a, b values.Value) values.Value {
	switch {
	case a.IsNull():
		return b
	case b.IsNull():
		return a
	case values.Compare(a, b) >= 0:
		return a
	}
	return b
}

type minMonoid struct{}

func (minMonoid) Name() string                         { return "min" }
func (minMonoid) Zero() values.Value                   { return values.Null }
func (minMonoid) Commutative() bool                    { return true }
func (minMonoid) Idempotent() bool                     { return true }
func (minMonoid) Unit(v values.Value) values.Value     { return v }
func (minMonoid) Finalize(a values.Value) values.Value { return a }
func (minMonoid) Merge(a, b values.Value) values.Value {
	switch {
	case a.IsNull():
		return b
	case b.IsNull():
		return a
	case values.Compare(a, b) <= 0:
		return a
	}
	return b
}

// ---------------------------------------------------------------------------
// Boolean monoids (universal and existential quantification, paper §3.2)
// ---------------------------------------------------------------------------

type andMonoid struct{}

func (andMonoid) Name() string                         { return "and" }
func (andMonoid) Zero() values.Value                   { return values.True }
func (andMonoid) Commutative() bool                    { return true }
func (andMonoid) Idempotent() bool                     { return true }
func (andMonoid) Unit(v values.Value) values.Value     { return v }
func (andMonoid) Finalize(a values.Value) values.Value { return a }
func (andMonoid) Merge(a, b values.Value) values.Value {
	return values.NewBool(a.Bool() && b.Bool())
}

type orMonoid struct{}

func (orMonoid) Name() string                         { return "or" }
func (orMonoid) Zero() values.Value                   { return values.False }
func (orMonoid) Commutative() bool                    { return true }
func (orMonoid) Idempotent() bool                     { return true }
func (orMonoid) Unit(v values.Value) values.Value     { return v }
func (orMonoid) Finalize(a values.Value) values.Value { return a }
func (orMonoid) Merge(a, b values.Value) values.Value {
	return values.NewBool(a.Bool() || b.Bool())
}

// ---------------------------------------------------------------------------
// Derived accumulators: avg, median, top-k
// ---------------------------------------------------------------------------

// avgMonoid accumulates a (sum, count) record and finalizes to the mean.
type avgMonoid struct{}

func (avgMonoid) Name() string      { return "avg" }
func (avgMonoid) Commutative() bool { return true }
func (avgMonoid) Idempotent() bool  { return false }
func (avgMonoid) Zero() values.Value {
	return values.NewRecord(
		values.Field{Name: "sum", Val: values.NewFloat(0)},
		values.Field{Name: "count", Val: values.NewInt(0)},
	)
}
func (avgMonoid) Unit(v values.Value) values.Value {
	return values.NewRecord(
		values.Field{Name: "sum", Val: values.NewFloat(v.Float())},
		values.Field{Name: "count", Val: values.NewInt(1)},
	)
}
func (avgMonoid) Merge(a, b values.Value) values.Value {
	return values.NewRecord(
		values.Field{Name: "sum", Val: values.NewFloat(a.MustGet("sum").Float() + b.MustGet("sum").Float())},
		values.Field{Name: "count", Val: values.NewInt(a.MustGet("count").Int() + b.MustGet("count").Int())},
	)
}
func (avgMonoid) Finalize(a values.Value) values.Value {
	n := a.MustGet("count").Int()
	if n == 0 {
		return values.Null
	}
	return values.NewFloat(a.MustGet("sum").Float() / float64(n))
}

// medianMonoid accumulates a sorted bag and finalizes to the middle element
// (mean of the two middles for even counts).
type medianMonoid struct{}

func (medianMonoid) Name() string                     { return "median" }
func (medianMonoid) Commutative() bool                { return true }
func (medianMonoid) Idempotent() bool                 { return false }
func (medianMonoid) Zero() values.Value               { return values.NewBag() }
func (medianMonoid) Unit(v values.Value) values.Value { return values.NewBag(v) }
func (medianMonoid) Merge(a, b values.Value) values.Value {
	out := a
	for _, e := range b.Elems() {
		out = out.Append(e)
	}
	return out
}
func (medianMonoid) Finalize(a values.Value) values.Value {
	es := a.Elems()
	n := len(es)
	if n == 0 {
		return values.Null
	}
	if n%2 == 1 {
		return es[n/2]
	}
	return values.NewFloat((es[n/2-1].Float() + es[n/2].Float()) / 2)
}

// topKMonoid keeps the k largest values (by values.Compare) seen so far.
// It is the degenerate form of the keyed TopKAcc accumulator (topk.go):
// one key, the element itself, descending.
type topKMonoid struct{ k int }

func (m topKMonoid) Name() string                     { return "top" + strconv.Itoa(m.k) }
func (m topKMonoid) Commutative() bool                { return true }
func (m topKMonoid) Idempotent() bool                 { return false }
func (m topKMonoid) Zero() values.Value               { return values.NewList() }
func (m topKMonoid) Unit(v values.Value) values.Value { return values.NewList(v) }
func (m topKMonoid) Merge(a, b values.Value) values.Value {
	acc := NewTopKAcc([]bool{true}, m.k)
	for _, v := range a.Elems() {
		acc.Add([]values.Value{v}, v)
	}
	for _, v := range b.Elems() {
		acc.Add([]values.Value{v}, v)
	}
	return values.NewList(acc.Finalize(0, m.k, false)...)
}
func (m topKMonoid) Finalize(a values.Value) values.Value { return a }

// ---------------------------------------------------------------------------
// Collection monoids
// ---------------------------------------------------------------------------

type listMonoid struct{}

func (listMonoid) Name() string                         { return "list" }
func (listMonoid) Zero() values.Value                   { return values.NewList() }
func (listMonoid) Commutative() bool                    { return false }
func (listMonoid) Idempotent() bool                     { return false }
func (listMonoid) Unit(v values.Value) values.Value     { return values.NewList(v) }
func (listMonoid) Finalize(a values.Value) values.Value { return a }
func (listMonoid) Merge(a, b values.Value) values.Value {
	out := make([]values.Value, 0, a.Len()+b.Len())
	out = append(out, a.Elems()...)
	out = append(out, b.Elems()...)
	return values.NewList(out...)
}

type bagMonoid struct{}

func (bagMonoid) Name() string                         { return "bag" }
func (bagMonoid) Zero() values.Value                   { return values.NewBag() }
func (bagMonoid) Commutative() bool                    { return true }
func (bagMonoid) Idempotent() bool                     { return false }
func (bagMonoid) Unit(v values.Value) values.Value     { return values.NewBag(v) }
func (bagMonoid) Finalize(a values.Value) values.Value { return a }
func (bagMonoid) Merge(a, b values.Value) values.Value {
	out := make([]values.Value, 0, a.Len()+b.Len())
	out = append(out, a.Elems()...)
	out = append(out, b.Elems()...)
	return values.NewBag(out...)
}

type setMonoid struct{}

func (setMonoid) Name() string                         { return "set" }
func (setMonoid) Zero() values.Value                   { return values.NewSet() }
func (setMonoid) Commutative() bool                    { return true }
func (setMonoid) Idempotent() bool                     { return true }
func (setMonoid) Unit(v values.Value) values.Value     { return values.NewSet(v) }
func (setMonoid) Finalize(a values.Value) values.Value { return a }
func (setMonoid) Merge(a, b values.Value) values.Value {
	out := make([]values.Value, 0, a.Len()+b.Len())
	out = append(out, a.Elems()...)
	out = append(out, b.Elems()...)
	return values.NewSet(out...)
}

// arrayMonoid concatenates one-dimensional arrays; it supports yielding
// vector results that downstream consumers reshape.
type arrayMonoid struct{}

func (arrayMonoid) Name() string       { return "array" }
func (arrayMonoid) Commutative() bool  { return false }
func (arrayMonoid) Idempotent() bool   { return false }
func (arrayMonoid) Zero() values.Value { return values.NewArray([]int{0}, nil) }
func (arrayMonoid) Unit(v values.Value) values.Value {
	return values.NewArray([]int{1}, []values.Value{v})
}
func (arrayMonoid) Finalize(a values.Value) values.Value { return a }
func (arrayMonoid) Merge(a, b values.Value) values.Value {
	out := make([]values.Value, 0, a.Len()+b.Len())
	out = append(out, a.Elems()...)
	out = append(out, b.Elems()...)
	return values.NewArray([]int{len(out)}, out)
}

// ---------------------------------------------------------------------------
// Helpers and registry
// ---------------------------------------------------------------------------

func numAdd(a, b values.Value) values.Value {
	if a.Kind() == values.KindInt && b.Kind() == values.KindInt {
		return values.NewInt(a.Int() + b.Int())
	}
	return values.NewFloat(a.Float() + b.Float())
}

// Exported singleton monoids.
var (
	Sum    Monoid = sumMonoid{}
	Prod   Monoid = prodMonoid{}
	Count  Monoid = countMonoid{}
	Max    Monoid = maxMonoid{}
	Min    Monoid = minMonoid{}
	And    Monoid = andMonoid{}
	Or     Monoid = orMonoid{}
	Avg    Monoid = avgMonoid{}
	Median Monoid = medianMonoid{}
	List   Monoid = listMonoid{}
	Bag    Monoid = bagMonoid{}
	Set    Monoid = setMonoid{}
	Array  Monoid = arrayMonoid{}
)

// TopK returns the top-k accumulator for the given k.
func TopK(k int) Monoid { return topKMonoid{k: k} }

// IsCollection reports whether m builds a collection (list/bag/set/array)
// rather than a scalar aggregate.
func IsCollection(m Monoid) bool {
	switch m.Name() {
	case "list", "bag", "set", "array":
		return true
	}
	return false
}

// CollectionKind returns the values.Kind a collection monoid produces.
func CollectionKind(m Monoid) (values.Kind, bool) {
	switch m.Name() {
	case "list":
		return values.KindList, true
	case "bag":
		return values.KindBag, true
	case "set":
		return values.KindSet, true
	case "array":
		return values.KindArray, true
	}
	return 0, false
}

// ByName resolves a monoid keyword ("sum", "set", "top5", ...).
func ByName(name string) (Monoid, error) {
	switch strings.ToLower(name) {
	case "sum":
		return Sum, nil
	case "prod", "product":
		return Prod, nil
	case "count":
		return Count, nil
	case "max":
		return Max, nil
	case "min":
		return Min, nil
	case "and", "all":
		return And, nil
	case "or", "some", "exists":
		return Or, nil
	case "avg", "average", "mean":
		return Avg, nil
	case "median":
		return Median, nil
	case "list":
		return List, nil
	case "bag":
		return Bag, nil
	case "set":
		return Set, nil
	case "array":
		return Array, nil
	}
	if strings.HasPrefix(strings.ToLower(name), "top") {
		if k, err := strconv.Atoi(name[3:]); err == nil && k > 0 {
			return TopK(k), nil
		}
	}
	return nil, fmt.Errorf("monoid: unknown monoid %q", name)
}

// Fold accumulates a stream of head values under m and finalizes: the
// unoptimized fold the monoid laws are tested against. Null heads are
// skipped as Collector.Add skips them.
func Fold(m Monoid, heads []values.Value) values.Value {
	acc := m.Zero()
	for _, h := range heads {
		if !(h.IsNull() && SkipsNull(m)) {
			acc = m.Merge(acc, m.Unit(h))
		}
	}
	return m.Finalize(acc)
}
