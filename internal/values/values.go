// Package values implements the dynamic value system shared by every layer
// of ViDa: the comprehension evaluator, the raw-format plugins, the caches
// and the baseline stores. A Value is a small tagged struct covering the
// scalar types, records, the three collection kinds of the monoid calculus
// (list, bag, set) and N-dimensional arrays.
//
// Values are immutable by convention: code that receives a Value must not
// mutate its nested slices. Constructors copy only when canonicalization
// requires it (sets and bags).
package values

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind discriminates the runtime type of a Value.
type Kind uint8

// The value kinds. Collections deliberately mirror the monoid calculus:
// lists are ordered, bags are unordered with duplicates, sets are unordered
// without duplicates. Arrays carry explicit dimensions.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindRecord
	KindList
	KindBag
	KindSet
	KindArray
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindRecord:
		return "record"
	case KindList:
		return "list"
	case KindBag:
		return "bag"
	case KindSet:
		return "set"
	case KindArray:
		return "array"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Field is one named component of a record value.
type Field struct {
	Name string
	Val  Value
}

// Value is a dynamically-typed datum. The zero Value is null.
type Value struct {
	kind   Kind
	b      bool
	i      int64
	f      float64
	s      string
	fields []Field
	elems  []Value
	dims   []int
}

// Null is the null value.
var Null = Value{kind: KindNull}

// True and False are the boolean constants.
var (
	True  = Value{kind: KindBool, b: true}
	False = Value{kind: KindBool, b: false}
)

// NewBool returns a boolean value.
func NewBool(b bool) Value {
	if b {
		return True
	}
	return False
}

// NewInt returns an integer value.
func NewInt(i int64) Value { return Value{kind: KindInt, i: i} }

// NewFloat returns a float value.
func NewFloat(f float64) Value { return Value{kind: KindFloat, f: f} }

// NewString returns a string value.
func NewString(s string) Value { return Value{kind: KindString, s: s} }

// NewRecord returns a record with the given fields. Field order is
// significant for projection-by-position but not for equality.
func NewRecord(fields ...Field) Value {
	return Value{kind: KindRecord, fields: fields}
}

// NewList returns an ordered collection.
func NewList(elems ...Value) Value { return Value{kind: KindList, elems: elems} }

// NewBag returns an unordered collection with duplicates. The elements are
// canonicalized (sorted) so that equal bags compare equal.
func NewBag(elems ...Value) Value {
	cp := make([]Value, len(elems))
	copy(cp, elems)
	sortValues(cp)
	return Value{kind: KindBag, elems: cp}
}

// NewSet returns an unordered collection without duplicates. Duplicates in
// elems are removed; the result is canonicalized.
func NewSet(elems ...Value) Value {
	cp := make([]Value, len(elems))
	copy(cp, elems)
	sortValues(cp)
	out := cp[:0]
	for i, e := range cp {
		if i == 0 || Compare(cp[i-1], e) != 0 {
			out = append(out, e)
		}
	}
	return Value{kind: KindSet, elems: out}
}

// NewArray returns an N-dimensional array in row-major order. The product
// of dims must equal len(elems).
func NewArray(dims []int, elems []Value) Value {
	n := 1
	for _, d := range dims {
		n *= d
	}
	if n != len(elems) {
		panic(fmt.Sprintf("values: array dims %v imply %d elems, got %d", dims, n, len(elems)))
	}
	return Value{kind: KindArray, dims: dims, elems: elems}
}

// Kind reports the runtime kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Bool returns the boolean payload; it panics on other kinds.
func (v Value) Bool() bool {
	v.mustBe(KindBool)
	return v.b
}

// Int returns the integer payload; it panics on other kinds.
func (v Value) Int() int64 {
	v.mustBe(KindInt)
	return v.i
}

// Float returns the float payload. Integers are widened so that numeric
// code can treat int and float uniformly.
func (v Value) Float() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	v.mustBe(KindFloat)
	return v.f
}

// Str returns the string payload; it panics on other kinds.
func (v Value) Str() string {
	v.mustBe(KindString)
	return v.s
}

// Fields returns the record fields; it panics on other kinds.
func (v Value) Fields() []Field {
	v.mustBe(KindRecord)
	return v.fields
}

// Elems returns the elements of a collection or array; it panics otherwise.
func (v Value) Elems() []Value {
	switch v.kind {
	case KindList, KindBag, KindSet, KindArray:
		return v.elems
	}
	panic(fmt.Sprintf("values: Elems on %s", v.kind))
}

// Dims returns the dimensions of an array value.
func (v Value) Dims() []int {
	v.mustBe(KindArray)
	return v.dims
}

// Len returns the number of elements in a collection, array or record.
func (v Value) Len() int {
	switch v.kind {
	case KindList, KindBag, KindSet, KindArray:
		return len(v.elems)
	case KindRecord:
		return len(v.fields)
	case KindString:
		return len(v.s)
	}
	panic(fmt.Sprintf("values: Len on %s", v.kind))
}

// Get returns the named record field and whether it exists.
func (v Value) Get(name string) (Value, bool) {
	if v.kind != KindRecord {
		return Null, false
	}
	for _, f := range v.fields {
		if f.Name == name {
			return f.Val, true
		}
	}
	return Null, false
}

// MustGet returns the named record field or panics.
func (v Value) MustGet(name string) Value {
	val, ok := v.Get(name)
	if !ok {
		panic(fmt.Sprintf("values: record has no field %q", name))
	}
	return val
}

// At returns the array element at the given multi-dimensional index.
func (v Value) At(idx ...int) Value {
	v.mustBe(KindArray)
	if len(idx) != len(v.dims) {
		panic(fmt.Sprintf("values: index rank %d != array rank %d", len(idx), len(v.dims)))
	}
	off := 0
	for d, i := range idx {
		if i < 0 || i >= v.dims[d] {
			panic(fmt.Sprintf("values: index %d out of range for dim %d (size %d)", i, d, v.dims[d]))
		}
		off = off*v.dims[d] + i
	}
	return v.elems[off]
}

// IsNumeric reports whether v is an int or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// IsCollection reports whether v is a list, bag or set.
func (v Value) IsCollection() bool {
	return v.kind == KindList || v.kind == KindBag || v.kind == KindSet
}

func (v Value) mustBe(k Kind) {
	if v.kind != k {
		panic(fmt.Sprintf("values: want %s, have %s", k, v.kind))
	}
}

// Compare imposes a total order across all values. Values of different
// kinds order by kind; nulls sort first. Records compare field-by-field in
// declaration order (names first, then values); collections compare
// lexicographically over canonical element order.
func Compare(a, b Value) int {
	if a.kind != b.kind {
		// Numeric cross-kind comparison keeps int/float interoperable.
		if a.IsNumeric() && b.IsNumeric() {
			return compareFloat(a.Float(), b.Float())
		}
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindNull:
		return 0
	case KindBool:
		if a.b == b.b {
			return 0
		}
		if !a.b {
			return -1
		}
		return 1
	case KindInt:
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		}
		return 0
	case KindFloat:
		return compareFloat(a.f, b.f)
	case KindString:
		return strings.Compare(a.s, b.s)
	case KindRecord:
		for i := 0; i < len(a.fields) && i < len(b.fields); i++ {
			if c := strings.Compare(a.fields[i].Name, b.fields[i].Name); c != 0 {
				return c
			}
			if c := Compare(a.fields[i].Val, b.fields[i].Val); c != 0 {
				return c
			}
		}
		return len(a.fields) - len(b.fields)
	case KindList, KindBag, KindSet:
		return compareSlices(a.elems, b.elems)
	case KindArray:
		for i := 0; i < len(a.dims) && i < len(b.dims); i++ {
			if a.dims[i] != b.dims[i] {
				return a.dims[i] - b.dims[i]
			}
		}
		if d := len(a.dims) - len(b.dims); d != 0 {
			return d
		}
		return compareSlices(a.elems, b.elems)
	}
	panic(fmt.Sprintf("values: Compare on %s", a.kind))
}

// CompareFloats orders two float64s exactly as Compare orders float
// values (NaNs sort before non-NaNs). Vectorized kernels use it to match
// the boxed comparison semantics without constructing values.
func CompareFloats(a, b float64) int { return compareFloat(a, b) }

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case math.IsNaN(a) && !math.IsNaN(b):
		return -1
	case !math.IsNaN(a) && math.IsNaN(b):
		return 1
	}
	return 0
}

func compareSlices(a, b []Value) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

// Equal reports whether two values are equal under Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

func sortValues(vs []Value) {
	sort.Slice(vs, func(i, j int) bool { return Compare(vs[i], vs[j]) < 0 })
}

// Hash returns a hash of the value, consistent with Equal: equal values
// hash identically (int/float numeric equality included). Scalars take a
// fast single-mix path — they are the overwhelmingly common join keys —
// while composites use an FNV-1a tree walk.
func (v Value) Hash() uint64 {
	switch v.kind {
	case KindNull:
		return 0x9e3779b97f4a7c15
	case KindBool:
		if v.b {
			return mix64(0xbf58476d1ce4e5b9)
		}
		return mix64(0x94d049bb133111eb)
	case KindInt:
		return HashInt(v.i)
	case KindFloat:
		return HashFloat(v.f)
	case KindString:
		return HashString(v.s)
	}
	h := uint64(14695981039346656037)
	v.hashInto(&h)
	return h
}

// HashInt hashes an int64 exactly as NewInt(i).Hash() would — ints hash
// through their float64 image so 1 and 1.0 collide, matching Compare.
// Vectorized join-key kernels use these scalar helpers to hash typed
// column payloads without boxing.
func HashInt(i int64) uint64 { return mix64(math.Float64bits(float64(i))) }

// HashFloat hashes a float64 exactly as NewFloat(f).Hash() would.
func HashFloat(f float64) uint64 { return mix64(floatHashBits(f)) }

// canonicalNaN is the bit pattern every NaN hashes as.
const canonicalNaN = 0x7ff8000000000001

// floatHashBits is the bit pattern f hashes as: its own, except that
// the values Compare calls equal but whose bits differ hash alike —
// −0 as 0, every NaN as one NaN.
func floatHashBits(f float64) uint64 {
	switch {
	case f == 0:
		return 0
	case f != f:
		return canonicalNaN
	}
	return math.Float64bits(f)
}

// HashString hashes a string exactly as NewString(s).Hash() would
// (FNV-1a over the bytes).
func HashString(s string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime64
	}
	return h
}

// mix64 is the splitmix64 finalizer: a fast, well-distributed 64-bit mix.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func hashByte(h *uint64, b byte) {
	*h ^= uint64(b)
	*h *= 1099511628211
}

func hashUint64(h *uint64, u uint64) {
	for i := 0; i < 8; i++ {
		hashByte(h, byte(u>>(8*i)))
	}
}

func hashString(h *uint64, s string) {
	for i := 0; i < len(s); i++ {
		hashByte(h, s[i])
	}
}

func (v Value) hashInto(h *uint64) {
	switch v.kind {
	case KindNull:
		hashByte(h, 0)
	case KindBool:
		hashByte(h, 1)
		if v.b {
			hashByte(h, 1)
		} else {
			hashByte(h, 0)
		}
	case KindInt:
		// Hash ints as floats so 1 and 1.0 collide, matching Compare.
		hashByte(h, 2)
		hashUint64(h, math.Float64bits(float64(v.i)))
	case KindFloat:
		hashByte(h, 2)
		hashUint64(h, floatHashBits(v.f))
	case KindString:
		hashByte(h, 3)
		hashString(h, v.s)
	case KindRecord:
		hashByte(h, 4)
		for _, f := range v.fields {
			hashString(h, f.Name)
			f.Val.hashInto(h)
		}
	case KindList, KindBag, KindSet:
		hashByte(h, byte(4+v.kind-KindList+1))
		for _, e := range v.elems {
			e.hashInto(h)
		}
	case KindArray:
		hashByte(h, 9)
		for _, d := range v.dims {
			hashUint64(h, uint64(d))
		}
		for _, e := range v.elems {
			e.hashInto(h)
		}
	}
}

// String renders the value in a compact human-readable syntax used by the
// CLI and tests: records as (a := 1, b := "x"), bags as bag{...}, etc.
func (v Value) String() string {
	var sb strings.Builder
	v.format(&sb)
	return sb.String()
}

func (v Value) format(sb *strings.Builder) {
	switch v.kind {
	case KindNull:
		sb.WriteString("null")
	case KindBool:
		sb.WriteString(strconv.FormatBool(v.b))
	case KindInt:
		sb.WriteString(strconv.FormatInt(v.i, 10))
	case KindFloat:
		sb.WriteString(strconv.FormatFloat(v.f, 'g', -1, 64))
	case KindString:
		sb.WriteString(strconv.Quote(v.s))
	case KindRecord:
		sb.WriteByte('(')
		for i, f := range v.fields {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(f.Name)
			sb.WriteString(" := ")
			f.Val.format(sb)
		}
		sb.WriteByte(')')
	case KindList, KindBag, KindSet:
		sb.WriteString(v.kind.String())
		sb.WriteByte('{')
		for i, e := range v.elems {
			if i > 0 {
				sb.WriteString(", ")
			}
			e.format(sb)
		}
		sb.WriteByte('}')
	case KindArray:
		fmt.Fprintf(sb, "array%v[", v.dims)
		for i, e := range v.elems {
			if i > 0 {
				sb.WriteString(", ")
			}
			e.format(sb)
		}
		sb.WriteByte(']')
	}
}

// Truth converts a value to a boolean for predicate contexts: booleans are
// themselves, null is false.
func (v Value) Truth() bool {
	switch v.kind {
	case KindBool:
		return v.b
	case KindNull:
		return false
	}
	panic(fmt.Sprintf("values: Truth on %s", v.kind))
}

// AsCollection converts a collection value to kind k, re-canonicalizing as
// needed. This implements the "virtualize the output to the requested
// collection type" capability of the calculus (paper §3.2).
func (v Value) AsCollection(k Kind) Value {
	elems := v.Elems()
	switch k {
	case KindList:
		cp := make([]Value, len(elems))
		copy(cp, elems)
		return NewList(cp...)
	case KindBag:
		return NewBag(elems...)
	case KindSet:
		return NewSet(elems...)
	}
	panic(fmt.Sprintf("values: AsCollection to %s", k))
}

// Append returns a collection of the same kind with x added, preserving the
// kind's invariants (lists append, bags insert sorted, sets dedupe). It is
// the Unit/Merge building block used by collection monoids.
func (v Value) Append(x Value) Value {
	switch v.kind {
	case KindList:
		out := make([]Value, 0, len(v.elems)+1)
		out = append(out, v.elems...)
		out = append(out, x)
		return Value{kind: KindList, elems: out}
	case KindBag:
		out := insertSorted(v.elems, x, true)
		return Value{kind: KindBag, elems: out}
	case KindSet:
		out := insertSorted(v.elems, x, false)
		return Value{kind: KindSet, elems: out}
	}
	panic(fmt.Sprintf("values: Append on %s", v.kind))
}

func insertSorted(elems []Value, x Value, allowDup bool) []Value {
	i := sort.Search(len(elems), func(i int) bool { return Compare(elems[i], x) >= 0 })
	if !allowDup && i < len(elems) && Compare(elems[i], x) == 0 {
		return elems
	}
	out := make([]Value, 0, len(elems)+1)
	out = append(out, elems[:i]...)
	out = append(out, x)
	out = append(out, elems[i:]...)
	return out
}
