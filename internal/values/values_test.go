package values

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestScalars(t *testing.T) {
	if !NewBool(true).Bool() {
		t.Fatal("bool payload lost")
	}
	if NewInt(42).Int() != 42 {
		t.Fatal("int payload lost")
	}
	if NewFloat(2.5).Float() != 2.5 {
		t.Fatal("float payload lost")
	}
	if NewString("hi").Str() != "hi" {
		t.Fatal("string payload lost")
	}
	if !Null.IsNull() {
		t.Fatal("Null is not null")
	}
	var zero Value
	if !zero.IsNull() {
		t.Fatal("zero Value is not null")
	}
}

func TestIntWidensToFloat(t *testing.T) {
	if NewInt(3).Float() != 3.0 {
		t.Fatal("int did not widen")
	}
}

func TestRecordAccess(t *testing.T) {
	r := NewRecord(Field{"a", NewInt(1)}, Field{"b", NewString("x")})
	if v, ok := r.Get("a"); !ok || v.Int() != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	if v, ok := r.Get("b"); !ok || v.Str() != "x" {
		t.Fatalf("Get(b) = %v, %v", v, ok)
	}
	if _, ok := r.Get("c"); ok {
		t.Fatal("Get(c) should miss")
	}
	if r.Len() != 2 {
		t.Fatalf("record Len = %d", r.Len())
	}
}

func TestMustGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet on missing field did not panic")
		}
	}()
	NewRecord().MustGet("nope")
}

func TestSetDeduplicates(t *testing.T) {
	s := NewSet(NewInt(2), NewInt(1), NewInt(2), NewInt(1))
	if s.Len() != 2 {
		t.Fatalf("set has %d elems, want 2", s.Len())
	}
	if s.Elems()[0].Int() != 1 || s.Elems()[1].Int() != 2 {
		t.Fatalf("set not canonicalized: %v", s)
	}
}

func TestBagCanonicalEquality(t *testing.T) {
	a := NewBag(NewInt(1), NewInt(2), NewInt(2))
	b := NewBag(NewInt(2), NewInt(1), NewInt(2))
	if !Equal(a, b) {
		t.Fatalf("equal bags compare unequal: %v vs %v", a, b)
	}
	c := NewBag(NewInt(1), NewInt(2))
	if Equal(a, c) {
		t.Fatal("bags with different multiplicity compare equal")
	}
}

func TestListOrderMatters(t *testing.T) {
	a := NewList(NewInt(1), NewInt(2))
	b := NewList(NewInt(2), NewInt(1))
	if Equal(a, b) {
		t.Fatal("lists with different order compare equal")
	}
}

func TestArrayIndexing(t *testing.T) {
	// 2x3 matrix 0..5 in row-major order.
	elems := make([]Value, 6)
	for i := range elems {
		elems[i] = NewInt(int64(i))
	}
	a := NewArray([]int{2, 3}, elems)
	if a.At(0, 0).Int() != 0 || a.At(0, 2).Int() != 2 || a.At(1, 0).Int() != 3 || a.At(1, 2).Int() != 5 {
		t.Fatalf("row-major indexing broken: %v", a)
	}
}

func TestArrayDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dims/elems mismatch did not panic")
		}
	}()
	NewArray([]int{2, 2}, []Value{NewInt(1)})
}

func TestNumericCrossKindCompare(t *testing.T) {
	if Compare(NewInt(1), NewFloat(1.0)) != 0 {
		t.Fatal("1 != 1.0")
	}
	if Compare(NewInt(1), NewFloat(1.5)) >= 0 {
		t.Fatal("1 >= 1.5")
	}
	if Compare(NewFloat(2.5), NewInt(2)) <= 0 {
		t.Fatal("2.5 <= 2")
	}
}

func TestHashConsistentWithEqual(t *testing.T) {
	pairs := [][2]Value{
		{NewInt(1), NewFloat(1.0)},
		{NewBag(NewInt(1), NewInt(2)), NewBag(NewInt(2), NewInt(1))},
		{NewSet(NewInt(1), NewInt(1)), NewSet(NewInt(1))},
		{NewRecord(Field{"a", NewInt(1)}), NewRecord(Field{"a", NewInt(1)})},
		// −0 equals 0 and every NaN equals every NaN, in any bit pattern.
		{NewFloat(math.Copysign(0, -1)), NewInt(0)},
		{NewList(NewFloat(math.Copysign(0, -1))), NewList(NewFloat(0))},
		{NewFloat(math.NaN()), NewFloat(math.Float64frombits(0xfff8000000000000))},
		{NewList(NewFloat(math.NaN())), NewList(NewFloat(-math.NaN()))},
	}
	for _, p := range pairs {
		if !Equal(p[0], p[1]) {
			t.Fatalf("pair %v expected equal", p)
		}
		if p[0].Hash() != p[1].Hash() {
			t.Fatalf("equal values hash differently: %v %v", p[0], p[1])
		}
	}
}

func TestStringFormat(t *testing.T) {
	v := NewRecord(
		Field{"name", NewString("ada")},
		Field{"scores", NewList(NewInt(1), NewFloat(2.5))},
	)
	got := v.String()
	want := `(name := "ada", scores := list{1, 2.5})`
	if got != want {
		t.Fatalf("String() = %s, want %s", got, want)
	}
}

func TestAsCollection(t *testing.T) {
	l := NewList(NewInt(2), NewInt(1), NewInt(2))
	if got := l.AsCollection(KindSet); got.Len() != 2 {
		t.Fatalf("list->set = %v", got)
	}
	if got := l.AsCollection(KindBag); got.Len() != 3 {
		t.Fatalf("list->bag = %v", got)
	}
	if got := l.AsCollection(KindList); !Equal(got, l) {
		t.Fatalf("list->list = %v", got)
	}
}

func TestAppendPreservesInvariants(t *testing.T) {
	s := NewSet(NewInt(1))
	s = s.Append(NewInt(1))
	if s.Len() != 1 {
		t.Fatalf("set append allowed dup: %v", s)
	}
	b := NewBag(NewInt(2))
	b = b.Append(NewInt(1))
	if b.Elems()[0].Int() != 1 {
		t.Fatalf("bag append lost sort order: %v", b)
	}
	l := NewList(NewInt(2))
	l = l.Append(NewInt(1))
	if l.Elems()[1].Int() != 1 {
		t.Fatalf("list append reordered: %v", l)
	}
}

func TestTruth(t *testing.T) {
	if !True.Truth() || False.Truth() {
		t.Fatal("bool truth broken")
	}
	if Null.Truth() {
		t.Fatal("null should be false")
	}
}

// randomValue builds an arbitrary value of bounded depth for property tests.
func randomValue(r *rand.Rand, depth int) Value {
	k := r.Intn(10)
	if depth <= 0 && k >= 5 {
		k = r.Intn(5)
	}
	switch k {
	case 0:
		return Null
	case 1:
		return NewBool(r.Intn(2) == 0)
	case 2:
		return NewInt(int64(r.Intn(21) - 10))
	case 3:
		return NewFloat(float64(r.Intn(21)-10) / 2)
	case 4:
		return NewString(string(rune('a' + r.Intn(4))))
	case 5:
		n := r.Intn(3)
		fs := make([]Field, n)
		for i := range fs {
			fs[i] = Field{Name: string(rune('a' + i)), Val: randomValue(r, depth-1)}
		}
		return NewRecord(fs...)
	case 6, 7, 8:
		n := r.Intn(4)
		es := make([]Value, n)
		for i := range es {
			es[i] = randomValue(r, depth-1)
		}
		switch k {
		case 6:
			return NewList(es...)
		case 7:
			return NewBag(es...)
		default:
			return NewSet(es...)
		}
	default:
		n := r.Intn(3) + 1
		es := make([]Value, n)
		for i := range es {
			es[i] = randomValue(r, depth-1)
		}
		return NewArray([]int{n}, es)
	}
}

func TestCompareIsTotalOrder(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(args []reflect.Value, _ *rand.Rand) {
			for i := range args {
				args[i] = reflect.ValueOf(randomValue(r, 3))
			}
		},
	}
	// Antisymmetry: sign(Compare(a,b)) == -sign(Compare(b,a)).
	anti := func(a, b Value) bool {
		return sign(Compare(a, b)) == -sign(Compare(b, a))
	}
	if err := quick.Check(anti, cfg); err != nil {
		t.Fatalf("antisymmetry: %v", err)
	}
	// Reflexivity: Compare(a,a) == 0.
	refl := func(a, b Value) bool { return Compare(a, a) == 0 }
	if err := quick.Check(refl, cfg); err != nil {
		t.Fatalf("reflexivity: %v", err)
	}
	// Hash consistency: Equal implies same hash.
	hashOK := func(a, b Value) bool {
		if Equal(a, b) {
			return a.Hash() == b.Hash()
		}
		return true
	}
	if err := quick.Check(hashOK, cfg); err != nil {
		t.Fatalf("hash consistency: %v", err)
	}
}

func TestCompareTransitivitySampled(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		a, b, c := randomValue(r, 2), randomValue(r, 2), randomValue(r, 2)
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			t.Fatalf("transitivity violated: %v <= %v <= %v but a > c", a, b, c)
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestStringOfKinds(t *testing.T) {
	for k := KindNull; k <= KindArray; k++ {
		if strings.Contains(k.String(), "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
	}
}
