package mcl

import (
	"fmt"
	"math"
	"strings"

	"vida/internal/monoid"
	"vida/internal/values"
)

// Env is an evaluation environment binding variables to values or, for
// let-bound lambdas, to closures. Environments form a persistent chain so
// binding is O(1) inside comprehension loops.
type Env struct {
	name string
	val  values.Value
	fn   *closure
	next *Env
}

type closure struct {
	param string
	body  Expr
	env   *Env
}

// NewEnv builds an environment from a map of top-level bindings (typically
// the registered data sources as collection values).
func NewEnv(bindings map[string]values.Value) *Env {
	var env *Env
	for name, v := range bindings {
		env = &Env{name: name, val: v, next: env}
	}
	return env
}

// Bind returns a child environment with one extra variable.
func (e *Env) Bind(name string, v values.Value) *Env {
	return &Env{name: name, val: v, next: e}
}

func (e *Env) bindFn(name string, cl *closure) *Env {
	return &Env{name: name, fn: cl, next: e}
}

// Lookup resolves a variable.
func (e *Env) Lookup(name string) (values.Value, bool) {
	for env := e; env != nil; env = env.next {
		if env.name == name {
			return env.val, env.fn == nil
		}
	}
	return values.Null, false
}

func (e *Env) lookupFn(name string) (*closure, bool) {
	for env := e; env != nil; env = env.next {
		if env.name == name {
			return env.fn, env.fn != nil
		}
	}
	return nil, false
}

// EvalError is a runtime evaluation error.
type EvalError struct{ Msg string }

func (e *EvalError) Error() string { return "mcl: eval: " + e.Msg }

func evalErrf(format string, args ...any) error {
	return &EvalError{Msg: fmt.Sprintf(format, args...)}
}

// Eval evaluates an expression in the given environment. It is the
// reference interpreter defining the semantics of the calculus: executors
// (static and JIT) are tested against it.
//
// Null handling: arithmetic with a null operand yields null; comparisons
// with a null operand yield false; a filter evaluating to null rejects the
// binding; a generator over null iterates zero times; a fold, grouped or
// not, skips null inputs except under count and the collection monoids
// (monoid.Collector.Add).
func Eval(e Expr, env *Env) (values.Value, error) {
	switch n := e.(type) {
	case *NullExpr:
		return values.Null, nil
	case *ConstExpr:
		return n.Val, nil
	case *VarExpr:
		v, ok := env.Lookup(n.Name)
		if !ok {
			if _, isFn := env.lookupFn(n.Name); isFn {
				return values.Null, evalErrf("variable %q is a function, not a value", n.Name)
			}
			return values.Null, evalErrf("unbound variable %q", n.Name)
		}
		return v, nil
	case *ParamExpr:
		// Parameters are substituted before execution (BindParams); one
		// surviving to evaluation was never bound.
		return values.Null, evalErrf("unbound parameter $%s", n.Name)
	case *ProjExpr:
		rec, err := Eval(n.Rec, env)
		if err != nil {
			return values.Null, err
		}
		if rec.IsNull() {
			return values.Null, nil
		}
		if rec.Kind() != values.KindRecord {
			return values.Null, evalErrf("projection .%s on %s", n.Attr, rec.Kind())
		}
		v, ok := rec.Get(n.Attr)
		if !ok {
			// Missing attributes read as null: raw JSON objects are
			// frequently heterogeneous (paper §3.1).
			return values.Null, nil
		}
		return v, nil
	case *RecordExpr:
		fields := make([]values.Field, len(n.Fields))
		for i, f := range n.Fields {
			v, err := Eval(f.Val, env)
			if err != nil {
				return values.Null, err
			}
			fields[i] = values.Field{Name: f.Name, Val: v}
		}
		return values.NewRecord(fields...), nil
	case *IfExpr:
		cond, err := Eval(n.Cond, env)
		if err != nil {
			return values.Null, err
		}
		if truthy(cond) {
			return Eval(n.Then, env)
		}
		return Eval(n.Else, env)
	case *BinExpr:
		return evalBin(n, env)
	case *NotExpr:
		v, err := Eval(n.E, env)
		if err != nil {
			return values.Null, err
		}
		return values.NewBool(!truthy(v)), nil
	case *NegExpr:
		v, err := Eval(n.E, env)
		if err != nil {
			return values.Null, err
		}
		switch v.Kind() {
		case values.KindNull:
			return values.Null, nil
		case values.KindInt:
			return values.NewInt(-v.Int()), nil
		case values.KindFloat:
			return values.NewFloat(-v.Float()), nil
		}
		return values.Null, evalErrf("negation of %s", v.Kind())
	case *LambdaExpr:
		return values.Null, evalErrf("function value used where a data value is required")
	case *ApplyExpr:
		return evalApply(n, env)
	case *CallExpr:
		return evalCall(n, env)
	case *ZeroExpr:
		return n.M.Zero(), nil
	case *SingletonExpr:
		v, err := Eval(n.E, env)
		if err != nil {
			return values.Null, err
		}
		return n.M.Unit(v), nil
	case *MergeExpr:
		l, err := Eval(n.L, env)
		if err != nil {
			return values.Null, err
		}
		r, err := Eval(n.R, env)
		if err != nil {
			return values.Null, err
		}
		m := n.M
		if m == nil {
			m, err = inferMergeMonoid(l)
			if err != nil {
				return values.Null, err
			}
		}
		return m.Merge(l, r), nil
	case *IndexExpr:
		return evalIndex(n, env)
	case *Comprehension:
		return evalComprehension(n, env)
	}
	return values.Null, evalErrf("unknown expression %T", e)
}

func inferMergeMonoid(l values.Value) (monoid.Monoid, error) {
	switch l.Kind() {
	case values.KindList:
		return monoid.List, nil
	case values.KindBag:
		return monoid.Bag, nil
	case values.KindSet:
		return monoid.Set, nil
	case values.KindArray:
		return monoid.Array, nil
	}
	return nil, evalErrf("++ needs collection operands, got %s", l.Kind())
}

func truthy(v values.Value) bool {
	return v.Kind() == values.KindBool && v.Bool()
}

func evalBin(n *BinExpr, env *Env) (values.Value, error) {
	// and/or short-circuit.
	if n.Op == OpAnd || n.Op == OpOr {
		l, err := Eval(n.L, env)
		if err != nil {
			return values.Null, err
		}
		lt := truthy(l)
		if n.Op == OpAnd && !lt {
			return values.False, nil
		}
		if n.Op == OpOr && lt {
			return values.True, nil
		}
		r, err := Eval(n.R, env)
		if err != nil {
			return values.Null, err
		}
		return values.NewBool(truthy(r)), nil
	}
	l, err := Eval(n.L, env)
	if err != nil {
		return values.Null, err
	}
	r, err := Eval(n.R, env)
	if err != nil {
		return values.Null, err
	}
	return ApplyBinOp(n.Op, l, r)
}

// ApplyBinOp applies a binary operator to two values; it is shared with
// the executors so operator semantics live in exactly one place.
func ApplyBinOp(op BinOp, l, r values.Value) (values.Value, error) {
	switch op {
	case OpEq, OpNeq, OpLt, OpLe, OpGt, OpGe:
		if l.IsNull() || r.IsNull() {
			return values.False, nil
		}
		c := values.Compare(l, r)
		switch op {
		case OpEq:
			return values.NewBool(c == 0), nil
		case OpNeq:
			return values.NewBool(c != 0), nil
		case OpLt:
			return values.NewBool(c < 0), nil
		case OpLe:
			return values.NewBool(c <= 0), nil
		case OpGt:
			return values.NewBool(c > 0), nil
		default:
			return values.NewBool(c >= 0), nil
		}
	case OpAnd:
		return values.NewBool(truthy(l) && truthy(r)), nil
	case OpOr:
		return values.NewBool(truthy(l) || truthy(r)), nil
	}
	// Arithmetic.
	if l.IsNull() || r.IsNull() {
		return values.Null, nil
	}
	if op == OpAdd && l.Kind() == values.KindString && r.Kind() == values.KindString {
		return values.NewString(l.Str() + r.Str()), nil
	}
	if !l.IsNumeric() || !r.IsNumeric() {
		return values.Null, evalErrf("operator %s needs numeric operands, got %s and %s", op, l.Kind(), r.Kind())
	}
	bothInt := l.Kind() == values.KindInt && r.Kind() == values.KindInt
	switch op {
	case OpAdd:
		if bothInt {
			return values.NewInt(l.Int() + r.Int()), nil
		}
		return values.NewFloat(l.Float() + r.Float()), nil
	case OpSub:
		if bothInt {
			return values.NewInt(l.Int() - r.Int()), nil
		}
		return values.NewFloat(l.Float() - r.Float()), nil
	case OpMul:
		if bothInt {
			return values.NewInt(l.Int() * r.Int()), nil
		}
		return values.NewFloat(l.Float() * r.Float()), nil
	case OpDiv:
		if bothInt {
			if r.Int() == 0 {
				return values.Null, evalErrf("integer division by zero")
			}
			return values.NewInt(l.Int() / r.Int()), nil
		}
		return values.NewFloat(l.Float() / r.Float()), nil
	case OpMod:
		if !bothInt {
			return values.Null, evalErrf("%% needs integer operands")
		}
		if r.Int() == 0 {
			return values.Null, evalErrf("modulo by zero")
		}
		return values.NewInt(l.Int() % r.Int()), nil
	}
	return values.Null, evalErrf("unknown operator %s", op)
}

func evalApply(n *ApplyExpr, env *Env) (values.Value, error) {
	arg, err := Eval(n.Arg, env)
	if err != nil {
		return values.Null, err
	}
	switch fn := n.Fn.(type) {
	case *LambdaExpr:
		return Eval(fn.Body, env.Bind(fn.Param, arg))
	case *VarExpr:
		cl, ok := env.lookupFn(fn.Name)
		if !ok {
			return values.Null, evalErrf("%q is not a function", fn.Name)
		}
		return Eval(cl.body, cl.env.Bind(cl.param, arg))
	case *ApplyExpr:
		return values.Null, evalErrf("curried application is not supported")
	}
	return values.Null, evalErrf("cannot apply %T", n.Fn)
}

func evalIndex(n *IndexExpr, env *Env) (values.Value, error) {
	arr, err := Eval(n.Arr, env)
	if err != nil {
		return values.Null, err
	}
	if arr.IsNull() {
		return values.Null, nil
	}
	idxs := make([]int, len(n.Idxs))
	for i, ix := range n.Idxs {
		v, err := Eval(ix, env)
		if err != nil {
			return values.Null, err
		}
		if v.Kind() != values.KindInt {
			return values.Null, evalErrf("array index must be int, got %s", v.Kind())
		}
		idxs[i] = int(v.Int())
	}
	switch arr.Kind() {
	case values.KindArray:
		if len(idxs) != len(arr.Dims()) {
			return values.Null, evalErrf("index rank %d != array rank %d", len(idxs), len(arr.Dims()))
		}
		for d, i := range idxs {
			if i < 0 || i >= arr.Dims()[d] {
				return values.Null, evalErrf("index %d out of range for dim %d", i, d)
			}
		}
		return arr.At(idxs...), nil
	case values.KindList:
		if len(idxs) != 1 {
			return values.Null, evalErrf("list index must be one-dimensional")
		}
		i := idxs[0]
		if i < 0 || i >= arr.Len() {
			return values.Null, evalErrf("list index %d out of range", i)
		}
		return arr.Elems()[i], nil
	}
	return values.Null, evalErrf("cannot index %s", arr.Kind())
}

func evalComprehension(c *Comprehension, env *Env) (values.Value, error) {
	if c.Grouped() {
		return evalGroupedComprehension(c, env)
	}
	if c.HasBound() {
		return evalBoundedComprehension(c, env)
	}
	acc := monoid.NewCollector(c.M)
	err := forEachBinding(c.Qs, env, func(env *Env) error {
		h, err := Eval(c.Head, env)
		if err != nil {
			return err
		}
		acc.Add(h)
		return nil
	})
	if err != nil {
		return values.Null, err
	}
	return acc.Result(), nil
}

// forEachBinding drives the qualifier list, invoking fn once per
// surviving binding environment.
func forEachBinding(qs []Qualifier, env *Env, fn func(env *Env) error) error {
	var rec func(i int, env *Env) error
	rec = func(i int, env *Env) error {
		if i == len(qs) {
			return fn(env)
		}
		q := qs[i]
		switch {
		case q.IsGenerator():
			src, err := Eval(q.Src, env)
			if err != nil {
				return err
			}
			if src.IsNull() {
				return nil
			}
			if !src.IsCollection() && src.Kind() != values.KindArray {
				return evalErrf("generator %s <- needs a collection, got %s", q.Var, src.Kind())
			}
			for _, e := range src.Elems() {
				if err := rec(i+1, env.Bind(q.Var, e)); err != nil {
					return err
				}
			}
			return nil
		case q.IsBind():
			if lam, ok := q.Src.(*LambdaExpr); ok {
				return rec(i+1, env.bindFn(q.Var, &closure{param: lam.Param, body: lam.Body, env: env}))
			}
			v, err := Eval(q.Src, env)
			if err != nil {
				return err
			}
			return rec(i+1, env.Bind(q.Var, v))
		default:
			p, err := Eval(q.Src, env)
			if err != nil {
				return err
			}
			if truthy(p) {
				return rec(i+1, env)
			}
			return nil
		}
	}
	return rec(0, env)
}

// GroupHash combines the hashes of a group-key tuple. Null keys hash to
// a fixed constant so rows with null keys land in one group (grouping
// treats nulls as equal, unlike comparisons).
func GroupHash(keys []values.Value) uint64 {
	h := uint64(1469598103934665603) // FNV offset basis
	for _, k := range keys {
		kh := uint64(0x9e3779b97f4a7c15) // null-key marker
		if !k.IsNull() {
			kh = k.Hash()
		}
		h ^= kh
		h *= 1099511628211 // FNV prime
	}
	return h
}

// GroupKeysEqual compares two group-key tuples under grouping equality:
// nulls equal each other, everything else compares by values.Equal.
func GroupKeysEqual(a, b []values.Value) bool {
	for i := range a {
		if a[i].IsNull() || b[i].IsNull() {
			if a[i].IsNull() != b[i].IsNull() {
				return false
			}
			continue
		}
		if !values.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// evalGroupedComprehension is the reference semantics of the grouping
// form, in one scan: qualifier bindings are partitioned by their key
// tuple (first-occurrence order), each group folds its aggregate inputs,
// and Having/Head/Order run once per group in the group scope.
func evalGroupedComprehension(c *Comprehension, env *Env) (values.Value, error) {
	type group struct {
		keys []values.Value
		accs []*monoid.Collector
	}
	var groups []*group
	index := map[uint64][]int{}
	err := forEachBinding(c.Qs, env, func(benv *Env) error {
		keys := make([]values.Value, len(c.GroupBy))
		for i, k := range c.GroupBy {
			kv, err := Eval(k.E, benv)
			if err != nil {
				return err
			}
			keys[i] = kv
		}
		h := GroupHash(keys)
		var g *group
		for _, gi := range index[h] {
			if GroupKeysEqual(groups[gi].keys, keys) {
				g = groups[gi]
				break
			}
		}
		if g == nil {
			g = &group{keys: keys, accs: make([]*monoid.Collector, len(c.Aggs))}
			for i, a := range c.Aggs {
				g.accs[i] = monoid.NewCollector(a.M)
			}
			index[h] = append(index[h], len(groups))
			groups = append(groups, g)
		}
		for i, a := range c.Aggs {
			av, err := Eval(a.E, benv)
			if err != nil {
				return err
			}
			g.accs[i].Add(av)
		}
		return nil
	})
	if err != nil {
		return values.Null, err
	}
	// Per group: bind key and aggregate names over the OUTER scope, filter
	// with Having, then run the ordinary comprehension root (fold, or
	// top-k / limit slicing) over the group rows.
	eachGroup := func(fn func(genv *Env) error) error {
		for _, g := range groups {
			genv := env
			for i, k := range c.GroupBy {
				genv = genv.Bind(k.Name, g.keys[i])
			}
			for i := range c.Aggs {
				genv = genv.Bind(c.Aggs[i].Name, g.accs[i].Result())
			}
			if c.Having != nil {
				hv, err := Eval(c.Having, genv)
				if err != nil {
					return err
				}
				if !truthy(hv) {
					continue
				}
			}
			if err := fn(genv); err != nil {
				return err
			}
		}
		return nil
	}
	if !c.HasBound() {
		acc := monoid.NewCollector(c.M)
		if err := eachGroup(func(genv *Env) error {
			h, err := Eval(c.Head, genv)
			if err != nil {
				return err
			}
			acc.Add(h)
			return nil
		}); err != nil {
			return values.Null, err
		}
		return acc.Result(), nil
	}
	limit, err := EvalExtent(c.Limit, env, "limit", -1)
	if err != nil {
		return values.Null, err
	}
	offset, err := EvalExtent(c.Offset, env, "offset", 0)
	if err != nil {
		return values.Null, err
	}
	dedup := c.M.Name() == "set"
	if len(c.Order) == 0 {
		acc := monoid.NewCollector(c.M)
		if err := eachGroup(func(genv *Env) error {
			h, err := Eval(c.Head, genv)
			if err != nil {
				return err
			}
			acc.Add(h)
			return nil
		}); err != nil {
			return values.Null, err
		}
		elems := acc.Result().Elems()
		if offset > 0 {
			if offset >= len(elems) {
				elems = nil
			} else {
				elems = elems[offset:]
			}
		}
		if limit >= 0 && limit < len(elems) {
			elems = elems[:limit]
		}
		switch c.M.Name() {
		case "list":
			return values.NewList(elems...), nil
		case "set":
			return values.NewSet(elems...), nil
		default:
			return values.NewBag(elems...), nil
		}
	}
	desc := make([]bool, len(c.Order))
	for i, k := range c.Order {
		desc[i] = k.Desc
	}
	keep := -1
	if limit >= 0 && !dedup {
		keep = offset + limit
	}
	acc := monoid.NewTopKAcc(desc, keep)
	if err := eachGroup(func(genv *Env) error {
		keys := make([]values.Value, len(c.Order))
		for i, k := range c.Order {
			kv, err := Eval(k.E, genv)
			if err != nil {
				return err
			}
			keys[i] = kv
		}
		h, err := Eval(c.Head, genv)
		if err != nil {
			return err
		}
		acc.Add(keys, h)
		return nil
	}); err != nil {
		return values.Null, err
	}
	return values.NewList(acc.Finalize(offset, limit, dedup)...), nil
}

// EvalExtent evaluates a limit/offset expression to a non-negative int.
// A nil expression returns the provided default; executors share this so
// every engine rejects the same malformed bounds.
func EvalExtent(e Expr, env *Env, what string, def int) (int, error) {
	if e == nil {
		return def, nil
	}
	v, err := Eval(e, env)
	if err != nil {
		return 0, err
	}
	if v.Kind() != values.KindInt {
		return 0, evalErrf("%s must be an integer, got %s", what, v.Kind())
	}
	n := v.Int()
	if n < 0 {
		return 0, evalErrf("%s must be non-negative, got %d", what, n)
	}
	return int(n), nil
}

// evalBoundedComprehension handles order by / limit / offset. Ordered
// comprehensions fold a keyed top-k (bounded to offset+limit entries
// when a limit is present) and yield a list; bare limit/offset slice the
// declared collection after accumulation. Set semantics deduplicate
// before offset/limit apply.
func evalBoundedComprehension(c *Comprehension, env *Env) (values.Value, error) {
	limit, err := EvalExtent(c.Limit, env, "limit", -1)
	if err != nil {
		return values.Null, err
	}
	offset, err := EvalExtent(c.Offset, env, "offset", 0)
	if err != nil {
		return values.Null, err
	}
	dedup := c.M.Name() == "set"
	if len(c.Order) == 0 {
		// Bare limit/offset: accumulate under the declared monoid (its
		// Result canonicalizes bags/sets), then slice.
		acc := monoid.NewCollector(c.M)
		err := forEachBinding(c.Qs, env, func(env *Env) error {
			h, err := Eval(c.Head, env)
			if err != nil {
				return err
			}
			acc.Add(h)
			return nil
		})
		if err != nil {
			return values.Null, err
		}
		elems := acc.Result().Elems()
		if offset > 0 {
			if offset >= len(elems) {
				elems = nil
			} else {
				elems = elems[offset:]
			}
		}
		if limit >= 0 && limit < len(elems) {
			elems = elems[:limit]
		}
		switch c.M.Name() {
		case "list":
			return values.NewList(elems...), nil
		case "set":
			return values.NewSet(elems...), nil
		default:
			return values.NewBag(elems...), nil
		}
	}
	desc := make([]bool, len(c.Order))
	for i, k := range c.Order {
		desc[i] = k.Desc
	}
	keep := -1
	if limit >= 0 && !dedup {
		keep = offset + limit
	}
	acc := monoid.NewTopKAcc(desc, keep)
	err = forEachBinding(c.Qs, env, func(env *Env) error {
		keys := make([]values.Value, len(c.Order))
		for i, k := range c.Order {
			kv, err := Eval(k.E, env)
			if err != nil {
				return err
			}
			keys[i] = kv
		}
		h, err := Eval(c.Head, env)
		if err != nil {
			return err
		}
		acc.Add(keys, h)
		return nil
	})
	if err != nil {
		return values.Null, err
	}
	return values.NewList(acc.Finalize(offset, limit, dedup)...), nil
}

func evalCall(n *CallExpr, env *Env) (values.Value, error) {
	args := make([]values.Value, len(n.Args))
	for i, a := range n.Args {
		v, err := Eval(a, env)
		if err != nil {
			return values.Null, err
		}
		args[i] = v
	}
	return ApplyBuiltin(n.Name, args)
}

// ApplyBuiltin applies a builtin function; shared with the executors.
// Builtins are null-propagating: any null argument yields null.
func ApplyBuiltin(name string, args []values.Value) (values.Value, error) {
	for _, a := range args {
		if a.IsNull() {
			return values.Null, nil
		}
	}
	switch name {
	case "len":
		a := args[0]
		switch a.Kind() {
		case values.KindString, values.KindList, values.KindBag, values.KindSet, values.KindArray, values.KindRecord:
			return values.NewInt(int64(a.Len())), nil
		}
		return values.Null, evalErrf("len of %s", a.Kind())
	case "abs":
		a := args[0]
		switch a.Kind() {
		case values.KindInt:
			if a.Int() < 0 {
				return values.NewInt(-a.Int()), nil
			}
			return a, nil
		case values.KindFloat:
			return values.NewFloat(math.Abs(a.Float())), nil
		}
		return values.Null, evalErrf("abs of %s", a.Kind())
	case "sqrt":
		return values.NewFloat(math.Sqrt(args[0].Float())), nil
	case "floor":
		return values.NewFloat(math.Floor(args[0].Float())), nil
	case "ceil":
		return values.NewFloat(math.Ceil(args[0].Float())), nil
	case "lower":
		return values.NewString(strings.ToLower(args[0].Str())), nil
	case "upper":
		return values.NewString(strings.ToUpper(args[0].Str())), nil
	case "trim":
		return values.NewString(strings.TrimSpace(args[0].Str())), nil
	case "substr":
		s := args[0].Str()
		from, to := int(args[1].Int()), int(args[2].Int())
		if from < 0 {
			from = 0
		}
		if to > len(s) {
			to = len(s)
		}
		if from > to {
			from = to
		}
		return values.NewString(s[from:to]), nil
	case "contains":
		return values.NewBool(strings.Contains(args[0].Str(), args[1].Str())), nil
	case "startswith":
		return values.NewBool(strings.HasPrefix(args[0].Str(), args[1].Str())), nil
	case "endswith":
		return values.NewBool(strings.HasSuffix(args[0].Str(), args[1].Str())), nil
	case "toint":
		a := args[0]
		switch a.Kind() {
		case values.KindInt:
			return a, nil
		case values.KindFloat:
			return values.NewInt(int64(a.Float())), nil
		case values.KindString:
			var n int64
			if _, err := fmt.Sscanf(strings.TrimSpace(a.Str()), "%d", &n); err != nil {
				return values.Null, nil
			}
			return values.NewInt(n), nil
		case values.KindBool:
			if a.Bool() {
				return values.NewInt(1), nil
			}
			return values.NewInt(0), nil
		}
		return values.Null, evalErrf("toint of %s", a.Kind())
	case "tofloat":
		a := args[0]
		switch a.Kind() {
		case values.KindInt, values.KindFloat:
			return values.NewFloat(a.Float()), nil
		case values.KindString:
			var f float64
			if _, err := fmt.Sscanf(strings.TrimSpace(a.Str()), "%g", &f); err != nil {
				return values.Null, nil
			}
			return values.NewFloat(f), nil
		}
		return values.Null, evalErrf("tofloat of %s", a.Kind())
	case "tostring":
		a := args[0]
		if a.Kind() == values.KindString {
			return a, nil
		}
		return values.NewString(a.String()), nil
	}
	return values.Null, evalErrf("unknown builtin %q", name)
}
