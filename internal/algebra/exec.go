package algebra

import (
	"fmt"

	"vida/internal/mcl"
	"vida/internal/monoid"
	"vida/internal/values"
)

// Reference runs the interpreter lazily in the caller's goroutine: a
// node's bindings are produced one at a time as its consumer asks for
// them, and every expression is evaluated by walking its AST. Its generic
// operators carry on every row the interpretation overhead the JIT
// removes (§4: "a 'pre-cooked' operator offering all these capabilities
// must be very generic, thus introducing significant interpretation
// overhead"): it is the simple, obviously correct oracle the JIT engine
// is checked against, and the baseline of the JIT-vs-static experiment.
type Reference struct{}

// Run evaluates the plan against the catalog and returns the reduced
// result.
func (Reference) Run(p *Reduce, cat Catalog) (values.Value, error) {
	base, err := BaseEnv(p, cat)
	if err != nil {
		return values.Null, err
	}
	return (&interp{cat: cat, base: base}).reduce(p)
}

// rows is a plan node's stream of bindings: it calls emit once per
// binding, in order, and returns the first error, emit's included.
type rows func(emit func(*mcl.Env) error) error

// interp is one run of the interpreter.
type interp struct {
	cat  Catalog
	base *mcl.Env
}

// open returns the stream of plan node p, its interpreted operator; a nil
// plan is the single base binding (the unit row driving qualifier-free
// comprehensions).
func (r *interp) open(p Plan) rows {
	switch n := p.(type) {
	case nil:
		return func(emit func(*mcl.Env) error) error { return emit(r.base) }
	case *Scan:
		return func(emit func(*mcl.Env) error) error {
			src, ok := r.cat.Source(n.Source)
			if !ok {
				return fmt.Errorf("algebra: unknown source %q", n.Source)
			}
			return src.Iterate(n.Fields, func(v values.Value) error {
				env := r.base.Bind(n.Var, v)
				if ok, err := holds(n.Filter, env); !ok {
					return err
				}
				return emit(env)
			})
		}
	case *Select:
		in := r.open(n.Input)
		return func(emit func(*mcl.Env) error) error {
			return in(func(env *mcl.Env) error {
				if ok, err := holds(n.Pred, env); !ok {
					return err
				}
				return emit(env)
			})
		}
	case *Bind:
		in := r.open(n.Input)
		return func(emit func(*mcl.Env) error) error {
			return in(func(env *mcl.Env) error {
				v, err := mcl.Eval(n.E, env)
				if err != nil {
					return err
				}
				return emit(env.Bind(n.Var, v))
			})
		}
	case *Generate:
		in := r.open(n.Input)
		return func(emit func(*mcl.Env) error) error {
			return in(func(env *mcl.Env) error {
				coll, err := mcl.Eval(n.E, env)
				if err != nil || coll.IsNull() {
					return err
				}
				if !coll.IsCollection() && coll.Kind() != values.KindArray {
					return fmt.Errorf("algebra: generate over %s", coll.Kind())
				}
				for _, e := range coll.Elems() {
					if err := emit(env.Bind(n.Var, e)); err != nil {
						return err
					}
				}
				return nil
			})
		}
	case *Product:
		l, right := r.open(n.L), r.open(n.R)
		rVars := BoundVars(n.R)
		return func(emit func(*mcl.Env) error) error {
			var renvs []*mcl.Env
			if err := right(func(env *mcl.Env) error { renvs = append(renvs, env); return nil }); err != nil {
				return err
			}
			return l(func(le *mcl.Env) error {
				for _, re := range renvs {
					if err := emit(splice(le, re, rVars)); err != nil {
						return err
					}
				}
				return nil
			})
		}
	case *Join:
		return r.join(n)
	}
	return func(func(*mcl.Env) error) error {
		return fmt.Errorf("algebra: unknown plan node %T", p)
	}
}

// join is a hash join on the equi-key expressions: the right input is
// the build side, the left probes it in order. Null keys never join
// (`a = b` is false when either side is null), so rows with a null key
// part are dropped on both sides.
func (r *interp) join(n *Join) rows {
	l, right := r.open(n.L), r.open(n.R)
	rVars := BoundVars(n.R)
	key := func(env *mcl.Env, left bool) (values.Value, bool, error) {
		parts, err := evalKeys(env, len(n.On), func(i int) mcl.Expr {
			if left {
				return n.On[i].LExpr
			}
			return n.On[i].RExpr
		})
		if err != nil {
			return values.Null, false, err
		}
		for _, v := range parts {
			if v.IsNull() {
				return values.Null, false, nil
			}
		}
		return values.NewList(parts...), true, nil
	}
	return func(emit func(*mcl.Env) error) error {
		type bucket struct {
			keys []values.Value
			envs []*mcl.Env
		}
		table := map[uint64]*bucket{}
		err := right(func(env *mcl.Env) error {
			k, ok, err := key(env, false)
			if !ok {
				return err
			}
			b := table[k.Hash()]
			if b == nil {
				b = &bucket{}
				table[k.Hash()] = b
			}
			b.keys = append(b.keys, k)
			b.envs = append(b.envs, env)
			return nil
		})
		if err != nil {
			return err
		}
		return l(func(le *mcl.Env) error {
			k, ok, err := key(le, true)
			if !ok {
				return err
			}
			b := table[k.Hash()]
			if b == nil {
				return nil
			}
			for i, bk := range b.keys {
				if !values.Equal(k, bk) {
					continue
				}
				if err := emit(splice(le, b.envs[i], rVars)); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

// reduce is the root: the grouped fold for a grouped plan, then the
// keyed top-k (ORDER BY), the prefix of a bare LIMIT/OFFSET, or the
// plain fold of the head over every binding that passes Pred (HAVING
// on a grouped plan).
func (r *interp) reduce(p *Reduce) (values.Value, error) {
	in := r.open(p.Input)
	if p.Grouped() {
		in = r.group(p, in)
	}
	each := func(f func(env *mcl.Env, head values.Value) error) error {
		return in(func(env *mcl.Env) error {
			if ok, err := holds(p.Pred, env); !ok {
				return err
			}
			h, err := mcl.Eval(p.Head, env)
			if err != nil {
				return err
			}
			return f(env, h)
		})
	}
	if p.Order.Ordered() {
		limit, offset, keep, dedup, err := ResolveOrder(p)
		if err != nil {
			return values.Null, err
		}
		desc := make([]bool, len(p.Order.Keys))
		for i, k := range p.Order.Keys {
			desc[i] = k.Desc
		}
		acc := monoid.NewTopKAcc(desc, keep)
		err = each(func(env *mcl.Env, h values.Value) error {
			keys, err := evalKeys(env, len(p.Order.Keys), func(i int) mcl.Expr { return p.Order.Keys[i].E })
			if err == nil {
				acc.Add(keys, h)
			}
			return err
		})
		if err != nil {
			return values.Null, err
		}
		return values.NewList(acc.Finalize(offset, limit, dedup)...), nil
	}
	if p.Order != nil {
		return prefix(p, each)
	}
	acc := monoid.NewCollector(p.M)
	err := each(func(_ *mcl.Env, h values.Value) error {
		acc.Add(h)
		return nil
	})
	if err != nil {
		return values.Null, err
	}
	return acc.Result(), nil
}

// prefix is the bare LIMIT/OFFSET of a collection: the in-order heads
// (first occurrences for a set) after offset, at most limit of them —
// what the JIT's row quota keeps over a serial scan.
func prefix(p *Reduce, each func(func(*mcl.Env, values.Value) error) error) (values.Value, error) {
	limit, offset, err := ResolveExtents(p.Order)
	if err != nil {
		return values.Null, err
	}
	kind := p.M.Name()
	var elems []values.Value
	seen := map[uint64][]values.Value{}
	err = each(func(_ *mcl.Env, h values.Value) error {
		if kind == "set" {
			for _, o := range seen[h.Hash()] {
				if values.Equal(o, h) {
					return nil
				}
			}
			seen[h.Hash()] = append(seen[h.Hash()], h)
		}
		elems = append(elems, h)
		return nil
	})
	if err != nil {
		return values.Null, err
	}
	elems = elems[min(offset, len(elems)):]
	if limit >= 0 && limit < len(elems) {
		elems = elems[:limit]
	}
	switch kind {
	case "list":
		return values.NewList(elems...), nil
	case "set":
		return values.NewSet(elems...), nil
	case "bag":
		return values.NewBag(elems...), nil
	}
	return values.Null, fmt.Errorf("algebra: limit/offset on %s-monoid results", kind)
}

// group is the grouped fold: it partitions its input by the key tuple
// (nulls equal, first-occurrence order), folds each aggregate per group
// under the one null rule (monoid.Collector.Add), and then streams one
// binding per group over the base env with the key and aggregate names
// bound — the semantics of the grouped reduce every engine reproduces.
func (r *interp) group(p *Reduce, in rows) rows {
	return func(emit func(*mcl.Env) error) error {
		type group struct {
			keys []values.Value
			accs []*monoid.Collector
		}
		var groups []*group
		index := map[uint64][]int{}
		err := in(func(env *mcl.Env) error {
			keys, err := evalKeys(env, len(p.GroupBy), func(i int) mcl.Expr { return p.GroupBy[i].E })
			if err != nil {
				return err
			}
			h := mcl.GroupHash(keys)
			var g *group
			for _, gi := range index[h] {
				if mcl.GroupKeysEqual(groups[gi].keys, keys) {
					g = groups[gi]
					break
				}
			}
			if g == nil {
				g = &group{keys: keys, accs: make([]*monoid.Collector, len(p.Aggs))}
				for i, a := range p.Aggs {
					g.accs[i] = monoid.NewCollector(a.M)
				}
				index[h] = append(index[h], len(groups))
				groups = append(groups, g)
			}
			for i, a := range p.Aggs {
				av, err := mcl.Eval(a.E, env)
				if err != nil {
					return err
				}
				g.accs[i].Add(av)
			}
			return nil
		})
		if err != nil {
			return err
		}
		for _, g := range groups {
			genv := r.base
			for i, k := range p.GroupBy {
				genv = genv.Bind(k.Name, g.keys[i])
			}
			for i, a := range p.Aggs {
				genv = genv.Bind(a.Name, g.accs[i].Result())
			}
			if err := emit(genv); err != nil {
				return err
			}
		}
		return nil
	}
}

// ResolveOrder evaluates a reduce's order spec: concrete limit/offset
// plus the retention bound of its top-k — offset+limit only with a limit
// present, unbounded when a set's dedup could drop retained entries.
func ResolveOrder(p *Reduce) (limit, offset, keep int, dedup bool, err error) {
	limit, offset, err = ResolveExtents(p.Order)
	if err != nil {
		return 0, 0, 0, false, err
	}
	dedup = p.M.Name() == "set"
	keep = -1
	if limit >= 0 && !dedup {
		keep = offset + limit
	}
	return limit, offset, keep, dedup, nil
}

// BaseEnv is the root environment of a run: every catalog source named
// as a free variable by an expression anywhere in the plan (a correlated
// subquery names its source directly), materialized as a list.
func BaseEnv(p Plan, cat Catalog) (*mcl.Env, error) {
	bound := map[string]bool{}
	for _, v := range BoundVars(p) {
		bound[v] = true
	}
	bindings := map[string]values.Value{}
	var err error
	eachExpr(p, func(e mcl.Expr) {
		for _, name := range mcl.FreeVars(e) {
			if _, done := bindings[name]; done || bound[name] || err != nil {
				continue
			}
			if _, ok := cat.Source(name); ok {
				bindings[name], err = Materialize(cat, name)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return mcl.NewEnv(bindings), nil
}

// Materialize reads a whole source into a list value.
func Materialize(cat Catalog, name string) (values.Value, error) {
	src, ok := cat.Source(name)
	if !ok {
		return values.Null, fmt.Errorf("algebra: unknown source %q", name)
	}
	var rows []values.Value
	err := src.Iterate(nil, func(v values.Value) error {
		rows = append(rows, v)
		return nil
	})
	if err != nil {
		return values.Null, err
	}
	return values.NewList(rows...), nil
}

// holds reports whether pred is true over env; a nil pred always holds.
func holds(pred mcl.Expr, env *mcl.Env) (bool, error) {
	if pred == nil {
		return true, nil
	}
	v, err := mcl.Eval(pred, env)
	if err != nil {
		return false, err
	}
	return v.Kind() == values.KindBool && v.Bool(), nil
}

// evalKeys evaluates the n key expressions expr(0..n-1) over env.
func evalKeys(env *mcl.Env, n int, expr func(i int) mcl.Expr) ([]values.Value, error) {
	keys := make([]values.Value, n)
	for i := range keys {
		v, err := mcl.Eval(expr(i), env)
		if err != nil {
			return nil, err
		}
		keys[i] = v
	}
	return keys, nil
}

// splice extends a left binding with the variables the right input bound.
func splice(left, right *mcl.Env, rVars []string) *mcl.Env {
	for _, v := range rVars {
		if val, ok := right.Lookup(v); ok {
			left = left.Bind(v, val)
		}
	}
	return left
}
