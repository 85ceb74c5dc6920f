package mcl

import (
	"fmt"
	"sync/atomic"

	"vida/internal/monoid"
	"vida/internal/values"
)

// Normalization implements the Fegaras–Maier rewrite system that puts
// comprehensions into canonical form before algebra translation (paper
// §4: "After applying a series of rewrite rules to optimize the query ...
// the partially optimized query is translated to a form of nested
// relational algebra"). The rules:
//
//	(beta)  (λv.e1)(e2)                    → e1[v := e2]
//	(proj)  ⟨..., A = e, ...⟩.A            → e
//	(if)    if true then e2 else e3        → e2   (and the false dual)
//	(bind)  for {..., v := e, Q} yield ⊕ h → substitute e for v in Q, h
//	(zero)  for {q*, v <- zero, Q} ...     → zero[⊕]
//	(unit)  for {q*, v <- unit(e), Q} ...  → for {q*, v := e, Q} ...
//	(merge) for {q*, v <- e1 ++ e2, Q} ... → split into ⊕ of two
//	        comprehensions — only when no generator precedes v or ⊕ is
//	        commutative (splitting reorders the outer iteration).
//	(unnest) for {q*, v <- for {Q2} yield ⊕2 h2, Q} yield ⊕ h
//	        → for {q*, Q2, v := h2, Q} yield ⊕ h — only when the inner
//	        collection's properties are dominated by ⊕: list always;
//	        bag requires ⊕ commutative; set requires ⊕ commutative and
//	        idempotent (dedup is dropped).
//	(true)  filter true                    → dropped
//	(false) filter false                   → whole comprehension is zero
//	(split) filter (p1 and p2)             → two filters
//
// All substitutions are capture-avoiding.

var freshCounter atomic.Uint64

// freshVar returns a variable name that cannot collide with user
// variables (user identifiers cannot contain '$').
func freshVar(hint string) string {
	return fmt.Sprintf("%s$%d", hint, freshCounter.Add(1))
}

// Subst returns e with free occurrences of name replaced by repl,
// avoiding variable capture by alpha-renaming binders when needed.
func Subst(e Expr, name string, repl Expr) Expr {
	switch n := e.(type) {
	case nil:
		return nil
	case *NullExpr, *ConstExpr, *ZeroExpr, *ParamExpr:
		return e
	case *VarExpr:
		if n.Name == name {
			return repl
		}
		return e
	case *ProjExpr:
		return &ProjExpr{Rec: Subst(n.Rec, name, repl), Attr: n.Attr}
	case *RecordExpr:
		fields := make([]FieldExpr, len(n.Fields))
		for i, f := range n.Fields {
			fields[i] = FieldExpr{Name: f.Name, Val: Subst(f.Val, name, repl)}
		}
		return &RecordExpr{Fields: fields}
	case *IfExpr:
		return &IfExpr{
			Cond: Subst(n.Cond, name, repl),
			Then: Subst(n.Then, name, repl),
			Else: Subst(n.Else, name, repl),
		}
	case *BinExpr:
		return &BinExpr{Op: n.Op, L: Subst(n.L, name, repl), R: Subst(n.R, name, repl)}
	case *NotExpr:
		return &NotExpr{E: Subst(n.E, name, repl)}
	case *NegExpr:
		return &NegExpr{E: Subst(n.E, name, repl)}
	case *LambdaExpr:
		if n.Param == name {
			return e
		}
		if occursFree(repl, n.Param) {
			fresh := freshVar(n.Param)
			body := Subst(n.Body, n.Param, &VarExpr{Name: fresh})
			return &LambdaExpr{Param: fresh, Body: Subst(body, name, repl)}
		}
		return &LambdaExpr{Param: n.Param, Body: Subst(n.Body, name, repl)}
	case *ApplyExpr:
		return &ApplyExpr{Fn: Subst(n.Fn, name, repl), Arg: Subst(n.Arg, name, repl)}
	case *CallExpr:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = Subst(a, name, repl)
		}
		return &CallExpr{Name: n.Name, Args: args}
	case *SingletonExpr:
		return &SingletonExpr{M: n.M, E: Subst(n.E, name, repl)}
	case *MergeExpr:
		return &MergeExpr{M: n.M, L: Subst(n.L, name, repl), R: Subst(n.R, name, repl)}
	case *IndexExpr:
		idxs := make([]Expr, len(n.Idxs))
		for i, ix := range n.Idxs {
			idxs[i] = Subst(ix, name, repl)
		}
		return &IndexExpr{Arr: Subst(n.Arr, name, repl), Idxs: idxs}
	case *Comprehension:
		if n.Grouped() {
			return substGrouped(n, name, repl)
		}
		// Work on copies: substitution must not mutate shared subtrees.
		// Order keys live in the head's scope and follow it through every
		// renaming; limit/offset are outer-scope and substitute directly.
		qs := append([]Qualifier{}, n.Qs...)
		head := n.Head
		order := append([]OrderKey{}, n.Order...)
		substKeys := func(name string, repl Expr) {
			for i := range order {
				order[i].E = Subst(order[i].E, name, repl)
			}
		}
		shadowed := false
		for i := range qs {
			if shadowed {
				continue
			}
			qs[i].Src = Subst(qs[i].Src, name, repl)
			if qs[i].Var == "" {
				continue
			}
			if qs[i].Var == name {
				// Subsequent occurrences refer to this binder.
				shadowed = true
				continue
			}
			if occursFree(repl, qs[i].Var) {
				// Rename the binder out of the way of repl's free vars.
				old := qs[i].Var
				fresh := freshVar(old)
				for j := i + 1; j < len(qs); j++ {
					qs[j].Src = Subst(qs[j].Src, old, &VarExpr{Name: fresh})
				}
				head = Subst(head, old, &VarExpr{Name: fresh})
				substKeys(old, &VarExpr{Name: fresh})
				qs[i].Var = fresh
			}
		}
		if !shadowed {
			head = Subst(head, name, repl)
			substKeys(name, repl)
		}
		return &Comprehension{
			M: n.M, Head: head, Qs: qs, Order: order,
			Limit:  Subst(n.Limit, name, repl),
			Offset: Subst(n.Offset, name, repl),
		}
	}
	panic(fmt.Sprintf("mcl: Subst on %T", e))
}

// substGrouped substitutes into a grouped comprehension. Group keys and
// aggregate inputs are in qualifier scope, so they follow qualifier
// binders and their renames; Head/Having/Order are in group scope, where
// the key and aggregate names are the binders and qualifier variables
// are hidden. Limit/offset stay outer-scope.
func substGrouped(n *Comprehension, name string, repl Expr) Expr {
	qs := append([]Qualifier{}, n.Qs...)
	groupBy := append([]GroupKey{}, n.GroupBy...)
	aggs := append([]AggSpec{}, n.Aggs...)
	substInner := func(name string, repl Expr) {
		for i := range groupBy {
			groupBy[i].E = Subst(groupBy[i].E, name, repl)
		}
		for i := range aggs {
			aggs[i].E = Subst(aggs[i].E, name, repl)
		}
	}
	shadowed := false
	for i := range qs {
		if shadowed {
			continue
		}
		qs[i].Src = Subst(qs[i].Src, name, repl)
		if qs[i].Var == "" {
			continue
		}
		if qs[i].Var == name {
			shadowed = true
			continue
		}
		if occursFree(repl, qs[i].Var) {
			old := qs[i].Var
			fresh := freshVar(old)
			for j := i + 1; j < len(qs); j++ {
				qs[j].Src = Subst(qs[j].Src, old, &VarExpr{Name: fresh})
			}
			substInner(old, &VarExpr{Name: fresh})
			qs[i].Var = fresh
		}
	}
	if !shadowed {
		substInner(name, repl)
	}
	head, having := n.Head, n.Having
	order := append([]OrderKey{}, n.Order...)
	substGroupScope := func(name string, repl Expr) {
		head = Subst(head, name, repl)
		having = Subst(having, name, repl)
		for i := range order {
			order[i].E = Subst(order[i].E, name, repl)
		}
	}
	groupShadowed := false
	for i := range groupBy {
		if groupBy[i].Name == name {
			groupShadowed = true
		} else if occursFree(repl, groupBy[i].Name) {
			fresh := freshVar(groupBy[i].Name)
			substGroupScope(groupBy[i].Name, &VarExpr{Name: fresh})
			groupBy[i].Name = fresh
		}
	}
	for i := range aggs {
		if aggs[i].Name == name {
			groupShadowed = true
		} else if occursFree(repl, aggs[i].Name) {
			fresh := freshVar(aggs[i].Name)
			substGroupScope(aggs[i].Name, &VarExpr{Name: fresh})
			aggs[i].Name = fresh
		}
	}
	if !groupShadowed {
		substGroupScope(name, repl)
	}
	return &Comprehension{
		M: n.M, Head: head, Qs: qs,
		GroupBy: groupBy, Aggs: aggs, Having: having,
		Order:  order,
		Limit:  Subst(n.Limit, name, repl),
		Offset: Subst(n.Offset, name, repl),
	}
}

func occursFree(e Expr, name string) bool {
	for _, v := range FreeVars(e) {
		if v == name {
			return true
		}
	}
	return false
}

// Normalize rewrites e to normal form, applying the rule set to fixpoint
// (bounded to guard against pathological inputs).
func Normalize(e Expr) Expr {
	for i := 0; i < 200; i++ {
		next, changed := rewrite(e)
		e = next
		if !changed {
			break
		}
	}
	return e
}

// rewrite applies one bottom-up pass; changed reports progress.
func rewrite(e Expr) (Expr, bool) {
	switch n := e.(type) {
	case nil, *NullExpr, *ConstExpr, *VarExpr, *ZeroExpr, *ParamExpr:
		return e, false
	case *ProjExpr:
		rec, ch := rewrite(n.Rec)
		// (proj) projection on a record constructor.
		if rc, ok := rec.(*RecordExpr); ok {
			for _, f := range rc.Fields {
				if f.Name == n.Attr {
					return f.Val, true
				}
			}
		}
		return &ProjExpr{Rec: rec, Attr: n.Attr}, ch
	case *RecordExpr:
		fields := make([]FieldExpr, len(n.Fields))
		any := false
		for i, f := range n.Fields {
			v, ch := rewrite(f.Val)
			fields[i] = FieldExpr{Name: f.Name, Val: v}
			any = any || ch
		}
		return &RecordExpr{Fields: fields}, any
	case *IfExpr:
		cond, c1 := rewrite(n.Cond)
		then, c2 := rewrite(n.Then)
		els, c3 := rewrite(n.Else)
		// (if) constant condition folds.
		if cc, ok := cond.(*ConstExpr); ok && cc.Val.Kind() == values.KindBool {
			if cc.Val.Bool() {
				return then, true
			}
			return els, true
		}
		return &IfExpr{Cond: cond, Then: then, Else: els}, c1 || c2 || c3
	case *BinExpr:
		l, c1 := rewrite(n.L)
		r, c2 := rewrite(n.R)
		out := &BinExpr{Op: n.Op, L: l, R: r}
		if folded, ok := constFold(out); ok {
			return folded, true
		}
		return out, c1 || c2
	case *NotExpr:
		inner, ch := rewrite(n.E)
		if cc, ok := inner.(*ConstExpr); ok && cc.Val.Kind() == values.KindBool {
			return &ConstExpr{Val: values.NewBool(!cc.Val.Bool())}, true
		}
		if nn, ok := inner.(*NotExpr); ok {
			return nn.E, true
		}
		return &NotExpr{E: inner}, ch
	case *NegExpr:
		inner, ch := rewrite(n.E)
		return &NegExpr{E: inner}, ch
	case *LambdaExpr:
		body, ch := rewrite(n.Body)
		return &LambdaExpr{Param: n.Param, Body: body}, ch
	case *ApplyExpr:
		fn, c1 := rewrite(n.Fn)
		arg, c2 := rewrite(n.Arg)
		// (beta) reduction.
		if lam, ok := fn.(*LambdaExpr); ok {
			return Subst(lam.Body, lam.Param, arg), true
		}
		return &ApplyExpr{Fn: fn, Arg: arg}, c1 || c2
	case *CallExpr:
		args := make([]Expr, len(n.Args))
		any := false
		for i, a := range n.Args {
			v, ch := rewrite(a)
			args[i] = v
			any = any || ch
		}
		return &CallExpr{Name: n.Name, Args: args}, any
	case *SingletonExpr:
		inner, ch := rewrite(n.E)
		return &SingletonExpr{M: n.M, E: inner}, ch
	case *MergeExpr:
		l, c1 := rewrite(n.L)
		r, c2 := rewrite(n.R)
		// zero ++ e → e and e ++ zero → e.
		if z, ok := l.(*ZeroExpr); ok && sameMonoid(z.M, n.M) {
			return r, true
		}
		if z, ok := r.(*ZeroExpr); ok && sameMonoid(z.M, n.M) {
			return l, true
		}
		// Constant operands fold (valid for identity-finalize monoids,
		// whose accumulation domain is the value domain).
		if n.M != nil && finalizeIsIdentity(n.M) {
			lc, lok := l.(*ConstExpr)
			rc, rok := r.(*ConstExpr)
			if lok && rok {
				return &ConstExpr{Val: n.M.Merge(lc.Val, rc.Val)}, true
			}
		}
		return &MergeExpr{M: n.M, L: l, R: r}, c1 || c2
	case *IndexExpr:
		arr, c1 := rewrite(n.Arr)
		idxs := make([]Expr, len(n.Idxs))
		any := c1
		for i, ix := range n.Idxs {
			v, ch := rewrite(ix)
			idxs[i] = v
			any = any || ch
		}
		return &IndexExpr{Arr: arr, Idxs: idxs}, any
	case *Comprehension:
		return rewriteComprehension(n)
	}
	panic(fmt.Sprintf("mcl: rewrite on %T", e))
}

func sameMonoid(a, b monoid.Monoid) bool {
	return a != nil && b != nil && a.Name() == b.Name()
}

// finalizeIsIdentity reports whether m's Finalize is the identity, which
// gates rules that splice comprehension results into merges (avg/median
// accumulate auxiliary state that only Finalize collapses).
func finalizeIsIdentity(m monoid.Monoid) bool {
	z := m.Zero()
	return values.Equal(m.Finalize(z), z)
}

// zeroResult builds the expression a zero-iteration comprehension under m
// evaluates to: Finalize(Zero), folded to a literal where possible.
func zeroResult(m monoid.Monoid) Expr {
	z := m.Finalize(m.Zero())
	if values.Equal(z, m.Zero()) {
		return &ZeroExpr{M: m}
	}
	if z.IsNull() {
		return &NullExpr{}
	}
	return &ConstExpr{Val: z}
}

func constFold(n *BinExpr) (Expr, bool) {
	lc, lok := n.L.(*ConstExpr)
	rc, rok := n.R.(*ConstExpr)
	if !lok || !rok {
		return nil, false
	}
	v, err := ApplyBinOp(n.Op, lc.Val, rc.Val)
	if err != nil {
		return nil, false
	}
	return &ConstExpr{Val: v}, true
}

func rewriteComprehension(c *Comprehension) (Expr, bool) {
	if c.Grouped() {
		return rewriteGroupedChildren(c)
	}
	changed := false

	// Rewrite child expressions first.
	qs := make([]Qualifier, 0, len(c.Qs))
	for _, q := range c.Qs {
		src, ch := rewrite(q.Src)
		q.Src = src
		changed = changed || ch
		qs = append(qs, q)
	}
	head, ch := rewrite(c.Head)
	changed = changed || ch
	order := append([]OrderKey{}, c.Order...)
	for i := range order {
		ke, ch := rewrite(order[i].E)
		order[i].E = ke
		changed = changed || ch
	}
	var limit, offset Expr
	if c.Limit != nil {
		limit, ch = rewrite(c.Limit)
		changed = changed || ch
	}
	if c.Offset != nil {
		offset, ch = rewrite(c.Offset)
		changed = changed || ch
	}
	// with rebuilds the comprehension around new qualifiers/head, keeping
	// the ordering clause: every rule below that fires preserves the
	// multiset of produced bindings, so order/limit/offset still apply
	// identically to the rewritten form.
	with := func(head Expr, qs []Qualifier) *Comprehension {
		return &Comprehension{M: c.M, Head: head, Qs: qs, Order: order, Limit: limit, Offset: offset}
	}
	// empty is what a zero-iteration comprehension evaluates to. Ordered
	// comprehensions yield lists, so their empty result is the empty list,
	// not Z⊕ of the declared monoid.
	empty := func() Expr {
		if len(order) > 0 {
			return &ZeroExpr{M: monoid.List}
		}
		return zeroResult(c.M)
	}

	for i, q := range qs {
		switch {
		case q.IsBind():
			// (bind) inline the definition downstream; a lambda inlined
			// into an application is then beta-reduced.
			rest := with(head, append([]Qualifier{}, qs[i+1:]...))
			restSub := Subst(rest, q.Var, q.Src).(*Comprehension)
			out := &Comprehension{
				M:     c.M,
				Head:  restSub.Head,
				Qs:    append(append([]Qualifier{}, qs[:i]...), restSub.Qs...),
				Order: restSub.Order,
				// Limit/Offset are outer-scope: the comprehension's own
				// binds are not in their scope, so the inlined definition
				// must not substitute into them (order keys are
				// inner-scope and correctly follow restSub).
				Limit:  limit,
				Offset: offset,
			}
			return out, true
		case q.IsGenerator():
			switch src := q.Src.(type) {
			case *ZeroExpr:
				// (zero) the comprehension iterates zero times; ordering
				// and bounding an empty collection is still empty.
				return empty(), true
			case *SingletonExpr:
				// (unit) generator over singleton becomes a bind.
				nq := append([]Qualifier{}, qs...)
				nq[i] = Qualifier{Var: q.Var, Bind: true, Src: src.E}
				return with(head, nq), true
			case *MergeExpr:
				// (merge) split — see side condition in the header; the
				// split also merges two already-finalized results, so the
				// outer Finalize must be the identity. An ordering clause
				// blocks the split: a per-half limit would drop the wrong
				// rows, and ⊕ of two sorted halves is not sorted.
				if len(order) > 0 || limit != nil || offset != nil {
					break
				}
				if !finalizeIsIdentity(c.M) {
					break
				}
				if generatorBefore(qs[:i]) && !c.M.Commutative() {
					break
				}
				left := &Comprehension{M: c.M, Head: head, Qs: replaceQual(qs, i, src.L)}
				right := &Comprehension{M: c.M, Head: head, Qs: replaceQual(qs, i, src.R)}
				return &MergeExpr{M: c.M, L: left, R: right}, true
			case *Comprehension:
				// (unnest) flatten a nested comprehension generator — only
				// when the inner comprehension carries no ordering clause
				// (flattening would lose its sort and bound) and no grouping
				// (splicing its qualifiers would re-aggregate per outer row).
				if src.HasBound() || src.Grouped() || !unnestLegal(src.M, c.M) {
					break
				}
				inner := alphaRename(src, qs, head)
				nq := make([]Qualifier, 0, len(qs)+len(inner.Qs))
				nq = append(nq, qs[:i]...)
				nq = append(nq, inner.Qs...)
				nq = append(nq, Qualifier{Var: q.Var, Bind: true, Src: inner.Head})
				nq = append(nq, qs[i+1:]...)
				return with(head, nq), true
			}
		default: // filter
			if cc, ok := q.Src.(*ConstExpr); ok && cc.Val.Kind() == values.KindBool {
				if cc.Val.Bool() {
					// (true) drop the filter. A comprehension with no
					// remaining qualifiers evaluates its head exactly once
					// (and still applies Finalize), so it stays as-is.
					nq := append(append([]Qualifier{}, qs[:i]...), qs[i+1:]...)
					return with(head, nq), true
				}
				// (false) the comprehension iterates zero times.
				return empty(), true
			}
			// (split) conjunctive filters become separate qualifiers.
			if b, ok := q.Src.(*BinExpr); ok && b.Op == OpAnd {
				nq := make([]Qualifier, 0, len(qs)+1)
				nq = append(nq, qs[:i]...)
				nq = append(nq, Qualifier{Src: b.L}, Qualifier{Src: b.R})
				nq = append(nq, qs[i+1:]...)
				return with(head, nq), true
			}
		}
	}
	// A qualifier-free comprehension with a constant head evaluates
	// statically: Finalize(Zero ⊕ Unit(c)). An ordering clause blocks the
	// fold (limit 0 of a singleton is empty, and the params of limit/offset
	// may not be bound yet).
	if len(qs) == 0 && len(order) == 0 && limit == nil && offset == nil {
		if cc, ok := head.(*ConstExpr); ok {
			v := c.M.Finalize(c.M.Merge(c.M.Zero(), c.M.Unit(cc.Val)))
			if v.IsNull() {
				return &NullExpr{}, true
			}
			return &ConstExpr{Val: v}, true
		}
	}
	return with(head, qs), changed
}

// rewriteGroupedChildren rewrites only the child expressions of a grouped
// comprehension. The structural rules (bind inlining, merge split, unnest)
// redistribute the qualifier stream and would change which rows fold into
// which group, so a grouped comprehension is a rewrite boundary: its
// children normalize, the grouping form stays intact.
func rewriteGroupedChildren(c *Comprehension) (Expr, bool) {
	changed := false
	qs := make([]Qualifier, 0, len(c.Qs))
	for _, q := range c.Qs {
		src, ch := rewrite(q.Src)
		q.Src = src
		changed = changed || ch
		qs = append(qs, q)
	}
	groupBy := append([]GroupKey{}, c.GroupBy...)
	for i := range groupBy {
		e, ch := rewrite(groupBy[i].E)
		groupBy[i].E = e
		changed = changed || ch
	}
	aggs := append([]AggSpec{}, c.Aggs...)
	for i := range aggs {
		e, ch := rewrite(aggs[i].E)
		aggs[i].E = e
		changed = changed || ch
	}
	var having Expr
	if c.Having != nil {
		h, ch := rewrite(c.Having)
		having = h
		changed = changed || ch
	}
	head, ch := rewrite(c.Head)
	changed = changed || ch
	order := append([]OrderKey{}, c.Order...)
	for i := range order {
		ke, ch := rewrite(order[i].E)
		order[i].E = ke
		changed = changed || ch
	}
	var limit, offset Expr
	if c.Limit != nil {
		limit, ch = rewrite(c.Limit)
		changed = changed || ch
	}
	if c.Offset != nil {
		offset, ch = rewrite(c.Offset)
		changed = changed || ch
	}
	return &Comprehension{
		M: c.M, Head: head, Qs: qs,
		GroupBy: groupBy, Aggs: aggs, Having: having,
		Order: order, Limit: limit, Offset: offset,
	}, changed
}

// generatorBefore reports whether any generator qualifier appears in qs.
func generatorBefore(qs []Qualifier) bool {
	for _, q := range qs {
		if q.IsGenerator() {
			return true
		}
	}
	return false
}

func replaceQual(qs []Qualifier, i int, src Expr) []Qualifier {
	out := append([]Qualifier{}, qs...)
	out[i] = Qualifier{Var: qs[i].Var, Src: src}
	return out
}

// unnestLegal encodes the Fegaras–Maier side conditions for flattening a
// generator over an inner comprehension with monoid inner into an outer
// comprehension with monoid outer.
func unnestLegal(inner, outer monoid.Monoid) bool {
	if !monoid.IsCollection(inner) {
		return false
	}
	switch inner.Name() {
	case "list", "array":
		return true
	case "bag":
		return outer.Commutative()
	case "set":
		return outer.Commutative() && outer.Idempotent()
	}
	return false
}

// alphaRename renames the inner comprehension's bound variables away from
// anything free in the outer qualifiers or head, so splicing is safe.
func alphaRename(inner *Comprehension, outerQs []Qualifier, outerHead Expr) *Comprehension {
	used := map[string]bool{}
	for _, q := range outerQs {
		for _, v := range FreeVars(q.Src) {
			used[v] = true
		}
		if q.Var != "" {
			used[q.Var] = true
		}
	}
	for _, v := range FreeVars(outerHead) {
		used[v] = true
	}
	out := &Comprehension{M: inner.M, Head: inner.Head, Qs: append([]Qualifier{}, inner.Qs...)}
	for i, q := range out.Qs {
		if q.Var == "" || !used[q.Var] {
			continue
		}
		fresh := freshVar(q.Var)
		for j := i + 1; j < len(out.Qs); j++ {
			out.Qs[j].Src = Subst(out.Qs[j].Src, q.Var, &VarExpr{Name: fresh})
		}
		out.Head = Subst(out.Head, q.Var, &VarExpr{Name: fresh})
		out.Qs[i].Var = fresh
	}
	return out
}
