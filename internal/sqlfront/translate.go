package sqlfront

import (
	"fmt"
	"reflect"
	"strings"

	"vida/internal/mcl"
	"vida/internal/monoid"
	"vida/internal/values"
)

// Translate parses a SQL SELECT and returns the equivalent monoid
// comprehension (paper §3.2: "monoid comprehensions ... [are] sufficient
// to express relational SQL queries"). The mapping:
//
//	FROM T a, U b        → generators a <- T, b <- U
//	JOIN ... ON c        → generator + filter c
//	WHERE p              → filter p
//	SELECT x AS n, ...   → yield bag (n := x, ...)    (set under DISTINCT)
//	SELECT AGG(x)        → yield sum/avg/min/max x    (count → sum 1)
//	GROUP BY g           → grouped comprehension (group by { k := g }
//	                       agg { a := m x }): one scan, one hash fold
//	HAVING h             → having clause over the group scope
func Translate(src string) (mcl.Expr, error) {
	stmt, err := parseSelect(src)
	if err != nil {
		return nil, err
	}
	tr := &translator{stmt: stmt}
	return tr.translate()
}

type translator struct {
	stmt *selectStmt
}

// aliasVar maps a SQL table alias to the comprehension variable name.
// Aliases are used verbatim; they are valid identifiers in both languages.
func aliasVar(alias string) string { return alias }

// generators builds the qualifier list from FROM+WHERE, with varSuffix
// appended to every variable (used to alpha-separate the inner
// comprehension of a GROUP BY from the outer key query).
func (tr *translator) generators(varSuffix string) ([]mcl.Qualifier, map[string]string, error) {
	aliases := map[string]string{}
	var qs []mcl.Qualifier
	for _, t := range tr.stmt.from {
		v := aliasVar(t.alias) + varSuffix
		if _, dup := aliases[strings.ToLower(t.alias)]; dup {
			return nil, nil, fmt.Errorf("sql: duplicate table alias %q", t.alias)
		}
		aliases[strings.ToLower(t.alias)] = v
		qs = append(qs, mcl.Qualifier{Var: v, Src: &mcl.VarExpr{Name: t.name}})
		if t.on != nil {
			cond, err := tr.toMCL(t.on, aliases, false)
			if err != nil {
				return nil, nil, err
			}
			qs = append(qs, mcl.Qualifier{Src: cond})
		}
	}
	if tr.stmt.where != nil {
		w, err := tr.toMCL(tr.stmt.where, aliases, false)
		if err != nil {
			return nil, nil, err
		}
		qs = append(qs, mcl.Qualifier{Src: w})
	}
	return qs, aliases, nil
}

func (tr *translator) translate() (mcl.Expr, error) {
	hasAgg := false
	for _, item := range tr.stmt.items {
		if item.star {
			continue
		}
		if containsAgg(item.expr) {
			hasAgg = true
		}
	}
	if len(tr.stmt.groupBy) > 0 {
		return tr.translateGroupBy()
	}
	if tr.stmt.having != nil {
		return nil, fmt.Errorf("sql: HAVING requires GROUP BY")
	}
	if hasAgg {
		if tr.hasBound() {
			return nil, fmt.Errorf("sql: ORDER BY / LIMIT need a row result, not a single aggregate")
		}
		return tr.translateAggregate()
	}
	return tr.translateProjection()
}

// hasBound reports whether the statement carries ORDER BY, LIMIT or
// OFFSET.
func (tr *translator) hasBound() bool {
	return len(tr.stmt.orderBy) > 0 || tr.stmt.limit != nil || tr.stmt.offset != nil
}

// limitToMCL converts a LIMIT/OFFSET operand (literal or parameter).
func limitToMCL(e sqlExpr) mcl.Expr {
	switch n := e.(type) {
	case nil:
		return nil
	case *sqlParam:
		return &mcl.ParamExpr{Name: n.name}
	case *sqlLit:
		return &mcl.ConstExpr{Val: n.val}
	}
	return nil
}

// orderOrdinal resolves ORDER BY <k> (a positive integer literal) to the
// index of the k-th select item, per the SQL convention. ok is false
// when the expression is not an ordinal.
func (tr *translator) orderOrdinal(e sqlExpr) (int, bool, error) {
	lit, isLit := e.(*sqlLit)
	if !isLit || lit.val.Kind() != values.KindInt {
		return 0, false, nil
	}
	k := lit.val.Int()
	if k < 1 || int(k) > len(tr.stmt.items) {
		return 0, false, fmt.Errorf("sql: ORDER BY position %d is out of range", k)
	}
	if tr.stmt.items[k-1].star {
		return 0, false, fmt.Errorf("sql: ORDER BY position %d refers to *", k)
	}
	return int(k) - 1, true, nil
}

// aliasItem resolves a bare unqualified column against the explicit
// select-item aliases (output names take precedence over input columns,
// as in SQL). Unaliased items need no entry: their output name IS the
// input column, so plain column resolution finds the same expression.
func (tr *translator) aliasItem(e sqlExpr) (selectItem, bool) {
	col, isCol := e.(*sqlCol)
	if !isCol || col.table != "" {
		return selectItem{}, false
	}
	for _, item := range tr.stmt.items {
		if !item.star && item.alias != "" && strings.EqualFold(item.alias, col.col) {
			return item, true
		}
	}
	return selectItem{}, false
}

// translateOrderKeys converts the ORDER BY list for a non-grouped query:
// ordinals and select aliases resolve to their item expressions, the rest
// translate against the FROM aliases directly.
func (tr *translator) translateOrderKeys(aliases map[string]string) ([]mcl.OrderKey, error) {
	var keys []mcl.OrderKey
	for _, o := range tr.stmt.orderBy {
		expr := o.expr
		if idx, ok, err := tr.orderOrdinal(expr); err != nil {
			return nil, err
		} else if ok {
			expr = tr.stmt.items[idx].expr
		} else if item, ok := tr.aliasItem(expr); ok {
			expr = item.expr
		}
		if containsAgg(expr) {
			return nil, errf(o.pos, "aggregate in ORDER BY requires GROUP BY")
		}
		ke, err := tr.toMCL(expr, aliases, false)
		if err != nil {
			return nil, err
		}
		keys = append(keys, mcl.OrderKey{E: ke, Desc: o.desc})
	}
	return keys, nil
}

// translateProjection handles plain SELECT (no aggregates).
func (tr *translator) translateProjection() (mcl.Expr, error) {
	qs, aliases, err := tr.generators("")
	if err != nil {
		return nil, err
	}
	head, err := tr.buildHead(tr.stmt.items, aliases)
	if err != nil {
		return nil, err
	}
	m := monoid.Bag
	if tr.stmt.distinct {
		m = monoid.Set
	}
	comp := &mcl.Comprehension{M: m, Head: head, Qs: qs}
	comp.Order, err = tr.translateOrderKeys(aliases)
	if err != nil {
		return nil, err
	}
	comp.Limit = limitToMCL(tr.stmt.limit)
	comp.Offset = limitToMCL(tr.stmt.offset)
	return comp, nil
}

// buildHead constructs the yield record (or single expression for SELECT *
// over one table).
func (tr *translator) buildHead(items []selectItem, aliases map[string]string) (mcl.Expr, error) {
	if len(items) == 1 && items[0].star {
		if len(tr.stmt.from) == 1 {
			return &mcl.VarExpr{Name: aliases[strings.ToLower(tr.stmt.from[0].alias)]}, nil
		}
		return nil, fmt.Errorf("sql: SELECT * over multiple tables is ambiguous; project columns explicitly")
	}
	var fields []mcl.FieldExpr
	for i, item := range items {
		if item.star {
			return nil, fmt.Errorf("sql: cannot mix * with other select items")
		}
		e, err := tr.toMCL(item.expr, aliases, false)
		if err != nil {
			return nil, err
		}
		name := item.alias
		if name == "" {
			if col, ok := item.expr.(*sqlCol); ok {
				name = col.col
			} else {
				name = fmt.Sprintf("col%d", i+1)
			}
		}
		fields = append(fields, mcl.FieldExpr{Name: name, Val: e})
	}
	if len(fields) == 1 {
		return fields[0].Val, nil
	}
	return &mcl.RecordExpr{Fields: fields}, nil
}

// translateAggregate handles SELECT with aggregates and no GROUP BY. A
// single bare aggregate becomes one comprehension (the paper's COUNT
// example); multiple aggregates become a record of comprehensions.
func (tr *translator) translateAggregate() (mcl.Expr, error) {
	buildOne := func(agg *sqlAgg) (mcl.Expr, error) {
		qs, aliases, err := tr.generators("")
		if err != nil {
			return nil, err
		}
		m, head, err := tr.aggMonoidAndHead(agg, aliases)
		if err != nil {
			return nil, err
		}
		return &mcl.Comprehension{M: m, Head: head, Qs: qs}, nil
	}
	if len(tr.stmt.items) == 1 && !tr.stmt.items[0].star {
		if agg, ok := tr.stmt.items[0].expr.(*sqlAgg); ok {
			return buildOne(agg)
		}
	}
	var fields []mcl.FieldExpr
	for i, item := range tr.stmt.items {
		agg, ok := item.expr.(*sqlAgg)
		if !ok {
			return nil, fmt.Errorf("sql: non-aggregate select item %d requires GROUP BY", i+1)
		}
		e, err := buildOne(agg)
		if err != nil {
			return nil, err
		}
		name := item.alias
		if name == "" {
			name = fmt.Sprintf("col%d", i+1)
		}
		fields = append(fields, mcl.FieldExpr{Name: name, Val: e})
	}
	return &mcl.RecordExpr{Fields: fields}, nil
}

func (tr *translator) aggMonoidAndHead(agg *sqlAgg, aliases map[string]string) (monoid.Monoid, mcl.Expr, error) {
	switch agg.kind {
	case aggCountStar, aggCount:
		// COUNT(e) ≡ sum 1, the paper's own example mapping.
		return monoid.Sum, &mcl.ConstExpr{Val: values.NewInt(1)}, nil
	case aggSum, aggAvg, aggMin, aggMax:
		head, err := tr.toMCL(agg.arg, aliases, false)
		if err != nil {
			return nil, nil, err
		}
		switch agg.kind {
		case aggSum:
			return monoid.Sum, head, nil
		case aggAvg:
			return monoid.Avg, head, nil
		case aggMin:
			return monoid.Min, head, nil
		default:
			return monoid.Max, head, nil
		}
	}
	return nil, nil, fmt.Errorf("sql: unsupported aggregate")
}

// translateGroupBy lowers GROUP BY to the grouped comprehension form —
// one scan, one hash-aggregation fold:
//
//	for { gens, where } group by { k$i := key_i } agg { a$j := m_j e_j }
//	having h yield bag head [order by ...] [limit/offset]
//
// Grouping keys and aggregate inputs are evaluated in qualifier scope;
// the head, HAVING and ORDER BY keys run per group over the key/agg
// bindings. The k$/a$ names cannot collide with SQL identifiers.
func (tr *translator) translateGroupBy() (mcl.Expr, error) {
	qs, aliases, err := tr.generators("")
	if err != nil {
		return nil, err
	}
	groupBy := make([]mcl.GroupKey, len(tr.stmt.groupBy))
	for i, col := range tr.stmt.groupBy {
		e, err := tr.toMCL(col, aliases, false)
		if err != nil {
			return nil, err
		}
		groupBy[i] = mcl.GroupKey{Name: fmt.Sprintf("k$%d", i), E: e}
	}
	keyValue := func(i int) mcl.Expr {
		return &mcl.VarExpr{Name: groupBy[i].Name}
	}
	// aggVar registers one aggregate slot and returns its group-scope
	// variable. Repeats of an aggregate — the same monoid over the same
	// head, as in `SELECT COUNT(*) … HAVING COUNT(*) > 1` — share one
	// slot; all slots fold in the same single pass. Heads compare as
	// trees, not as text: the constants 1 and 1.0 print alike.
	var aggs []mcl.AggSpec
	aggVar := func(agg *sqlAgg) (mcl.Expr, error) {
		m, e, err := tr.aggMonoidAndHead(agg, aliases)
		if err != nil {
			return nil, err
		}
		for _, a := range aggs {
			if a.M.Name() == m.Name() && reflect.DeepEqual(a.E, e) {
				return &mcl.VarExpr{Name: a.Name}, nil
			}
		}
		name := fmt.Sprintf("a$%d", len(aggs))
		aggs = append(aggs, mcl.AggSpec{Name: name, M: m, E: e})
		return &mcl.VarExpr{Name: name}, nil
	}

	// Head record: grouping columns become key references, aggregates
	// become aggregate references.
	var fields []mcl.FieldExpr
	itemExprs := make([]mcl.Expr, len(tr.stmt.items))
	for i, item := range tr.stmt.items {
		if item.star {
			return nil, fmt.Errorf("sql: SELECT * is not valid with GROUP BY")
		}
		name := item.alias
		switch e := item.expr.(type) {
		case *sqlCol:
			gi := -1
			for j, g := range tr.stmt.groupBy {
				if strings.EqualFold(g.col, e.col) && (e.table == "" || strings.EqualFold(e.table, g.table) || g.table == "") {
					gi = j
					break
				}
			}
			if gi < 0 {
				return nil, fmt.Errorf("sql: column %q is neither aggregated nor in GROUP BY", e.col)
			}
			if name == "" {
				name = e.col
			}
			fields = append(fields, mcl.FieldExpr{Name: name, Val: keyValue(gi)})
			itemExprs[i] = keyValue(gi)
		case *sqlAgg:
			av, err := aggVar(e)
			if err != nil {
				return nil, err
			}
			if name == "" {
				name = fmt.Sprintf("col%d", i+1)
			}
			fields = append(fields, mcl.FieldExpr{Name: name, Val: av})
			itemExprs[i] = av
		default:
			return nil, fmt.Errorf("sql: GROUP BY select items must be grouping columns or aggregates")
		}
	}
	var head mcl.Expr = &mcl.RecordExpr{Fields: fields}
	if len(fields) == 1 {
		head = fields[0].Val
	}

	var having mcl.Expr
	if tr.stmt.having != nil {
		having, err = tr.groupScopeExpr(tr.stmt.having, aggVar, keyValue)
		if err != nil {
			return nil, err
		}
	}
	m := monoid.Bag
	if tr.stmt.distinct {
		m = monoid.Set
	}
	comp := &mcl.Comprehension{M: m, Head: head, Qs: qs, GroupBy: groupBy, Aggs: aggs, Having: having}
	// ORDER BY over grouped results: ordinals and output aliases resolve
	// to the select items' group-scope expressions; anything else maps
	// into group scope directly (aggregates become aggregate slots,
	// grouping columns become key references).
	for _, o := range tr.stmt.orderBy {
		var ke mcl.Expr
		if idx, ok, err := tr.orderOrdinal(o.expr); err != nil {
			return nil, err
		} else if ok {
			ke = itemExprs[idx]
		}
		if ke == nil {
			if col, isCol := o.expr.(*sqlCol); isCol && col.table == "" {
				for i, item := range tr.stmt.items {
					name := item.alias
					if name == "" {
						if c, ok := item.expr.(*sqlCol); ok {
							name = c.col
						}
					}
					if name != "" && strings.EqualFold(name, col.col) {
						ke = itemExprs[i]
						break
					}
				}
			}
		}
		if ke == nil {
			ke, err = tr.groupScopeExpr(o.expr, aggVar, keyValue)
			if err != nil {
				return nil, err
			}
		}
		comp.Order = append(comp.Order, mcl.OrderKey{E: ke, Desc: o.desc})
	}
	// HAVING and ORDER BY may have registered aggregate slots of their
	// own (e.g. ORDER BY COUNT(*) with no COUNT in the select list); pick
	// up the final slice.
	comp.Aggs = aggs
	comp.Limit = limitToMCL(tr.stmt.limit)
	comp.Offset = limitToMCL(tr.stmt.offset)
	return comp, nil
}

// groupScopeExpr rewrites a HAVING or grouped-ORDER BY expression into
// group scope: aggregates become aggregate slots (folded in the same
// single pass as the select list), grouping columns become key
// references.
func (tr *translator) groupScopeExpr(e sqlExpr, aggVar func(*sqlAgg) (mcl.Expr, error), keyValue func(int) mcl.Expr) (mcl.Expr, error) {
	switch n := e.(type) {
	case *sqlAgg:
		return aggVar(n)
	case *sqlCol:
		for j, g := range tr.stmt.groupBy {
			if strings.EqualFold(g.col, n.col) {
				return keyValue(j), nil
			}
		}
		return nil, fmt.Errorf("sql: column %q is not in GROUP BY", n.col)
	case *sqlLit:
		if n.val.IsNull() {
			return &mcl.NullExpr{}, nil
		}
		return &mcl.ConstExpr{Val: n.val}, nil
	case *sqlParam:
		return &mcl.ParamExpr{Name: n.name}, nil
	case *sqlBin:
		l, err := tr.groupScopeExpr(n.l, aggVar, keyValue)
		if err != nil {
			return nil, err
		}
		r, err := tr.groupScopeExpr(n.r, aggVar, keyValue)
		if err != nil {
			return nil, err
		}
		op, ok := mclOps[n.op]
		if !ok {
			return nil, fmt.Errorf("sql: operator %q not supported here", n.op)
		}
		return &mcl.BinExpr{Op: op, L: l, R: r}, nil
	case *sqlNot:
		inner, err := tr.groupScopeExpr(n.e, aggVar, keyValue)
		if err != nil {
			return nil, err
		}
		return &mcl.NotExpr{E: inner}, nil
	}
	return nil, fmt.Errorf("sql: unsupported grouped expression")
}

// toMCL converts a SQL expression to the calculus. Bare columns resolve
// against the single FROM table, or error when ambiguous.
func (tr *translator) toMCL(e sqlExpr, aliases map[string]string, inAgg bool) (mcl.Expr, error) {
	switch n := e.(type) {
	case *sqlLit:
		if n.val.IsNull() {
			return &mcl.NullExpr{}, nil
		}
		return &mcl.ConstExpr{Val: n.val}, nil
	case *sqlCol:
		if n.table != "" {
			v, ok := aliases[strings.ToLower(n.table)]
			if !ok {
				return nil, errf(n.pos, "unknown table alias %q", n.table)
			}
			return &mcl.ProjExpr{Rec: &mcl.VarExpr{Name: v}, Attr: n.col}, nil
		}
		if len(tr.stmt.from) != 1 {
			return nil, errf(n.pos, "column %q must be qualified (multiple tables in FROM)", n.col)
		}
		v := aliases[strings.ToLower(tr.stmt.from[0].alias)]
		return &mcl.ProjExpr{Rec: &mcl.VarExpr{Name: v}, Attr: n.col}, nil
	case *sqlBin:
		if n.op == "like" {
			return tr.likeToMCL(n, aliases)
		}
		l, err := tr.toMCL(n.l, aliases, inAgg)
		if err != nil {
			return nil, err
		}
		r, err := tr.toMCL(n.r, aliases, inAgg)
		if err != nil {
			return nil, err
		}
		op, ok := mclOps[n.op]
		if !ok {
			return nil, fmt.Errorf("sql: unsupported operator %q", n.op)
		}
		return &mcl.BinExpr{Op: op, L: l, R: r}, nil
	case *sqlNot:
		inner, err := tr.toMCL(n.e, aliases, inAgg)
		if err != nil {
			return nil, err
		}
		return &mcl.NotExpr{E: inner}, nil
	case *sqlCall:
		args := make([]mcl.Expr, len(n.args))
		for i, a := range n.args {
			ae, err := tr.toMCL(a, aliases, inAgg)
			if err != nil {
				return nil, err
			}
			args[i] = ae
		}
		return &mcl.CallExpr{Name: n.name, Args: args}, nil
	case *sqlParam:
		return &mcl.ParamExpr{Name: n.name}, nil
	case *sqlAgg:
		return nil, errf(n.pos, "aggregate in a scalar context (did you mean GROUP BY?)")
	}
	return nil, fmt.Errorf("sql: unsupported expression %T", e)
}

// likeToMCL lowers the common LIKE shapes onto string builtins:
// '%x%' → contains, 'x%' → startswith, '%x' → endswith, 'x' → equality.
func (tr *translator) likeToMCL(n *sqlBin, aliases map[string]string) (mcl.Expr, error) {
	lit, ok := n.r.(*sqlLit)
	if !ok || lit.val.Kind() != values.KindString {
		return nil, fmt.Errorf("sql: LIKE needs a string literal pattern")
	}
	pat := lit.val.Str()
	l, err := tr.toMCL(n.l, aliases, false)
	if err != nil {
		return nil, err
	}
	mk := func(fn, arg string) mcl.Expr {
		return &mcl.CallExpr{Name: fn, Args: []mcl.Expr{l, &mcl.ConstExpr{Val: values.NewString(arg)}}}
	}
	switch {
	case strings.HasPrefix(pat, "%") && strings.HasSuffix(pat, "%") && len(pat) >= 2:
		return mk("contains", strings.Trim(pat, "%")), nil
	case strings.HasSuffix(pat, "%"):
		return mk("startswith", strings.TrimSuffix(pat, "%")), nil
	case strings.HasPrefix(pat, "%"):
		return mk("endswith", strings.TrimPrefix(pat, "%")), nil
	default:
		if strings.Contains(pat, "%") || strings.Contains(pat, "_") {
			return nil, fmt.Errorf("sql: only prefix/suffix/substring LIKE patterns are supported")
		}
		return &mcl.BinExpr{Op: mcl.OpEq, L: l, R: &mcl.ConstExpr{Val: values.NewString(pat)}}, nil
	}
}

func containsAgg(e sqlExpr) bool {
	switch n := e.(type) {
	case *sqlAgg:
		return true
	case *sqlBin:
		return containsAgg(n.l) || containsAgg(n.r)
	case *sqlNot:
		return containsAgg(n.e)
	case *sqlCall:
		for _, a := range n.args {
			if containsAgg(a) {
				return true
			}
		}
	}
	return false
}
