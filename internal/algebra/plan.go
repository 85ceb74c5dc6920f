// Package algebra implements ViDa's nested relational algebra: the
// intermediate form between the monoid comprehension calculus and the
// executors (paper §3.2: "ViDa translates the monoid calculus to an
// intermediate algebraic representation, which is more amenable to
// traditional optimization techniques"). The operator set follows
// Fegaras–Maier: scans, selections, products/joins, unnesting of inner
// collections, let bindings, and the generalized reduce operator the paper
// singles out in §4 ("our algebra includes the reduce operator, which is a
// generalization of the straightforward relational projection operator").
//
// Plans operate over streams of variable bindings rather than fixed-width
// tuples: each row is an environment extension, which is what lets one
// algebra span tabular, hierarchical and array data.
//
// One interpreter executes plans row at a time (exec.go): every operator
// is written once over a node's stream of bindings, and Reference
// evaluates each node lazily in its consumer's goroutine. It is the
// oracle the JIT engine (internal/jit) is checked against, and the
// "pre-cooked" operators the JIT is measured against.
package algebra

import (
	"fmt"
	"strings"

	"vida/internal/mcl"
	"vida/internal/monoid"
	"vida/internal/values"
)

// Plan is a node of the algebra tree.
type Plan interface {
	// Inputs returns the child plans.
	Inputs() []Plan
	// Vars returns the binding variables this node introduces (not
	// including those of its inputs).
	Vars() []string
	// String renders the single node (not the subtree).
	String() string
	planNode()
}

// Scan binds Var to each element of the named catalog source. Fields, when
// non-empty, is the set of attributes the rest of the plan actually uses —
// the projection hint that lets raw-file access paths tokenize only the
// bytes they need (paper §5). Filter, when non-nil, is a predicate over
// Var alone that access paths may evaluate during the scan.
type Scan struct {
	Source string
	Var    string
	Fields []string
	Filter mcl.Expr
}

// Generate evaluates expression E once per input binding and binds Var to
// each element of the resulting collection. With a nil Input it runs once
// against the empty binding. It subsumes the classic Unnest operator
// (E = path expression over a bound variable) and generators over computed
// collections (including correlated subqueries).
type Generate struct {
	Input Plan // may be nil
	Var   string
	E     mcl.Expr
}

// Select filters bindings by a predicate.
type Select struct {
	Input Plan
	Pred  mcl.Expr
}

// Product is the cross product of two independent binding streams.
type Product struct {
	L, R Plan
}

// EquiPair is one equality condition of a Join: LExpr over the left
// bindings equals RExpr over the right bindings.
type EquiPair struct {
	LExpr, RExpr mcl.Expr
}

// Join is an equi-join, produced by the optimizer from Product+Select
// patterns (non-equi conjuncts stay in a Select above it). Physical
// executors implement it with a hash table on the key expressions.
type Join struct {
	L, R Plan
	On   []EquiPair
}

// Bind extends each binding with Var := E (the calculus let qualifier).
type Bind struct {
	Input Plan
	Var   string
	E     mcl.Expr
}

// SortKey is one ORDER BY component of an OrderSpec: a key expression
// over the input bindings (same scope as the Reduce head), with
// direction.
type SortKey struct {
	E    mcl.Expr
	Desc bool
}

// OrderSpec orders and bounds a Reduce's collection result. Keys may be
// empty (bare LIMIT/OFFSET — executors stop producers after
// offset+limit rows for commutative monoids, take the in-order prefix
// for lists). Limit and Offset are integer-valued expressions evaluated
// against the empty environment at execution time: constants after
// BindParams, so `LIMIT $1` keys the plan cache on the parameterized
// text while each run bounds the fold differently. nil Limit means
// unbounded, nil Offset means 0.
type OrderSpec struct {
	Keys   []SortKey
	Limit  mcl.Expr // nil = unbounded
	Offset mcl.Expr // nil = 0
}

// Ordered reports whether the spec carries sort keys (vs a bare bound).
func (o *OrderSpec) Ordered() bool { return o != nil && len(o.Keys) > 0 }

// Reduce folds the head expression over all input bindings under monoid M
// — the paper's generalized projection. Optional inline predicate Pred
// mirrors the paper's description ("besides projecting a candidate result,
// it optionally evaluates a binary predicate over it"). Order, when
// non-nil, turns the fold into a keyed top-k (or a bounded prefix): the
// executor retains O(offset+limit) state and yields an ordered list.
type Reduce struct {
	Input Plan
	M     monoid.Monoid
	Head  mcl.Expr
	Pred  mcl.Expr   // may be nil
	Order *OrderSpec // may be nil

	// GroupBy, when non-empty, makes this a grouped reduce: input bindings
	// are partitioned by the key tuple (nulls group together, groups appear
	// in first-occurrence order), and each Aggs entry folds its expression
	// per group under its own monoid — one pass over the input. Head, Pred
	// (the HAVING predicate) and Order.Keys are then evaluated once per
	// group in the group scope, where the key and aggregate names are bound
	// and the input binding variables are hidden.
	GroupBy []mcl.GroupKey
	Aggs    []mcl.AggSpec
}

// Grouped reports whether this reduce partitions its input by key.
func (p *Reduce) Grouped() bool { return len(p.GroupBy) > 0 }

func (*Scan) planNode()     {}
func (*Generate) planNode() {}
func (*Select) planNode()   {}
func (*Product) planNode()  {}
func (*Join) planNode()     {}
func (*Bind) planNode()     {}
func (*Reduce) planNode()   {}

// Inputs implementations.
func (p *Scan) Inputs() []Plan { return nil }
func (p *Generate) Inputs() []Plan {
	if p.Input == nil {
		return nil
	}
	return []Plan{p.Input}
}
func (p *Select) Inputs() []Plan  { return []Plan{p.Input} }
func (p *Product) Inputs() []Plan { return []Plan{p.L, p.R} }
func (p *Join) Inputs() []Plan    { return []Plan{p.L, p.R} }
func (p *Bind) Inputs() []Plan    { return []Plan{p.Input} }
func (p *Reduce) Inputs() []Plan  { return []Plan{p.Input} }

// Vars implementations.
func (p *Scan) Vars() []string     { return []string{p.Var} }
func (p *Generate) Vars() []string { return []string{p.Var} }
func (p *Select) Vars() []string   { return nil }
func (p *Product) Vars() []string  { return nil }
func (p *Join) Vars() []string     { return nil }
func (p *Bind) Vars() []string     { return []string{p.Var} }
func (p *Reduce) Vars() []string   { return nil }

func (p *Scan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Scan(%s as %s", p.Source, p.Var)
	if len(p.Fields) > 0 {
		fmt.Fprintf(&sb, " fields=%v", p.Fields)
	}
	if p.Filter != nil {
		fmt.Fprintf(&sb, " filter=%s", p.Filter)
	}
	sb.WriteByte(')')
	return sb.String()
}

func (p *Generate) String() string {
	return fmt.Sprintf("Generate(%s <- %s)", p.Var, p.E)
}

func (p *Select) String() string  { return fmt.Sprintf("Select(%s)", p.Pred) }
func (p *Product) String() string { return "Product" }

func (p *Join) String() string {
	var sb strings.Builder
	sb.WriteString("Join(")
	for i, on := range p.On {
		if i > 0 {
			sb.WriteString(" and ")
		}
		fmt.Fprintf(&sb, "%s = %s", on.LExpr, on.RExpr)
	}
	sb.WriteByte(')')
	return sb.String()
}

func (p *Bind) String() string { return fmt.Sprintf("Bind(%s := %s)", p.Var, p.E) }

func (p *Reduce) String() string {
	var sb strings.Builder
	if p.Pred != nil {
		fmt.Fprintf(&sb, "Reduce[%s](%s if %s)", p.M.Name(), p.Head, p.Pred)
	} else {
		fmt.Fprintf(&sb, "Reduce[%s](%s)", p.M.Name(), p.Head)
	}
	if p.Grouped() {
		sb.WriteString(" group=[")
		for i, k := range p.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%s := %s", k.Name, k.E)
		}
		sb.WriteByte(']')
		if len(p.Aggs) > 0 {
			sb.WriteString(" aggs=[")
			for i, a := range p.Aggs {
				if i > 0 {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "%s := %s %s", a.Name, a.M.Name(), a.E)
			}
			sb.WriteByte(']')
		}
	}
	if o := p.Order; o != nil {
		for i, k := range o.Keys {
			if i == 0 {
				sb.WriteString(" order=[")
			} else {
				sb.WriteString(", ")
			}
			sb.WriteString(k.E.String())
			if k.Desc {
				sb.WriteString(" desc")
			}
		}
		if len(o.Keys) > 0 {
			sb.WriteByte(']')
		}
		if o.Limit != nil {
			fmt.Fprintf(&sb, " limit=%s", o.Limit)
		}
		if o.Offset != nil {
			fmt.Fprintf(&sb, " offset=%s", o.Offset)
		}
	}
	return sb.String()
}

// Format renders the whole plan tree indented, for EXPLAIN output and
// golden tests.
func Format(p Plan) string {
	var sb strings.Builder
	var walk func(p Plan, depth int)
	walk = func(p Plan, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(p.String())
		sb.WriteByte('\n')
		for _, in := range p.Inputs() {
			walk(in, depth+1)
		}
	}
	walk(p, 0)
	return sb.String()
}

// BoundVars returns every variable bound anywhere in the subtree.
func BoundVars(p Plan) []string {
	var out []string
	var walk func(Plan)
	walk = func(p Plan) {
		for _, in := range p.Inputs() {
			walk(in)
		}
		out = append(out, p.Vars()...)
	}
	walk(p)
	return out
}

// eachExpr calls f on every non-nil expression of the plan tree, each
// node's inputs before its own expressions (qualifier order), so the
// walks over a plan's expressions stay in sync with the node set.
func eachExpr(p Plan, f func(mcl.Expr)) {
	if p == nil {
		return
	}
	for _, in := range p.Inputs() {
		eachExpr(in, f)
	}
	g := func(e mcl.Expr) {
		if e != nil {
			f(e)
		}
	}
	switch n := p.(type) {
	case *Scan:
		g(n.Filter)
	case *Generate:
		g(n.E)
	case *Select:
		g(n.Pred)
	case *Join:
		for _, on := range n.On {
			g(on.LExpr)
			g(on.RExpr)
		}
	case *Bind:
		g(n.E)
	case *Reduce:
		g(n.Head)
		g(n.Pred)
		for _, k := range n.GroupBy {
			g(k.E)
		}
		for _, a := range n.Aggs {
			g(a.E)
		}
		if n.Order != nil {
			for _, k := range n.Order.Keys {
				g(k.E)
			}
			g(n.Order.Limit)
			g(n.Order.Offset)
		}
	}
}

// UsedSourceFields computes, per scan variable, the set of attributes the
// plan references via projections var.attr. It powers projection pruning:
// scan operators receive exactly the fields later operators touch. The
// bool result reports whether the variable is also used whole (passed
// around without projection), in which case pruning is unsafe.
func UsedSourceFields(p Plan, scanVar string) (fields []string, usedWhole bool) {
	seen := map[string]bool{}
	add := func(f string) {
		if !seen[f] {
			seen[f] = true
			fields = append(fields, f)
		}
	}
	var visitExpr func(e mcl.Expr)
	visitExpr = func(e mcl.Expr) {
		mcl.Walk(e, func(n mcl.Expr) bool {
			if proj, ok := n.(*mcl.ProjExpr); ok {
				if v, ok := proj.Rec.(*mcl.VarExpr); ok && v.Name == scanVar {
					add(proj.Attr)
					return false
				}
				return true
			}
			if v, ok := n.(*mcl.VarExpr); ok && v.Name == scanVar {
				usedWhole = true
			}
			return true
		})
	}
	var walk func(Plan)
	walk = func(p Plan) {
		switch n := p.(type) {
		case *Scan:
			if n.Filter != nil {
				visitExpr(n.Filter)
			}
		case *Generate:
			visitExpr(n.E)
		case *Select:
			visitExpr(n.Pred)
		case *Join:
			for _, on := range n.On {
				visitExpr(on.LExpr)
				visitExpr(on.RExpr)
			}
		case *Bind:
			visitExpr(n.E)
		case *Reduce:
			if n.Grouped() {
				// Group keys and aggregate inputs read the source bindings;
				// Head/Pred/Order run in the group scope where the binding
				// variables are hidden, so they cannot touch source fields.
				for _, k := range n.GroupBy {
					visitExpr(k.E)
				}
				for _, a := range n.Aggs {
					visitExpr(a.E)
				}
				break
			}
			visitExpr(n.Head)
			if n.Pred != nil {
				visitExpr(n.Pred)
			}
			if n.Order != nil {
				// Sort keys read source fields too: projection pruning must
				// keep the ORDER BY column tokenized.
				for _, k := range n.Order.Keys {
					visitExpr(k.E)
				}
			}
		}
		for _, in := range p.Inputs() {
			walk(in)
		}
	}
	walk(p)
	return fields, usedWhole
}

// Clone deep-copies the plan structure (expressions are shared: they are
// treated as immutable once built).
func Clone(p Plan) Plan {
	switch n := p.(type) {
	case *Scan:
		cp := *n
		cp.Fields = append([]string{}, n.Fields...)
		return &cp
	case *Generate:
		cp := *n
		if n.Input != nil {
			cp.Input = Clone(n.Input)
		}
		return &cp
	case *Select:
		return &Select{Input: Clone(n.Input), Pred: n.Pred}
	case *Product:
		return &Product{L: Clone(n.L), R: Clone(n.R)}
	case *Join:
		return &Join{L: Clone(n.L), R: Clone(n.R), On: append([]EquiPair{}, n.On...)}
	case *Bind:
		return &Bind{Input: Clone(n.Input), Var: n.Var, E: n.E}
	case *Reduce:
		cp := &Reduce{
			Input: Clone(n.Input), M: n.M, Head: n.Head, Pred: n.Pred,
			GroupBy: append([]mcl.GroupKey{}, n.GroupBy...),
			Aggs:    append([]mcl.AggSpec{}, n.Aggs...),
		}
		if n.Order != nil {
			o := *n.Order
			o.Keys = append([]SortKey{}, n.Order.Keys...)
			cp.Order = &o
		}
		return cp
	}
	panic(fmt.Sprintf("algebra: Clone on %T", p))
}

// Source is the executor-facing view of one registered dataset: a named
// stream of record values. Implementations live in the raw-format readers,
// the caches and the baseline stores.
type Source interface {
	// Name returns the catalog name.
	Name() string
	// Iterate streams every datum, passing each to yield; fields is the
	// projection hint (empty = all fields needed). Implementations stop
	// early when yield returns an error and propagate it.
	Iterate(fields []string, yield func(values.Value) error) error
}

// Catalog resolves source names for executors.
type Catalog interface {
	Source(name string) (Source, bool)
}

// MapCatalog is an in-memory Catalog for tests and examples.
type MapCatalog map[string]Source

// Source implements Catalog.
func (c MapCatalog) Source(name string) (Source, bool) {
	s, ok := c[name]
	return s, ok
}

// SliceSource adapts an in-memory slice of values to a Source.
type SliceSource struct {
	SrcName string
	Rows    []values.Value
}

// Name implements Source.
func (s *SliceSource) Name() string { return s.SrcName }

// Iterate implements Source.
func (s *SliceSource) Iterate(fields []string, yield func(values.Value) error) error {
	for _, r := range s.Rows {
		if err := yield(r); err != nil {
			return err
		}
	}
	return nil
}
