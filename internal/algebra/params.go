package algebra

import (
	"vida/internal/mcl"
	"vida/internal/values"
)

// PlanParams returns the bind-parameter names referenced anywhere in the
// plan, in first-occurrence order (walking inputs before each node's own
// expressions, matching qualifier order).
func PlanParams(p Plan) []string {
	var out []string
	seen := map[string]bool{}
	eachExpr(p, func(e mcl.Expr) {
		for _, name := range mcl.Params(e) {
			if !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
	})
	return out
}

// BindParams returns a copy of the plan with every parameter placeholder
// substituted by its bound constant. The original plan (typically a
// cached prepared statement shared by concurrent executions) is not
// mutated; expressions without parameters are shared, not copied.
func BindParams(p *Reduce, params map[string]values.Value) *Reduce {
	if len(params) == 0 {
		return p
	}
	return bindPlan(p, params).(*Reduce)
}

func bindPlan(p Plan, params map[string]values.Value) Plan {
	if p == nil {
		return nil
	}
	switch n := p.(type) {
	case *Scan:
		cp := *n
		cp.Filter = mcl.BindParams(n.Filter, params)
		return &cp
	case *Generate:
		cp := *n
		if n.Input != nil {
			cp.Input = bindPlan(n.Input, params)
		}
		cp.E = mcl.BindParams(n.E, params)
		return &cp
	case *Select:
		return &Select{Input: bindPlan(n.Input, params), Pred: mcl.BindParams(n.Pred, params)}
	case *Product:
		return &Product{L: bindPlan(n.L, params), R: bindPlan(n.R, params)}
	case *Join:
		on := make([]EquiPair, len(n.On))
		for i, pair := range n.On {
			on[i] = EquiPair{
				LExpr: mcl.BindParams(pair.LExpr, params),
				RExpr: mcl.BindParams(pair.RExpr, params),
			}
		}
		return &Join{L: bindPlan(n.L, params), R: bindPlan(n.R, params), On: on}
	case *Bind:
		return &Bind{Input: bindPlan(n.Input, params), Var: n.Var, E: mcl.BindParams(n.E, params)}
	case *Reduce:
		out := &Reduce{
			Input: bindPlan(n.Input, params),
			M:     n.M,
			Head:  mcl.BindParams(n.Head, params),
			Pred:  mcl.BindParams(n.Pred, params),
		}
		for _, k := range n.GroupBy {
			out.GroupBy = append(out.GroupBy, mcl.GroupKey{Name: k.Name, E: mcl.BindParams(k.E, params)})
		}
		for _, a := range n.Aggs {
			out.Aggs = append(out.Aggs, mcl.AggSpec{Name: a.Name, M: a.M, E: mcl.BindParams(a.E, params)})
		}
		if n.Order != nil {
			spec := &OrderSpec{
				Limit:  mcl.BindParams(n.Order.Limit, params),
				Offset: mcl.BindParams(n.Order.Offset, params),
			}
			for _, k := range n.Order.Keys {
				spec.Keys = append(spec.Keys, SortKey{E: mcl.BindParams(k.E, params), Desc: k.Desc})
			}
			out.Order = spec
		}
		return out
	}
	return p
}
