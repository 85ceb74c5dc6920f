// Package optimizer implements ViDa's raw-data-aware query optimizer
// (paper §5). It extends classical rewrites — selection pushdown,
// equi-join extraction, join ordering, projection pruning — with a cost
// model in which the price of fetching an attribute depends on where the
// data lives right now: ViDa's caches are nearly free, binary formats are
// cheap, CSV is cheap only where the positional map already covers the
// requested columns, and JSON is the most expensive to navigate cold. The
// per-format "wrappers" normalize these costs (paper §5, after Garlic), so
// the ordering logic itself stays format-agnostic.
package optimizer

// CostModel supplies the optimizer's per-source estimates. Engine code
// implements it against live reader state (posmap coverage, semi-index
// coverage, cache residency); tests use StaticCostModel.
type CostModel interface {
	// SourceRows estimates the cardinality of a source.
	SourceRows(name string) int64
	// PerTupleCost estimates the relative cost of producing one datum of
	// the source restricted to the given fields. The unit is "one
	// attribute fetch from a loaded DBMS buffer pool" (paper §5's
	// const_cost); e.g. a cold CSV row costs ≈ 3 × fields.
	PerTupleCost(name string, fields []string) float64
	// CheapestField names the cheapest single attribute of the source,
	// used when a query needs row counts but no attribute values.
	CheapestField(name string) (string, bool)
}

// Reference per-attribute costs, relative to a loaded DBMS attribute
// fetch = 1.0 (paper §5 gives "3 × const_cost" for cold CSV).
const (
	CostCache      = 0.05
	CostTable      = 1.0
	CostArray      = 0.3
	CostCSVMapped  = 0.6
	CostCSVCold    = 3.0
	CostJSONMapped = 1.5
	CostJSONCold   = 4.0
	CostXLS        = 0.8
)

// StaticCostModel is a fixed-table CostModel for tests and tools.
type StaticCostModel struct {
	Rows     map[string]int64
	PerTuple map[string]float64
	Cheapest map[string]string
}

// SourceRows implements CostModel (default 1000).
func (m *StaticCostModel) SourceRows(name string) int64 {
	if m != nil && m.Rows != nil {
		if r, ok := m.Rows[name]; ok {
			return r
		}
	}
	return 1000
}

// PerTupleCost implements CostModel (default 1.0 per field).
func (m *StaticCostModel) PerTupleCost(name string, fields []string) float64 {
	per := 1.0
	if m != nil && m.PerTuple != nil {
		if c, ok := m.PerTuple[name]; ok {
			per = c
		}
	}
	n := len(fields)
	if n == 0 {
		n = 1
	}
	return per * float64(n)
}

// CheapestField implements CostModel.
func (m *StaticCostModel) CheapestField(name string) (string, bool) {
	if m != nil && m.Cheapest != nil {
		f, ok := m.Cheapest[name]
		return f, ok
	}
	return "", false
}
