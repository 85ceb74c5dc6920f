package main

import (
	"math/rand"
	"sort"
)

// The SQL templates of warm-analytics and encoded-restart over People and
// Orders, each with a seeded pool of constants whose answers the loops
// below work out in set-up.

const poolSize = 16

const (
	sqlFilterAgg   = `SELECT AVG(p.salary) FROM People p WHERE p.age >= ? AND p.score < ?`
	sqlGroupBy     = `SELECT p.city, COUNT(*) AS n, AVG(p.salary) AS s FROM People p WHERE p.age >= ? GROUP BY p.city`
	sqlTopK        = `SELECT p.id, p.score FROM People p WHERE p.age >= ? ORDER BY p.score DESC, p.id LIMIT 10`
	sqlGroupHaving = `SELECT p.city, COUNT(*) AS n, SUM(p.salary) AS s FROM People p WHERE p.age >= ? ` +
		`GROUP BY p.city HAVING COUNT(*) > ? ORDER BY s DESC LIMIT 5`
	sqlJoinAgg = `SELECT SUM(o.amount) FROM People p JOIN Orders o ON (p.id = o.pid) WHERE p.age >= ? AND o.qty > ?`
)

// template is one request class: its name, its share of the mix and its
// pool of ready requests.
type template struct {
	name   string
	weight int
	pool   []*request
}

// mix hands out requests from weighted templates in a fixed cycle that
// spreads each template evenly: every stretch of the cycle holds the same
// share of heavy and light requests, so throughput does not depend on the
// luck of the draw. Only the constant is drawn at random.
type mix struct {
	templates []template
	cycle     []int // template index per position
}

func newMix(ts ...template) *mix {
	m := &mix{templates: ts}
	type slot struct {
		at  float64
		tpl int
	}
	var slots []slot
	for i, t := range ts {
		for _, rq := range t.pool {
			rq.class = i
		}
		for k := 0; k < t.weight; k++ {
			slots = append(slots, slot{(float64(k) + 0.5) / float64(t.weight), i})
		}
	}
	sort.SliceStable(slots, func(a, b int) bool { return slots[a].at < slots[b].at })
	for _, s := range slots {
		m.cycle = append(m.cycle, s.tpl)
	}
	return m
}

func (m *mix) next(r *rand.Rand, i int) *request {
	pool := m.templates[m.cycle[i%len(m.cycle)]].pool
	return pool[r.Intn(len(pool))]
}

// classNames lists the templates in class order.
func (m *mix) classNames() []string {
	out := make([]string, len(m.templates))
	for i, t := range m.templates {
		out[i] = t.name
	}
	return out
}

// stratum draws the i-th of a pool's constants from the i-th of poolSize
// equal slices of [lo, hi): every seed's pool then spans the same range of
// selectivities, and only the position within each slice is left to
// chance.
func stratum(r *rand.Rand, i, lo, hi int) int64 {
	a, b := lo+i*(hi-lo)/poolSize, lo+(i+1)*(hi-lo)/poolSize
	return int64(a + r.Intn(max(b-a, 1)))
}

func ageConst(r *rand.Rand, i int) int64 { return stratum(r, i, 20, 80) }

func filterAggPool(p *people, r *rand.Rand) []*request {
	pool := make([]*request, poolSize)
	for i := range pool {
		// Score bounds run against the age bounds, so the pool's
		// selectivities do not all fall together.
		age, score := ageConst(r, i), stratum(r, poolSize-1-i, 20_000, 100_000)
		var sum float64
		var n int
		for j := range p.age {
			if p.age[j] >= age && p.score[j] < score {
				sum += p.salary[j]
				n++
			}
		}
		pool[i] = sqlRequest(sqlFilterAgg, scalarWant(sum/float64(n)), age, score)
	}
	return pool
}

// cityFold is COUNT(*) and SUM(salary) per city for age >= minAge.
func cityFold(p *people, minAge int64) (n [numCities]int, sum [numCities]float64) {
	for j := range p.age {
		if p.age[j] >= minAge {
			c := cityIndex(p.city[j])
			n[c]++
			sum[c] += p.salary[j]
		}
	}
	return n, sum
}

func cityIndex(city string) int { return int(city[1]-'0')*10 + int(city[2]-'0') }

func groupByPool(p *people, r *rand.Rand) []*request {
	cities := padded("c", numCities, 2)
	pool := make([]*request, poolSize)
	for i := range pool {
		age := ageConst(r, i)
		n, sum := cityFold(p, age)
		var rows []any
		for c := range n {
			if n[c] > 0 {
				rows = append(rows, map[string]any{"city": cities[c], "n": float64(n[c]), "s": sum[c] / float64(n[c])})
			}
		}
		pool[i] = sqlRequest(sqlGroupBy, &want{val: rows}, age)
	}
	return pool
}

func topKPool(p *people, r *rand.Rand) []*request {
	pool := make([]*request, poolSize)
	for i := range pool {
		age := ageConst(r, i)
		// Keep the ten best by (score desc, id asc) in one pass.
		var best []int
		less := func(a, b int) bool {
			if p.score[a] != p.score[b] {
				return p.score[a] > p.score[b]
			}
			return p.id[a] < p.id[b]
		}
		for j := range p.age {
			if p.age[j] < age {
				continue
			}
			if len(best) == 10 && !less(j, best[9]) {
				continue
			}
			best = append(best, j)
			sort.Slice(best, func(a, b int) bool { return less(best[a], best[b]) })
			if len(best) > 10 {
				best = best[:10]
			}
		}
		rows := make([]any, len(best))
		for k, j := range best {
			rows[k] = map[string]any{"id": float64(p.id[j]), "score": float64(p.score[j])}
		}
		pool[i] = sqlRequest(sqlTopK, &want{val: rows, ordered: true}, age)
	}
	return pool
}

func groupHavingPool(p *people, r *rand.Rand) []*request {
	cities := padded("c", numCities, 2)
	pool := make([]*request, poolSize)
	for i := range pool {
		age := ageConst(r, i)
		n, sum := cityFold(p, age)
		// A HAVING bound near the mean group size keeps about half the
		// groups.
		total := 0
		for _, c := range n {
			total += c
		}
		having := int64(total / numCities)
		var keep []int
		for c := range n {
			if int64(n[c]) > having {
				keep = append(keep, c)
			}
		}
		sort.Slice(keep, func(a, b int) bool { return sum[keep[a]] > sum[keep[b]] })
		if len(keep) > 5 {
			keep = keep[:5]
		}
		rows := make([]any, len(keep))
		for k, c := range keep {
			rows[k] = map[string]any{"city": cities[c], "n": float64(n[c]), "s": sum[c]}
		}
		pool[i] = sqlRequest(sqlGroupHaving, &want{val: rows, ordered: true}, age, having)
	}
	return pool
}

func joinAggPool(p *people, o *orders, r *rand.Rand) []*request {
	pool := make([]*request, poolSize)
	for i := range pool {
		age, qty := stratum(r, i, 50, 80), int64(4+i%5)
		var sum float64
		for j := range o.pid {
			if o.qty[j] > qty && p.age[o.pid[j]] >= age {
				sum += o.amount[j]
			}
		}
		pool[i] = sqlRequest(sqlJoinAgg, scalarWant(sum), age, qty)
	}
	return pool
}
