package monoid

import (
	"sort"

	"vida/internal/values"
)

// This file holds the keyed, offset-aware top-k accumulator behind ORDER
// BY / LIMIT / OFFSET pushdown. It generalizes the user-facing top-k
// monoid (yield top5 e, which ranks elements by their own value) to rank
// arbitrary elements by a separate multi-part sort key with per-key
// direction — the fold the JIT executor pushes into its pipelines so a
// ranked query over n rows retains O(offset+limit) state instead of
// materializing all n.
//
// Like avg and median, keyed top-k is a "monoid" in the paper's loose
// sense: it accumulates in an auxiliary domain (a bounded heap of
// key/element pairs) whose merge is associative and commutative, and a
// Finalize step (sort, offset, slice) produces the user-visible result.
// Commutativity is what licenses morsel-parallel execution: workers fold
// disjoint row ranges into partial heaps and merge them in any order.

// KeyedEntry is one element tagged with its evaluated sort key.
type KeyedEntry struct {
	Keys []values.Value
	Elem values.Value
}

// TopKAcc accumulates the best entries under a multi-key ordering. The
// zero bound (Keep < 0) accumulates everything (full sort at Finalize);
// a non-negative Keep retains only the Keep best entries in a bounded
// max-heap whose root is the worst retained entry — inserting row n+1
// costs O(log keep) and evicts the current worst.
type TopKAcc struct {
	desc    []bool // per-key direction, true = descending
	keep    int    // max retained entries; < 0 = unbounded
	entries []KeyedEntry
	heaped  bool
}

// NewTopKAcc returns an accumulator ordering entries by len(desc) keys
// (Compare per key, direction flipped where desc[i]), ties broken by the
// element's own total order so results are deterministic regardless of
// input order or worker count. keep bounds retained entries (< 0:
// unbounded).
func NewTopKAcc(desc []bool, keep int) *TopKAcc {
	return &TopKAcc{desc: desc, keep: keep}
}

// Len returns the number of retained entries.
func (t *TopKAcc) Len() int { return len(t.entries) }

// less reports whether a sorts strictly before b under the key ordering,
// with the element value as the final tiebreaker. A total, deterministic
// order is what makes parallel top-k results independent of morsel
// interleaving: of two entries with equal keys AND equal elements, either
// is interchangeable in the output.
func (t *TopKAcc) less(a, b *KeyedEntry) bool {
	for i := range t.desc {
		c := values.Compare(a.Keys[i], b.Keys[i])
		if t.desc[i] {
			c = -c
		}
		if c != 0 {
			return c < 0
		}
	}
	return values.Compare(a.Elem, b.Elem) < 0
}

// Add folds one entry. The keys and element are retained; callers must
// not reuse the Keys slice.
func (t *TopKAcc) Add(keys []values.Value, elem values.Value) {
	t.add(KeyedEntry{Keys: keys, Elem: elem})
}

func (t *TopKAcc) add(e KeyedEntry) {
	if t.keep < 0 || len(t.entries) < t.keep {
		// The heap forms once the bound is reached and never shrinks, so
		// below the bound entries are a plain unordered slice.
		t.entries = append(t.entries, e)
		if len(t.entries) == t.keep {
			t.heapify()
		}
		return
	}
	if t.keep == 0 {
		return
	}
	// Heap is full: replace the worst retained entry when e beats it.
	if !t.heaped {
		t.heapify()
	}
	if t.less(&e, &t.entries[0]) {
		t.entries[0] = e
		t.siftDown(0)
	}
}

// Offer is Add for reusable key buffers: when the accumulator is full
// and the entry would not displace the current worst, it is rejected
// without retaining keys — the caller may reuse the slice for the next
// row, which makes the steady state of a large scan with a small limit
// allocation-free. Accepted entries retain keys: the caller must pass a
// fresh slice afterwards. Returns whether the entry was retained.
func (t *TopKAcc) Offer(keys []values.Value, elem values.Value) bool {
	if t.keep == 0 {
		return false
	}
	if t.keep > 0 && len(t.entries) == t.keep {
		if !t.heaped {
			t.heapify()
		}
		e := KeyedEntry{Keys: keys, Elem: elem}
		if !t.less(&e, &t.entries[0]) {
			return false
		}
		t.entries[0] = e
		t.siftDown(0)
		return true
	}
	t.add(KeyedEntry{Keys: keys, Elem: elem})
	return true
}

// Competitive reports whether an entry with these keys could still be
// retained: always while the accumulator is unbounded or not yet full,
// otherwise only when the keys sort before (or tie with — the element
// tiebreak then decides) the current worst. Executors use it to skip
// evaluating the head expression of rows that cannot place.
func (t *TopKAcc) Competitive(keys []values.Value) bool {
	if t.keep == 0 {
		return false
	}
	worst, full := t.Worst()
	if !full {
		return true
	}
	for i := range t.desc {
		c := values.Compare(keys[i], worst[i])
		if t.desc[i] {
			c = -c
		}
		if c != 0 {
			return c < 0
		}
	}
	return true
}

// Worst returns the keys of the worst retained entry once the
// accumulator is full, when a row must sort before (or tie with) them to
// place; ok is false while every row can still place (unbounded or not
// yet full) and when nothing can (keep 0). The keys must not be
// modified.
func (t *TopKAcc) Worst() (keys []values.Value, ok bool) {
	if t.keep <= 0 || len(t.entries) < t.keep {
		return nil, false
	}
	if !t.heaped {
		t.heapify()
	}
	return t.entries[0].Keys, true
}

// heapify arranges entries as a max-heap under less (root = worst).
func (t *TopKAcc) heapify() {
	for i := len(t.entries)/2 - 1; i >= 0; i-- {
		t.siftDown(i)
	}
	t.heaped = true
}

func (t *TopKAcc) siftDown(i int) {
	n := len(t.entries)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && t.less(&t.entries[worst], &t.entries[l]) {
			worst = l
		}
		if r < n && t.less(&t.entries[worst], &t.entries[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		t.entries[i], t.entries[worst] = t.entries[worst], t.entries[i]
		i = worst
	}
}

// MergeFrom absorbs another accumulator's partial state (the ⊕ of the
// auxiliary monoid). The absorbed accumulator must not be used afterwards.
func (t *TopKAcc) MergeFrom(o *TopKAcc) {
	if t.keep < 0 && len(o.entries) > 0 {
		// Unbounded fast path: plain concatenation.
		t.entries = append(t.entries, o.entries...)
		return
	}
	for i := range o.entries {
		t.add(o.entries[i])
	}
}

// Finalize sorts the retained entries ascending under the ordering,
// optionally deduplicates equal elements (set semantics: the first entry
// in key order survives), then applies offset and limit (limit < 0 =
// unbounded). It returns the ordered elements; the accumulator must not
// be used afterwards.
func (t *TopKAcc) Finalize(offset, limit int, dedup bool) []values.Value {
	ents := t.entries
	sort.Slice(ents, func(i, j int) bool { return t.less(&ents[i], &ents[j]) })
	var out []values.Value
	if dedup {
		seen := map[uint64][]values.Value{}
		for i := range ents {
			h := ents[i].Elem.Hash()
			dup := false
			for _, o := range seen[h] {
				if values.Equal(ents[i].Elem, o) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			seen[h] = append(seen[h], ents[i].Elem)
			out = append(out, ents[i].Elem)
		}
	} else {
		out = make([]values.Value, len(ents))
		for i := range ents {
			out[i] = ents[i].Elem
		}
	}
	if offset > 0 {
		if offset >= len(out) {
			return nil
		}
		out = out[offset:]
	}
	if limit >= 0 && limit < len(out) {
		out = out[:limit]
	}
	return out
}
