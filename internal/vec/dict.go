package vec

import (
	"slices"
	"strings"
)

// MaxDictSize caps a dictionary's cardinality: a string column with more
// distinct values stays plain strings, in the hot tier and in the encoded
// one alike.
const MaxDictSize = 4096

// DictEncode's first-seen codes are uint16: this fails to compile once
// MaxDictSize outgrows them.
const _ = uint16(MaxDictSize - 1)

// dictWorthy is the one dictionary rule: k distinct strings over n rows
// are dictionary-coded when there are at most MaxDictSize of them and at
// most one per two rows.
func dictWorthy(k, n int) bool { return k <= MaxDictSize && 2*k <= n }

// DictEncode returns the string column c as a StrDict column over a
// fresh, sorted dictionary when its distinct strings pass the dictionary
// rule; a StrDict column that passes is returned as it is. ok is false
// for a column that does not pass and for any other tag. The result shares
// c's validity mask; a null row's payload string ("" for AppendNull)
// takes a code like any other, so every code indexes the dictionary.
func DictEncode(c *Col) (Col, bool) {
	n := c.Len()
	switch c.Tag {
	case StrDict:
		return *c, dictWorthy(len(c.Dict), n)
	case Str:
	default:
		return Col{}, false
	}
	// One pass codes the rows in first-seen order, giving up as soon as
	// the column holds more strings than the rule allows; the first-seen
	// codes grow with the rows seen (uint16 holds every code below
	// MaxDictSize), so a column that fails never allocates all n. Sorting
	// the dictionary then renumbers them into the n-row codes.
	idx := make(map[string]uint16, 64)
	var dict []string
	var first []uint16
	for _, s := range c.Strs {
		k, ok := idx[s]
		if !ok {
			if !dictWorthy(len(dict)+1, n) {
				return Col{}, false
			}
			k = uint16(len(dict))
			idx[s], dict = k, append(dict, s)
		}
		first = append(first, k)
	}
	order := make([]uint16, len(dict))
	for k := range order {
		order[k] = uint16(k)
	}
	slices.SortFunc(order, func(a, b uint16) int { return strings.Compare(dict[a], dict[b]) })
	sorted, renumber := make([]string, len(dict)), make([]uint32, len(dict))
	for k, old := range order {
		sorted[k], renumber[old] = dict[old], uint32(k)
	}
	codes := make([]uint32, n)
	for i, k := range first {
		codes[i] = renumber[k]
	}
	return Col{Tag: StrDict, Codes: codes, Dict: sorted, Nulls: c.Nulls}, true
}

// DictCodes returns the code of every row of the Str or StrDict column
// tail in the sorted dictionary dict, or ok false when some string is not
// in it: the caller then re-encodes, since a new string shifts the codes
// of every string sorting after it.
func DictCodes(dict []string, tail *Col) (codes []uint32, ok bool) {
	codes = make([]uint32, tail.Len())
	for i := range codes {
		k, found := slices.BinarySearch(dict, tail.StrAt(i))
		if !found {
			return nil, false
		}
		codes[i] = uint32(k)
	}
	return codes, true
}

// extendDict returns the StrDict column c followed by the string rows of
// tail, validity masks aside (Extend joins those). Tail strings already
// in c's dictionary append their codes behind c's, never writing below
// its length; a new string re-encodes the whole column into a fresh
// dictionary, or demotes it to Str once it no longer passes the rule.
// Either way c and its dictionary are untouched.
func (c *Col) extendDict(tail *Col) Col {
	if codes, ok := DictCodes(c.Dict, tail); ok {
		return Col{Tag: StrDict, Codes: AppendBounded(c.Codes, codes), Dict: c.Dict}
	}
	n, tn := c.Len(), tail.Len()
	strs := make([]string, n+tn, n+tn+Spare(n+tn))
	for i, k := range c.Codes {
		strs[i] = c.Dict[k]
	}
	for i := 0; i < tn; i++ {
		strs[n+i] = tail.StrAt(i)
	}
	flat := Col{Tag: Str, Strs: strs}
	if d, ok := DictEncode(&flat); ok {
		return d
	}
	return flat
}
