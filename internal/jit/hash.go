package jit

import (
	"vida/internal/values"
	"vida/internal/vec"
)

// This file holds the vectorized key kernels shared by the hash join and
// the grouped fold: hashing a key column for every live row of a batch
// in one tag-dispatched pass (no values.Value boxing on typed columns),
// combining several key columns into one tuple hash, and the typed
// key-equality check used on hash matches. The scalar hash helpers in
// internal/values guarantee a typed int64/float64/string row hashes
// identically to its boxed form, so typed and boxed batches of the same
// data land in the same hash-table buckets.

// Key-tuple hash combine: FNV-1a over the per-column scalar hashes, with
// the same constants as mcl.GroupHash so a tuple hashes identically to
// its boxed form (a null contributes a fixed marker).
const (
	keyHashBasis uint64 = 1469598103934665603
	keyHashPrime uint64 = 1099511628211
	nullKeyHash  uint64 = 0x9e3779b97f4a7c15
)

// tupleHash1 is the tuple hash of a one-key tuple whose key hashes to h
// (nullKeyHash for a null key): keyHasher.hash's combine for one column.
func tupleHash1(h uint64) uint64 { return (keyHashBasis ^ h) * keyHashPrime }

// keyHasher hashes the key columns of a batch into one tuple hash per
// live row, reusing its scratch across batches. After hash, sums[k] is
// the k-th live row's tuple hash and nonNull[k] reports that none of its
// keys is null. Grouping ignores nonNull (null keys share a group); a
// join drops the rows it marks false (null keys never match).
type keyHasher struct {
	sums    []uint64
	nonNull []bool
	hs      []uint64
	valid   []bool
}

func (kh *keyHasher) hash(cols []*vec.Col, b *vec.Batch) {
	n := b.Len()
	kh.sums, kh.nonNull = kh.sums[:0], kh.nonNull[:0]
	for k := 0; k < n; k++ {
		kh.sums, kh.nonNull = append(kh.sums, keyHashBasis), append(kh.nonNull, true)
	}
	for _, col := range cols {
		kh.hs, kh.valid = hashLiveCol(col, b, kh.hs[:0], kh.valid[:0])
		for k := 0; k < n; k++ {
			h := kh.hs[k]
			if !kh.valid[k] {
				h, kh.nonNull[k] = nullKeyHash, false
			}
			kh.sums[k] = (kh.sums[k] ^ h) * keyHashPrime
		}
	}
}

// hashLiveCol appends one hash per live row of col, in live order;
// valid[k] is false for null rows. The tag
// dispatch runs once per batch, the inner loops touch only the payload
// slices.
func hashLiveCol(col *vec.Col, b *vec.Batch, hs []uint64, valid []bool) ([]uint64, []bool) {
	n := b.Len()
	switch col.Tag {
	case vec.Int64:
		for k := 0; k < n; k++ {
			i := b.Index(k)
			if col.Nulls != nil && col.Nulls[i] {
				hs, valid = append(hs, 0), append(valid, false)
				continue
			}
			hs, valid = append(hs, values.HashInt(col.Ints[i])), append(valid, true)
		}
	case vec.Float64:
		for k := 0; k < n; k++ {
			i := b.Index(k)
			if col.Nulls != nil && col.Nulls[i] {
				hs, valid = append(hs, 0), append(valid, false)
				continue
			}
			hs, valid = append(hs, values.HashFloat(col.Floats[i])), append(valid, true)
		}
	case vec.Str:
		for k := 0; k < n; k++ {
			i := b.Index(k)
			if col.Nulls != nil && col.Nulls[i] {
				hs, valid = append(hs, 0), append(valid, false)
				continue
			}
			hs, valid = append(hs, values.HashString(col.Strs[i])), append(valid, true)
		}
	case vec.StrDict:
		// Dictionary keys hash their dictionary string so dict-encoded and
		// plain batches of the same data share hash-table buckets. The
		// per-code hash could be memoized, but dictionaries are small and
		// HashString is cheap relative to the probe that follows.
		for k := 0; k < n; k++ {
			i := b.Index(k)
			if col.Nulls != nil && col.Nulls[i] {
				hs, valid = append(hs, 0), append(valid, false)
				continue
			}
			hs, valid = append(hs, values.HashString(col.Dict[col.Codes[i]])), append(valid, true)
		}
	default:
		for k := 0; k < n; k++ {
			i := b.Index(k)
			v := col.Value(i)
			if v.IsNull() {
				hs, valid = append(hs, 0), append(valid, false)
				continue
			}
			hs, valid = append(hs, v.Hash()), append(valid, true)
		}
	}
	return hs, valid
}

// colValEqual compares row i of a against row j of b exactly as
// values.Equal compares their boxed forms — numeric cross-kind equality
// through the float image, NaN equal to NaN — without boxing for the
// typed tag pairings. Callers have already excluded null rows.
func colValEqual(a *vec.Col, i int, b *vec.Col, j int) bool {
	switch {
	case a.Tag == vec.Int64 && b.Tag == vec.Int64:
		return a.Ints[i] == b.Ints[j]
	case strTag(a.Tag) && strTag(b.Tag):
		return a.StrAt(i) == b.StrAt(j)
	case numericTag(a.Tag) && numericTag(b.Tag):
		return values.CompareFloats(numAt(a, i), numAt(b, j)) == 0
	}
	return values.Equal(a.Value(i), b.Value(j))
}
