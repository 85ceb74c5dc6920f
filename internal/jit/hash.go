package jit

import (
	"vida/internal/values"
	"vida/internal/vec"
)

// This file holds the key kernels the hash join and the grouped fold
// share: hashing a key column for every live row of a batch in one
// tag-dispatched pass (no values.Value boxing on typed columns),
// combining several key columns into one tuple hash, and the one key
// equality both operators check a hash match with. The scalar hash
// helpers in internal/values guarantee a typed int64/float64/string row
// hashes identically to its boxed form, so typed and boxed batches of
// the same data land in the same slots.

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
// live row, reusing its scratch across batches: each array is sized once
// per batch and written by index. After hash, sums[k] is the k-th live
// row's tuple hash and nonNull[k] reports that none of its keys is null.
// Grouping ignores nonNull (null keys share a group); a join drops the
// rows it marks false (null keys never match).
type keyHasher struct {
	sums    []uint64
	nonNull []bool
	hs      []uint64
	valid   []bool
}

func (kh *keyHasher) hash(cols []*vec.Col, b *vec.Batch) {
	n := b.Len()
	kh.sums, kh.nonNull = resize(kh.sums, n), resize(kh.nonNull, n)
	for k := range kh.sums {
		kh.sums[k], kh.nonNull[k] = keyHashBasis, true
	}
	for _, col := range cols {
		kh.hs, kh.valid = hashLiveCol(col, b, kh.hs, kh.valid)
		for k, h := range kh.hs {
			if !kh.valid[k] {
				h, kh.nonNull[k] = nullKeyHash, false
			}
			kh.sums[k] = (kh.sums[k] ^ h) * keyHashPrime
		}
	}
}

// hashLiveCol returns hs and valid resized to the live rows of b and
// holding, in live order, each row's hash of col; valid[k] is false for
// a null row, whose hash is unspecified. The tag dispatch runs once per
// batch, the inner loops touch only the payload slices.
func hashLiveCol(col *vec.Col, b *vec.Batch, hs []uint64, valid []bool) ([]uint64, []bool) {
	n := b.Len()
	hs, valid = resize(hs, n), resize(valid, n)
	nulls := col.Nulls
	switch col.Tag {
	case vec.Int64:
		for k := range hs {
			i := b.Index(k)
			if valid[k] = nulls == nil || !nulls[i]; valid[k] {
				hs[k] = values.HashInt(col.Ints[i])
			}
		}
	case vec.Float64:
		for k := range hs {
			i := b.Index(k)
			if valid[k] = nulls == nil || !nulls[i]; valid[k] {
				hs[k] = values.HashFloat(col.Floats[i])
			}
		}
	case vec.Str, vec.StrDict:
		// Dictionary keys hash their dictionary string so dict-encoded and
		// plain batches of the same data share slots.
		for k := range hs {
			i := b.Index(k)
			if valid[k] = nulls == nil || !nulls[i]; valid[k] {
				hs[k] = values.HashString(col.StrAt(i))
			}
		}
	default:
		for k := range hs {
			v := col.Value(b.Index(k))
			if valid[k] = !v.IsNull(); valid[k] {
				hs[k] = v.Hash()
			}
		}
	}
	return hs, valid
}

// keyEqual is the one key equality of the join and the grouped fold: it
// compares row i of a against row j of b exactly as values.Equal
// compares their boxed forms — numeric cross-kind equality through the
// float image, NaN equal to NaN, −0 to 0 — without boxing for the typed
// tag pairings, plus the grouping rule that two nulls are equal and a
// null equals nothing else (a join never compares a null key).
func keyEqual(a *vec.Col, i int, b *vec.Col, j int) bool {
	an, bn := colNullAt(a, i), colNullAt(b, j)
	switch {
	case an || bn:
		return an == bn
	case a.Tag == vec.Int64 && b.Tag == vec.Int64:
		return a.Ints[i] == b.Ints[j]
	case strTag(a.Tag) && strTag(b.Tag):
		return a.StrAt(i) == b.StrAt(j)
	case numericTag(a.Tag) && numericTag(b.Tag):
		return values.CompareFloats(numAt(a, i), numAt(b, j)) == 0
	}
	return values.Equal(a.Value(i), b.Value(j))
}
