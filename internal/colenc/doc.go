// Package colenc implements the encoded columnar representation behind
// the cache's second tier: self-describing, checksummed blocks that hold
// 5-10x more rows per byte than flat vectors, live either encoded in
// memory (eviction then accounts the encoded size) or spilled to a cache
// directory from which a restarted engine rehydrates without touching
// the raw file.
//
// # Column encodings
//
// Each column encodes independently under one of five schemes, chosen
// from the vector's tag and value distribution at encode time:
//
//	EncDelta  int64: per block, the values bit-packed at the narrowest
//	          width that holds them, either as offsets from the block's
//	          smallest value or as deltas between neighbours (offsets
//	          from the smallest delta), whichever packs smaller.
//	          Sequential IDs are all one delta and pack at width 0: no
//	          per-row bytes at all.
//	EncFloat  float64: raw 8-byte little-endian passthrough.
//	EncDict   strings, low cardinality: the block payload is the rows'
//	          dictionary codes bit-packed at the width of the block's
//	          largest code; the dictionary itself (sorted ascending, so
//	          code order IS string order) is stored once per column.
//	          Decoding yields vec.StrDict windows, and filters compare
//	          codes against one binary-searched pivot before any string
//	          materializes.
//	EncStr    strings, high cardinality: varint length + bytes per row.
//	EncBoxed  mixed/generic columns: varint length + bsonlite document
//	          per row (raw passthrough — no compression is attempted).
//
// A column picks EncDict under the one dictionary rule, vec.DictEncode:
// at most vec.MaxDictSize distinct strings and at most one per two rows
// (the rule the hot tier installs string columns under); otherwise
// strings stay EncStr.
//
// # Block format
//
// Rows split into fixed runs of BlockRows, so a scan can decode exactly
// the blocks a morsel range touches. Every block carries its payload
// with a leading flags byte:
//
//	block  := flags(u8) [nullBitmap] payload
//	flags bit0: a null bitmap of ceil(rows/8) bytes follows; bit i of
//	            byte i/8 marks row i null. Null rows still occupy a
//	            zero-valued payload slot, keeping row offsets uniform.
//
//	EncDelta payload := mode(u8) width(u8) base(u64) [first(u64)] packed
//	  mode 0 (values): packed holds x[i] - base for every row, base the
//	                   block's smallest value.
//	  mode 1 (deltas): first is x[0]; packed holds x[i] - x[i-1] - base
//	                   for i >= 1, base the block's smallest delta.
//	EncDict  payload := width(u8) packed   (codes, width <= 32)
//	EncFloat payload := f64 little-endian per row
//	EncStr   payload := (uvarint length, bytes) per row
//	EncBoxed payload := (uvarint length, bsonlite document) per row
//
// packed is the values at width bits each (0..64), LSB-first, followed
// by 8 zero bytes of slack: packedLen(rows, width) = ceil(rows*width/8)
// + 8. With the slack every value is one unaligned 64-bit load and a
// shift, whatever its offset (widths above 56 add the next byte), so
// decoding is a fixed-width unpack with no varint and no branch per
// value. Integer arithmetic wraps (two's complement), so a block mixing
// MinInt64 and MaxInt64 round-trips at width 64. Decoding checks every
// claimed length once per block, before the first row: the bitmap, the
// header, the width (at most 64 for ints, 32 for codes) and
// packedLen(rows, width) against the payload; a dictionary block's
// largest code is checked against the dictionary after the unpack.
//
// Each block stores a CRC-32C (Castagnoli) checksum of its bytes.
// Checksums are verified when a spill file is read back (a mismatch
// quarantines the whole file); the in-memory decode path trusts blocks
// it encoded itself and skips the check.
//
// Blocks are self-contained — a delta chain restarts and the null flag
// is per block — which is what makes Col.Append cheap: rows appended to
// a column re-encode only from its last full block boundary, and every
// full block is shared with the column it was appended to.
//
// # Spill file format
//
// One file holds one dataset's encoded columnar entry (little-endian):
//
//	file   := magic "VCSP" | version u16 | headerLen u32 | header
//	        | headerCRC u32 | blockData*
//	header := str dataset | str generation | uvarint rows | uvarint ncols
//	        | column*
//	column := str name | tag u8 | enc u8 | uvarint dictLen | str*
//	        | uvarint nblocks | (uvarint rows, uvarint dataLen, crc u32)*
//	str    := uvarint length | bytes
//
// Block payloads follow the header in column order, then block order.
// Every block but a column's last holds exactly BlockRows rows (a reader
// rejects any other geometry: scans locate a row's block by division).
// Version 2 is the bit-packed int and dictionary layout above; version 1
// stored one varint per value. A file of any other version fails with
// ErrSpillVersion, and the cache deletes it and rebuilds the entry from
// the raw file rather than quarantine it: no decoder for an older
// version is kept.
// The generation string keys the file to one raw-file generation
// (content hash), so a source Refresh that finds new content makes the
// file stale: the cache layer deletes it (and, when the file only grew,
// writes the extended table under the new generation) rather than
// rehydrate it. Truncated or
// checksum-failing files never crash a reader: every parse returns an
// error the caller turns into a .bad quarantine.
package colenc
