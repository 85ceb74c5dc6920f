package colenc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"

	"vida/internal/bsonlite"
	"vida/internal/values"
	"vida/internal/vec"
)

// BlockRows is the fixed row count per encoded block (the last block of
// a column may be shorter). 4096 keeps a decoded block within a couple
// of pipeline batches while amortizing per-block overhead.
const BlockRows = 4096

// Encoding identifies a column's block payload scheme.
type Encoding uint8

// The column encodings (see the package comment for layouts).
const (
	EncDelta Encoding = iota
	EncFloat
	EncDict
	EncStr
	EncBoxed
)

// String returns the encoding name.
func (e Encoding) String() string {
	switch e {
	case EncDelta:
		return "delta"
	case EncFloat:
		return "float"
	case EncDict:
		return "dict"
	case EncStr:
		return "str"
	case EncBoxed:
		return "boxed"
	default:
		return fmt.Sprintf("enc(%d)", uint8(e))
	}
}

// castagnoli is the CRC-32C table shared by block and header checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Block is one checksummed run of encoded rows.
type Block struct {
	Rows int
	Data []byte
	CRC  uint32
}

// Col is one encoded column: the decoded tag, the payload scheme, and
// the block sequence. Dict is populated for EncDict only.
type Col struct {
	Tag    vec.Tag
	Enc    Encoding
	N      int
	Dict   []string
	Blocks []Block
}

// Table is a dataset's encoded columnar entry.
type Table struct {
	N    int
	Cols map[string]*Col
}

// SizeBytes returns the resident footprint of the encoded column.
func (c *Col) SizeBytes() int64 {
	var total int64
	for i := range c.Blocks {
		total += int64(len(c.Blocks[i].Data)) + 16
	}
	for _, s := range c.Dict {
		total += int64(len(s)) + 16
	}
	return total
}

// NumBlocks returns the block count.
func (c *Col) NumBlocks() int { return len(c.Blocks) }

// SizeBytes returns the resident footprint of all encoded columns.
func (t *Table) SizeBytes() int64 {
	var total int64
	for _, c := range t.Cols {
		total += c.SizeBytes()
	}
	return total
}

// NumBlocks returns the total block count across columns.
func (t *Table) NumBlocks() int {
	n := 0
	for _, c := range t.Cols {
		n += len(c.Blocks)
	}
	return n
}

// HasColumns reports whether every requested field is encoded.
func (t *Table) HasColumns(fields []string) bool {
	for _, f := range fields {
		if _, ok := t.Cols[f]; !ok {
			return false
		}
	}
	return true
}

// EncodeColumns encodes a full columnar entry of n rows.
func EncodeColumns(cols map[string]vec.Col, n int) (*Table, error) {
	t := &Table{N: n, Cols: make(map[string]*Col, len(cols))}
	for name, col := range cols {
		ec, err := EncodeCol(&col)
		if err != nil {
			return nil, fmt.Errorf("colenc: column %q: %w", name, err)
		}
		t.Cols[name] = ec
	}
	return t, nil
}

// EncodeCol encodes one column vector into checksummed blocks.
func EncodeCol(c *vec.Col) (*Col, error) {
	out := &Col{Tag: c.Tag, N: c.Len()}
	var codes []uint32
	switch c.Tag {
	case vec.Int64:
		out.Enc = EncDelta
	case vec.Float64:
		out.Enc = EncFloat
	case vec.Str, vec.StrDict:
		out.Tag, out.Enc = vec.Str, EncStr
		if d, ok := vec.DictEncode(c); ok {
			out.Enc, out.Dict, codes = EncDict, d.Dict, d.Codes
		}
	case vec.Boxed:
		out.Enc = EncBoxed
	default:
		return nil, fmt.Errorf("unencodable tag %s", c.Tag)
	}
	blocks, err := encodeBlocks(out.Enc, c, codes)
	if err != nil {
		return nil, err
	}
	out.Blocks = blocks
	return out, nil
}

// Append returns a copy of c followed by the rows of tail; c itself, which
// scans may be decoding, is not touched. Blocks are self-contained, so
// only the rows past the last full BlockRows boundary are encoded again:
// the trailing partial block (if any) is decoded, joined with tail and
// re-cut into blocks that replace it. A dictionary column keeps its
// dictionary when every tail string is already in it; a new string would
// shift the sorted codes of every block, so that case re-encodes the
// column whole. tail must have the representation c decodes to.
func (c *Col) Append(tail *vec.Col) (*Col, error) {
	if tail.Len() == 0 {
		return c, nil // encoded columns are immutable: c is its own copy
	}
	full := len(c.Blocks)
	if full > 0 && c.Blocks[full-1].Rows < BlockRows {
		full--
	}
	var last vec.Col
	if full < len(c.Blocks) {
		if err := c.DecodeBlock(full, &last); err != nil {
			return nil, err
		}
	}
	col := joinCols(&last, tail)
	if col.Tag != c.Tag {
		return nil, fmt.Errorf("colenc: appending a %s tail to a %s column", tail.Tag, c.Tag)
	}
	var codes []uint32
	if c.Enc == EncDict {
		var ok bool
		if codes, ok = vec.DictCodes(c.Dict, &col); !ok {
			all, err := c.Decode()
			if err != nil {
				return nil, err
			}
			whole := joinCols(&all, tail)
			return EncodeCol(&whole)
		}
	}
	blocks, err := encodeBlocks(c.Enc, &col, codes)
	if err != nil {
		return nil, err
	}
	out := &Col{Tag: c.Tag, Enc: c.Enc, N: c.N + tail.Len(), Dict: c.Dict}
	out.Blocks = append(append(make([]Block, 0, full+len(blocks)), c.Blocks[:full]...), blocks...)
	return out, nil
}

// joinCols concatenates two flat columns (dictionary windows come out as
// plain strings; columns of different tags come out boxed).
func joinCols(a, b *vec.Col) vec.Col {
	cb := vec.NewColBuilder(a.Len() + b.Len())
	cb.Append(a, &vec.Batch{N: a.Len()})
	cb.Append(b, &vec.Batch{N: b.Len()})
	return cb.Finish()
}

// The two modes of an EncDelta block: its ints are packed as values
// minus the block's base, or as the deltas between neighbours minus the
// smallest delta.
const (
	modeValues byte = iota
	modeDeltas
)

// packSlack is the zeroed tail of every bit-packed payload: with it, a
// value of up to 56 bits is one unaligned 64-bit load wherever it starts,
// and a wider one that load plus the byte after it.
const packSlack = 8

// packedLen is the byte length of rows values packed at width bits,
// slack included.
func packedLen(rows, width int) int { return (rows*width+7)/8 + packSlack }

// bitWriter packs values of w bits each LSB-first into a payload, a
// 64-bit word at a time.
type bitWriter struct {
	out  []byte
	p    int    // byte offset of the word being filled
	acc  uint64 // the word being filled
	n, w uint   // bits held in acc, bits per value
}

func (bw *bitWriter) put(x uint64) {
	bw.acc |= x << bw.n
	bw.n += bw.w
	if bw.n >= 64 {
		binary.LittleEndian.PutUint64(bw.out[bw.p:], bw.acc)
		bw.p += 8
		bw.n -= 64
		bw.acc = x >> (bw.w - bw.n) // the bits of x that did not fit
	}
}

// flush writes the partly filled last word (into the slack).
func (bw *bitWriter) flush() {
	if bw.n > 0 {
		binary.LittleEndian.PutUint64(bw.out[bw.p:], bw.acc)
	}
}

// unpackInts decodes len(out) values packed at width w from data, which
// must hold packedLen(len(out), w) bytes, adding base to each (wrapping).
func unpackInts(out []int64, data []byte, w uint, base uint64) {
	if w == 0 {
		for i := range out {
			out[i] = int64(base)
		}
		return
	}
	mask := uint64(1)<<w - 1
	if w <= 56 {
		for i := range out {
			off := uint(i) * w
			out[i] = int64(base + binary.LittleEndian.Uint64(data[off>>3:])>>(off&7)&mask)
		}
		return
	}
	for i := range out {
		off := uint(i) * w
		p, s := off>>3, off&7
		x := binary.LittleEndian.Uint64(data[p:])>>s | uint64(data[p+8])<<(64-s)
		out[i] = int64(base + x&mask)
	}
}

// unpackCodes is unpackInts for dictionary codes (w <= 32, so each is one
// load at any offset); it returns the largest code. It stays out of line:
// inlined into DecodeBlock, its loop state spills to the stack and the
// unpack runs at half speed.
//
//go:noinline
func unpackCodes(out []uint32, data []byte, w uint) uint32 {
	mask := uint64(1)<<w - 1
	var top uint32
	for i := range out {
		off := uint(i) * w
		k := uint32(binary.LittleEndian.Uint64(data[off>>3:]) >> (off & 7) & mask)
		out[i] = k
		top = max(top, k)
	}
	return top
}

// appendPacked appends a zeroed payload for rows values of w bits and
// returns the grown buffer and a writer over the payload.
func appendPacked(buf []byte, rows, w int) ([]byte, bitWriter) {
	start := len(buf)
	buf = append(buf, make([]byte, packedLen(rows, w))...)
	return buf, bitWriter{out: buf[start:], w: uint(w)}
}

// blockEncoder cuts one column into blocks. Its scratch (the block being
// built, one block of null-zeroed ints, one boxed document) carries over
// from block to block, so a column allocates each block's bytes once and
// nothing per row.
type blockEncoder struct {
	enc   Encoding
	c     *vec.Col
	codes []uint32 // per-row dictionary codes of EncDict
	buf   []byte
	ints  []int64
	doc   []byte
}

// encodeBlocks cuts c into BlockRows runs under encoding enc (codes
// carries the per-row dictionary codes of EncDict), prepending the flags
// byte + null bitmap and checksumming each block. An empty column still
// yields one empty block.
func encodeBlocks(enc Encoding, c *vec.Col, codes []uint32) ([]Block, error) {
	n := c.Len()
	e := blockEncoder{enc: enc, c: c, codes: codes}
	blocks := make([]Block, 0, max(1, (n+BlockRows-1)/BlockRows))
	for lo := 0; lo < n || lo == 0; lo += BlockRows {
		hi := min(lo+BlockRows, n)
		data, err := e.block(lo, hi)
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, Block{Rows: hi - lo, Data: data, CRC: crc32.Checksum(data, castagnoli)})
	}
	return blocks, nil
}

// block encodes rows [lo, hi) into a fresh slice.
func (e *blockEncoder) block(lo, hi int) ([]byte, error) {
	c := e.c
	buf := append(e.buf[:0], 0)
	var nulls []bool
	if c.Nulls != nil {
		nulls = c.Nulls[lo:hi]
		buf[0] = 1
		buf = append(buf, make([]byte, (hi-lo+7)/8)...)
		bitmap := buf[1:]
		for i, null := range nulls {
			if null {
				bitmap[i/8] |= 1 << uint(i%8)
			}
		}
	}
	switch e.enc {
	case EncDelta:
		buf = e.appendInts(buf, c.Ints[lo:hi], nulls)
	case EncFloat:
		for _, f := range c.Floats[lo:hi] {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
	case EncDict:
		codes := e.codes[lo:hi]
		var top uint32
		for _, k := range codes {
			top = max(top, k)
		}
		w := bits.Len32(top)
		buf = append(buf, byte(w))
		var bw bitWriter
		buf, bw = appendPacked(buf, len(codes), w)
		if w > 0 {
			for _, k := range codes {
				bw.put(uint64(k))
			}
			bw.flush()
		}
	case EncStr:
		for i := lo; i < hi; i++ {
			s := c.StrAt(i)
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
	case EncBoxed:
		for _, v := range c.Boxed[lo:hi] {
			doc, err := bsonlite.Append(e.doc[:0], v)
			if err != nil {
				return nil, err
			}
			e.doc = doc
			buf = binary.AppendUvarint(buf, uint64(len(doc)))
			buf = append(buf, doc...)
		}
	}
	e.buf = buf
	return slices.Clone(buf), nil
}

// appendInts appends one block of ints (null rows as 0) in whichever
// mode packs it smaller:
//
//	modeValues: mode u8 | width u8 | base u64 | packed(x - base)
//	modeDeltas: mode u8 | width u8 | base u64 | first u64
//	            | packed(x[i] - x[i-1] - base), i >= 1
//
// base is the smallest value (delta); every subtraction wraps, so the
// width covers the full range between any two int64s.
func (e *blockEncoder) appendInts(buf []byte, xs []int64, nulls []bool) []byte {
	if nulls != nil {
		e.ints = append(e.ints[:0], xs...)
		for i, null := range nulls {
			if null {
				e.ints[i] = 0
			}
		}
		xs = e.ints
	}
	n := len(xs)
	var vmin, vmax int64
	if n > 0 {
		vmin, vmax = xs[0], xs[0]
	}
	dmin, dmax := int64(math.MaxInt64), int64(math.MinInt64)
	for i := 1; i < n; i++ {
		x := xs[i]
		vmin, vmax = min(vmin, x), max(vmax, x)
		d := x - xs[i-1]
		dmin, dmax = min(dmin, d), max(dmax, d)
	}
	vw := bits.Len64(uint64(vmax - vmin))
	if dw := bits.Len64(uint64(dmax - dmin)); n > 1 && 8+packedLen(n-1, dw) < packedLen(n, vw) {
		buf = append(buf, modeDeltas, byte(dw))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(dmin))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(xs[0]))
		var bw bitWriter
		buf, bw = appendPacked(buf, n-1, dw)
		if dw > 0 {
			for i := 1; i < n; i++ {
				bw.put(uint64(xs[i] - xs[i-1] - dmin))
			}
			bw.flush()
		}
		return buf
	}
	buf = append(buf, modeValues, byte(vw))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(vmin))
	var bw bitWriter
	buf, bw = appendPacked(buf, n, vw)
	if vw > 0 {
		for _, x := range xs {
			bw.put(uint64(x - vmin))
		}
		bw.flush()
	}
	return buf
}

// VerifyBlock recomputes the checksum of block bi.
func (c *Col) VerifyBlock(bi int) error {
	b := &c.Blocks[bi]
	if got := crc32.Checksum(b.Data, castagnoli); got != b.CRC {
		return fmt.Errorf("colenc: block %d checksum mismatch (got %08x want %08x)", bi, got, b.CRC)
	}
	return nil
}

// DecodeBlock decodes block bi into dst, replacing its contents. Dict
// columns decode to vec.StrDict sharing the column's dictionary; all
// other encodings decode to their original tag. The destination keeps
// its payload capacity across calls, its validity mask's included, so a
// scan reusing one dst per column allocates only on the first (and
// largest) block. Every length a block claims is checked once, up front:
// a truncated or malformed block returns an error, never a panic.
func (c *Col) DecodeBlock(bi int, dst *vec.Col) error {
	if bi < 0 || bi >= len(c.Blocks) {
		return fmt.Errorf("colenc: block %d out of range [0,%d)", bi, len(c.Blocks))
	}
	b := &c.Blocks[bi]
	rows, data := b.Rows, b.Data
	if rows < 0 || rows > BlockRows {
		return fmt.Errorf("colenc: block %d: %d rows outside [0,%d]", bi, rows, BlockRows)
	}
	if len(data) < 1 {
		return fmt.Errorf("colenc: block %d: empty data", bi)
	}
	tag := c.Tag
	if c.Enc == EncDict {
		tag = vec.StrDict
	}
	spare := dst.Nulls[:0]
	dst.Reset(tag)
	flags, data := data[0], data[1:]
	if flags&1 != 0 {
		nb := (rows + 7) / 8
		if len(data) < nb {
			return fmt.Errorf("colenc: block %d: truncated null bitmap", bi)
		}
		var nulls []byte
		nulls, data = data[:nb], data[nb:]
		mask := slices.Grow(spare, rows)[:rows]
		for i := range mask {
			mask[i] = nulls[i/8]&(1<<uint(i%8)) != 0
		}
		dst.Nulls = mask
	}
	switch c.Enc {
	case EncDelta:
		return c.decodeInts(bi, rows, data, dst)
	case EncFloat:
		if len(data) < rows*8 {
			return fmt.Errorf("colenc: block %d: truncated float payload", bi)
		}
		fs := slices.Grow(dst.Floats[:0], rows)[:rows]
		for i := range fs {
			fs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		}
		dst.Floats = fs
	case EncDict:
		return c.decodeCodes(bi, rows, data, dst)
	case EncStr, EncBoxed:
		return c.decodeVarLen(bi, rows, data, dst)
	default:
		return fmt.Errorf("colenc: unknown encoding %d", c.Enc)
	}
	return nil
}

// decodeInts unpacks an EncDelta payload (see appendInts) into dst.Ints.
func (c *Col) decodeInts(bi, rows int, data []byte, dst *vec.Col) error {
	if len(data) < 10 {
		return fmt.Errorf("colenc: block %d: truncated int header", bi)
	}
	mode, w, base := data[0], int(data[1]), binary.LittleEndian.Uint64(data[2:])
	if w > 64 {
		return fmt.Errorf("colenc: block %d: int width %d over 64", bi, w)
	}
	hdr, packed := 10, rows
	switch mode {
	case modeValues:
	case modeDeltas:
		hdr, packed = 18, rows-1
	default:
		return fmt.Errorf("colenc: block %d: unknown int mode %d", bi, mode)
	}
	if packed < 0 || len(data) < hdr+packedLen(packed, w) {
		return fmt.Errorf("colenc: block %d: truncated int payload", bi)
	}
	xs := slices.Grow(dst.Ints[:0], rows)[:rows]
	if mode == modeValues {
		unpackInts(xs, data[hdr:], uint(w), base)
	} else {
		unpackInts(xs[1:], data[hdr:], uint(w), base)
		v := int64(binary.LittleEndian.Uint64(data[10:]))
		xs[0] = v
		for i, d := range xs[1:] {
			v += d
			xs[i+1] = v
		}
	}
	dst.Ints = xs
	return nil
}

// decodeCodes unpacks an EncDict payload into dst.Codes.
func (c *Col) decodeCodes(bi, rows int, data []byte, dst *vec.Col) error {
	if len(data) < 1 || data[0] > 32 {
		return fmt.Errorf("colenc: block %d: missing or invalid code width", bi)
	}
	w, data := int(data[0]), data[1:]
	if len(data) < packedLen(rows, w) {
		return fmt.Errorf("colenc: block %d: truncated code payload", bi)
	}
	codes := slices.Grow(dst.Codes[:0], rows)[:rows]
	if top := unpackCodes(codes, data, uint(w)); rows > 0 && int(top) >= len(c.Dict) {
		return fmt.Errorf("colenc: block %d: code %d outside dictionary of %d", bi, top, len(c.Dict))
	}
	dst.Codes, dst.Dict = codes, c.Dict
	return nil
}

// decodeVarLen decodes the length-prefixed rows of an EncStr or EncBoxed
// payload into dst.
func (c *Col) decodeVarLen(bi, rows int, data []byte, dst *vec.Col) error {
	pos := 0
	for i := 0; i < rows; i++ {
		u, w := binary.Uvarint(data[pos:])
		if w <= 0 {
			return fmt.Errorf("colenc: block %d: truncated varint at offset %d", bi, pos)
		}
		pos += w
		if uint64(len(data)-pos) < u {
			return fmt.Errorf("colenc: block %d: truncated %s payload", bi, c.Enc)
		}
		row := data[pos : pos+int(u)]
		pos += int(u)
		if c.Enc == EncStr {
			dst.Strs = append(dst.Strs, string(row))
			continue
		}
		v := values.Null
		if dst.Nulls == nil || !dst.Nulls[i] {
			var err error
			if v, err = bsonlite.Unmarshal(row); err != nil {
				return fmt.Errorf("colenc: block %d row %d: %w", bi, i, err)
			}
		}
		dst.Boxed = append(dst.Boxed, v)
	}
	return nil
}

// Decode materializes the whole column back into a flat vector (used
// when an encoded entry must merge with fresh hot columns).
func (c *Col) Decode() (vec.Col, error) {
	var out vec.Col
	out.Tag = c.Tag
	if c.Enc == EncDict {
		out.Tag = vec.StrDict
	}
	var blk vec.Col
	first := true
	for bi := range c.Blocks {
		if err := c.DecodeBlock(bi, &blk); err != nil {
			return vec.Col{}, err
		}
		if first {
			out = blk
			blk = vec.Col{}
			first = false
			continue
		}
		n := out.Len()
		if blk.Nulls != nil {
			out.Nulls = append(growNulls(out.Nulls, n), blk.Nulls...)
		} else if out.Nulls != nil {
			out.Nulls = append(out.Nulls, make([]bool, blk.Len())...)
		}
		out.Ints = append(out.Ints, blk.Ints...)
		out.Floats = append(out.Floats, blk.Floats...)
		out.Strs = append(out.Strs, blk.Strs...)
		out.Codes = append(out.Codes, blk.Codes...)
		out.Boxed = append(out.Boxed, blk.Boxed...)
		blk = vec.Col{}
	}
	return out, nil
}

// DecodeAll materializes every column (tier-2 → hot promotion on merge).
func (t *Table) DecodeAll() (map[string]vec.Col, error) {
	cols := make(map[string]vec.Col, len(t.Cols))
	for name, c := range t.Cols {
		col, err := c.Decode()
		if err != nil {
			return nil, fmt.Errorf("colenc: column %q: %w", name, err)
		}
		cols[name] = col
	}
	return cols, nil
}

func growNulls(m []bool, n int) []bool {
	for len(m) < n {
		m = append(m, false)
	}
	return m
}
