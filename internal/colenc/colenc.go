package colenc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sort"

	"vida/internal/bsonlite"
	"vida/internal/values"
	"vida/internal/vec"
)

// BlockRows is the fixed row count per encoded block (the last block of
// a column may be shorter). 4096 keeps a decoded block within a couple
// of pipeline batches while amortizing per-block overhead.
const BlockRows = 4096

// MaxDictSize caps the dictionary cardinality: columns with more
// distinct strings encode as raw length-prefixed strings instead.
const MaxDictSize = 4096

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

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

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
		if out.Dict, codes = buildDict(c, out.N); out.Dict != nil {
			out.Enc = EncDict
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
		codes = make([]uint32, len(col.Strs))
		for i, s := range col.Strs {
			k := sort.SearchStrings(c.Dict, s)
			if k == len(c.Dict) || c.Dict[k] != s {
				all, err := c.Decode()
				if err != nil {
					return nil, err
				}
				whole := joinCols(&all, tail)
				return EncodeCol(&whole)
			}
			codes[i] = uint32(k)
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

// buildDict returns the sorted dictionary and per-row codes of a string
// column, or nil when its cardinality disqualifies dictionary encoding.
func buildDict(c *vec.Col, n int) ([]string, []uint32) {
	if c.Tag == vec.StrDict {
		// Already dictionary-shaped: reuse the sorted dictionary as-is.
		if len(c.Dict) <= MaxDictSize && len(c.Dict)*2 <= n {
			return c.Dict, c.Codes
		}
		return nil, nil
	}
	uniq := make(map[string]struct{}, 64)
	for _, s := range c.Strs {
		uniq[s] = struct{}{}
		if len(uniq) > MaxDictSize {
			return nil, nil
		}
	}
	if len(uniq)*2 > n {
		return nil, nil
	}
	dict := make([]string, 0, len(uniq))
	for s := range uniq {
		dict = append(dict, s)
	}
	sort.Strings(dict)
	idx := make(map[string]uint32, len(dict))
	for i, s := range dict {
		idx[s] = uint32(i)
	}
	codes := make([]uint32, n)
	for i, s := range c.Strs {
		codes[i] = idx[s]
	}
	return dict, codes
}

// encodeBlocks cuts c into BlockRows runs under encoding enc (codes
// carries the per-row dictionary codes of EncDict), prepending the flags
// byte + null bitmap and checksumming each block. An empty column still
// yields one empty block.
func encodeBlocks(enc Encoding, c *vec.Col, codes []uint32) ([]Block, error) {
	n := c.Len()
	var blocks []Block
	for lo := 0; lo < n || lo == 0; lo += BlockRows {
		hi := min(lo+BlockRows, n)
		rows := hi - lo
		buf := make([]byte, 0, rows+1)
		if c.Nulls != nil {
			buf = append(buf, 1)
			bitmap := make([]byte, (rows+7)/8)
			for i := lo; i < hi; i++ {
				if c.Nulls[i] {
					bitmap[(i-lo)/8] |= 1 << uint((i-lo)%8)
				}
			}
			buf = append(buf, bitmap...)
		} else {
			buf = append(buf, 0)
		}
		switch enc {
		case EncDelta:
			prev := int64(0)
			for i := lo; i < hi; i++ {
				v := int64(0)
				if c.Nulls == nil || !c.Nulls[i] {
					v = c.Ints[i]
				}
				if i == lo {
					buf = binary.AppendUvarint(buf, zigzag(v))
				} else {
					buf = binary.AppendUvarint(buf, zigzag(v-prev))
				}
				prev = v
			}
		case EncFloat:
			for i := lo; i < hi; i++ {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Floats[i]))
			}
		case EncDict:
			for i := lo; i < hi; i++ {
				buf = binary.AppendUvarint(buf, uint64(codes[i]))
			}
		case EncStr:
			for i := lo; i < hi; i++ {
				s := c.StrAt(i)
				buf = binary.AppendUvarint(buf, uint64(len(s)))
				buf = append(buf, s...)
			}
		case EncBoxed:
			for i := lo; i < hi; i++ {
				doc, err := bsonlite.Marshal(c.Boxed[i])
				if err != nil {
					return nil, err
				}
				buf = binary.AppendUvarint(buf, uint64(len(doc)))
				buf = append(buf, doc...)
			}
		}
		blocks = append(blocks, Block{Rows: rows, Data: buf, CRC: crc32.Checksum(buf, castagnoli)})
	}
	return blocks, nil
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
// largest) block.
func (c *Col) DecodeBlock(bi int, dst *vec.Col) error {
	if bi < 0 || bi >= len(c.Blocks) {
		return fmt.Errorf("colenc: block %d out of range [0,%d)", bi, len(c.Blocks))
	}
	b := &c.Blocks[bi]
	data := b.Data
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
	var nulls []byte
	if flags&1 != 0 {
		nb := (b.Rows + 7) / 8
		if len(data) < nb {
			return fmt.Errorf("colenc: block %d: truncated null bitmap", bi)
		}
		nulls, data = data[:nb], data[nb:]
		mask := slices.Grow(spare, b.Rows)[:b.Rows]
		for i := 0; i < b.Rows; i++ {
			mask[i] = nulls[i/8]&(1<<uint(i%8)) != 0
		}
		dst.Nulls = mask
	}
	pos := 0
	uv := func() (uint64, error) {
		v, w := binary.Uvarint(data[pos:])
		if w <= 0 {
			return 0, fmt.Errorf("colenc: block %d: truncated varint at offset %d", bi, pos)
		}
		pos += w
		return v, nil
	}
	switch c.Enc {
	case EncDelta:
		prev := int64(0)
		for i := 0; i < b.Rows; i++ {
			u, err := uv()
			if err != nil {
				return err
			}
			v := unzigzag(u)
			if i > 0 {
				v += prev
			}
			prev = v
			dst.Ints = append(dst.Ints, v)
		}
	case EncFloat:
		if len(data) < b.Rows*8 {
			return fmt.Errorf("colenc: block %d: truncated float payload", bi)
		}
		for i := 0; i < b.Rows; i++ {
			dst.Floats = append(dst.Floats, math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:])))
		}
	case EncDict:
		for i := 0; i < b.Rows; i++ {
			u, err := uv()
			if err != nil {
				return err
			}
			if u >= uint64(len(c.Dict)) {
				return fmt.Errorf("colenc: block %d: code %d outside dictionary of %d", bi, u, len(c.Dict))
			}
			dst.Codes = append(dst.Codes, uint32(u))
		}
		dst.Dict = c.Dict
	case EncStr:
		for i := 0; i < b.Rows; i++ {
			u, err := uv()
			if err != nil {
				return err
			}
			if uint64(len(data)-pos) < u {
				return fmt.Errorf("colenc: block %d: truncated string payload", bi)
			}
			dst.Strs = append(dst.Strs, string(data[pos:pos+int(u)]))
			pos += int(u)
		}
	case EncBoxed:
		for i := 0; i < b.Rows; i++ {
			u, err := uv()
			if err != nil {
				return err
			}
			if uint64(len(data)-pos) < u {
				return fmt.Errorf("colenc: block %d: truncated document payload", bi)
			}
			var v values.Value
			if dst.Nulls != nil && dst.Nulls[i] {
				v = values.Null
			} else {
				var derr error
				v, derr = bsonlite.Unmarshal(data[pos : pos+int(u)])
				if derr != nil {
					return fmt.Errorf("colenc: block %d row %d: %w", bi, i, derr)
				}
			}
			pos += int(u)
			dst.Boxed = append(dst.Boxed, v)
		}
	default:
		return fmt.Errorf("colenc: unknown encoding %d", c.Enc)
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
