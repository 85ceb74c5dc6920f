package colenc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vida/internal/values"
	"vida/internal/vec"
)

// intHeader returns the mode and width of an EncDelta block.
func intHeader(t *testing.T, b Block) (byte, int) {
	t.Helper()
	data := b.Data
	if data[0]&1 != 0 {
		data = data[(b.Rows+7)/8:]
	}
	return data[1], int(data[2])
}

// assertSameRows fails unless got and want hold equal rows, nulls
// included.
func assertSameRows(t *testing.T, name string, got, want *vec.Col) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", name, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if g, w := got.Value(i), want.Value(i); !values.Equal(g, w) {
			t.Fatalf("%s: row %d = %v, want %v", name, i, g, w)
		}
	}
}

// extremeInts returns n ints of the given shape.
func extremeInts(shape string, n int, r *rand.Rand) []int64 {
	picks := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	xs := make([]int64, n)
	for i := range xs {
		switch shape {
		case "min-max-mix":
			xs[i] = picks[r.Intn(len(picks))]
		case "full-range":
			xs[i] = int64(r.Uint64())
		case "constant-max":
			xs[i] = math.MaxInt64
		case "sequential-from-min":
			xs[i] = math.MinInt64 + int64(i)
		case "descending-wrap":
			xs[i] = math.MinInt64 + 5 - int64(i) // wraps past MinInt64 to MaxInt64
		case "small-random":
			xs[i] = r.Int63n(1000) - 500
		}
	}
	return xs
}

// TestPackedIntsRoundTrip: int blocks round-trip through every packing
// width, 0 and 64 included, at the int64 extremes where every base and
// delta subtraction wraps, with and without nulls, in short last blocks
// and in blocks decoded one by one into a reused destination.
func TestPackedIntsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	widths := map[int]bool{}
	for _, shape := range []string{"min-max-mix", "full-range", "constant-max", "sequential-from-min", "descending-wrap", "small-random"} {
		for _, n := range []int{1, 2, 63, BlockRows - 1, BlockRows, 2*BlockRows + 17} {
			for _, withNulls := range []bool{false, true} {
				name := fmt.Sprintf("%s/%d/nulls=%v", shape, n, withNulls)
				c := vec.Col{Tag: vec.Int64}
				for i, x := range extremeInts(shape, n, r) {
					if withNulls && i%5 == 1 {
						c.AppendNull()
						continue
					}
					c.AppendInt(x)
				}
				ec, err := EncodeCol(&c)
				if err != nil {
					t.Fatalf("%s: encode: %v", name, err)
				}
				for _, b := range ec.Blocks {
					_, w := intHeader(t, b)
					widths[w] = true
				}
				dec, err := ec.Decode()
				if err != nil {
					t.Fatalf("%s: decode: %v", name, err)
				}
				assertSameRows(t, name, &dec, &c)
				var blk vec.Col
				for bi := range ec.Blocks {
					if err := ec.DecodeBlock(bi, &blk); err != nil {
						t.Fatalf("%s: block %d: %v", name, bi, err)
					}
					lo := bi * BlockRows
					want := c.Slice(lo, lo+blk.Len())
					assertSameRows(t, fmt.Sprintf("%s/block %d", name, bi), &blk, &want)
				}
			}
		}
	}
	if !widths[0] || !widths[64] {
		t.Fatalf("widths seen %v: want 0 and 64 among them", widths)
	}
}

// TestSequentialIDsPackAtWidthZero: an ascending ID column is all one
// delta, so its blocks carry no per-row payload at all.
func TestSequentialIDsPackAtWidthZero(t *testing.T) {
	c := vec.Col{Tag: vec.Int64}
	for i := 0; i < 3*BlockRows; i++ {
		c.AppendInt(int64(1000 + i))
	}
	ec, err := EncodeCol(&c)
	if err != nil {
		t.Fatal(err)
	}
	for bi, b := range ec.Blocks {
		if mode, w := intHeader(t, b); mode != modeDeltas || w != 0 {
			t.Fatalf("block %d: mode %d width %d, want deltas at width 0", bi, mode, w)
		}
		if len(b.Data) != 1+2+8+8+packSlack {
			t.Fatalf("block %d holds %d bytes", bi, len(b.Data))
		}
	}
	assertRoundTrip(t, &c)
}

// TestPackedDictRoundTrip: dictionaries of one entry (codes at width 0)
// and of vec.MaxDictSize entries (the widest codes) round-trip, nulls and a
// short last block included.
func TestPackedDictRoundTrip(t *testing.T) {
	for _, size := range []int{1, 2, 40, vec.MaxDictSize} {
		for _, withNulls := range []bool{false, true} {
			nullEntry := 0
			if withNulls {
				nullEntry = 1
			}
			n := 2*vec.MaxDictSize + 300
			c := vec.Col{Tag: vec.Str}
			for i := 0; i < n; i++ {
				if withNulls && i%7 == 3 {
					c.AppendNull() // a null row's "" is an entry too
					continue
				}
				c.AppendStr(fmt.Sprintf("s%05d", (i*7919)%max(size-nullEntry, 1)))
			}
			name := fmt.Sprintf("dict %d/nulls=%v", size, withNulls)
			ec, err := EncodeCol(&c)
			if err != nil {
				t.Fatal(err)
			}
			if ec.Enc != EncDict {
				t.Fatalf("%s: encoding %s", name, ec.Enc)
			}
			dec, err := ec.Decode()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			assertSameRows(t, name, &dec, &c)
		}
	}
}

// TestAppendAcrossBlockBoundary: a tail that carries a packed column over
// a block boundary re-packs only the last partial block and decodes to the
// rows of the whole column, for ints at the extremes and dictionary codes.
func TestAppendAcrossBlockBoundary(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	xs := extremeInts("min-max-mix", BlockRows+40, r)
	ints := vec.Col{Tag: vec.Int64, Ints: xs}
	strs := vec.Col{Tag: vec.Str}
	for i := 0; i < BlockRows+40; i++ {
		strs.AppendStr(fmt.Sprintf("c%d", i%9))
	}
	for _, whole := range []vec.Col{ints, strs} {
		head := whole.Slice(0, BlockRows-10)
		tail := whole.Slice(BlockRows-10, whole.Len())
		ec, err := EncodeCol(&head)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ec.Append(&tail)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Blocks) != 2 || got.Blocks[0].Rows != BlockRows {
			t.Fatalf("%s: blocks %d", whole.Tag, len(got.Blocks))
		}
		dec, err := got.Decode()
		if err != nil {
			t.Fatal(err)
		}
		assertSameRows(t, whole.Tag.String(), &dec, &whole)
	}
}

// TestDecodeBlockRejectsMalformed: every length or range a block claims
// is checked before it is used.
func TestDecodeBlockRejectsMalformed(t *testing.T) {
	ints := vec.Col{Tag: vec.Int64}
	strs := vec.Col{Tag: vec.Str}
	for i := 0; i < 100; i++ {
		ints.AppendInt(int64(i * i))
		strs.AppendStr(fmt.Sprintf("k%d", i%6))
	}
	strs.AppendNull()
	ic, err := EncodeCol(&ints)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := EncodeCol(&strs)
	if err != nil || dc.Enc != EncDict {
		t.Fatalf("dict encode: %v", err)
	}
	with := func(c *Col, rows int, data []byte) *Col {
		cp := *c
		cp.Blocks = []Block{{Rows: rows, Data: data}}
		return &cp
	}
	edit := func(data []byte, at int, v byte) []byte {
		data = append([]byte(nil), data...)
		data[at] = v
		return data
	}
	rows, idata := ic.Blocks[0].Rows, ic.Blocks[0].Data // no null bitmap
	drows, ddata := dc.Blocks[0].Rows, dc.Blocks[0].Data
	bitmap := (drows + 7) / 8
	cases := []struct {
		name string
		c    *Col
		bi   int
	}{
		{"block out of range", ic, 1},
		{"negative block", ic, -1},
		{"rows over a block", with(ic, BlockRows+1, idata), 0},
		{"negative rows", with(ic, -1, idata), 0},
		{"empty block", with(ic, rows, nil), 0},
		{"truncated bitmap", with(dc, drows, ddata[:bitmap]), 0},
		{"truncated int header", with(ic, rows, idata[:6]), 0},
		{"int width over 64", with(ic, rows, edit(idata, 2, 65)), 0},
		{"unknown int mode", with(ic, rows, edit(idata, 1, 9)), 0},
		{"truncated int payload", with(ic, rows, idata[:len(idata)-packSlack-1]), 0},
		{"more rows than the payload", with(ic, rows+64, idata), 0},
		{"code width over 32", with(dc, drows, edit(ddata, 1+bitmap, 33)), 0},
		{"truncated code payload", with(dc, drows, ddata[:len(ddata)-packSlack-1]), 0},
		{"code outside dictionary", &Col{Tag: vec.Str, Enc: EncDict, Dict: dc.Dict[:3], Blocks: dc.Blocks}, 0},
	}
	for _, tc := range cases {
		var dst vec.Col
		if err := tc.c.DecodeBlock(tc.bi, &dst); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
}

// FuzzDecodeBlock: arbitrary block bytes and row counts, decoded under
// every encoding, either decode to exactly the claimed rows (dictionary
// codes inside the dictionary) or return an error — never panic.
func FuzzDecodeBlock(f *testing.F) {
	// Short seed blocks keep the minimization of each new input quick.
	const n = 40
	r := rand.New(rand.NewSource(1))
	ints := vec.Col{Tag: vec.Int64, Ints: extremeInts("min-max-mix", n, r)}
	seq := vec.Col{Tag: vec.Int64}
	floats := vec.Col{Tag: vec.Float64}
	dict := vec.Col{Tag: vec.Str}
	strs := vec.Col{Tag: vec.Str}
	boxed := vec.Col{Tag: vec.Boxed}
	for i := 0; i < n; i++ {
		seq.AppendInt(int64(i))
		floats.AppendFloat(float64(i) / 3)
		dict.AppendStr(fmt.Sprintf("d%d", i%11))
		strs.AppendStr(fmt.Sprintf("unique-%d", i))
		boxed.AppendValue(values.NewRecord(values.Field{Name: "i", Val: values.NewInt(int64(i))}))
		if i%7 == 0 {
			seq.AppendNull()
			dict.AppendNull()
		}
	}
	for _, c := range []*vec.Col{&ints, &seq, &floats, &dict, &strs, &boxed} {
		ec, err := EncodeCol(c)
		if err != nil {
			f.Fatal(err)
		}
		for _, b := range ec.Blocks {
			f.Add(uint16(len(ec.Dict)), b.Rows, b.Data)
		}
	}
	names := make([]string, vec.MaxDictSize)
	for i := range names {
		names[i] = fmt.Sprintf("n%04d", i)
	}
	f.Fuzz(func(t *testing.T, dictLen uint16, rows int, data []byte) {
		tags := map[Encoding]vec.Tag{EncDelta: vec.Int64, EncFloat: vec.Float64, EncDict: vec.Str, EncStr: vec.Str, EncBoxed: vec.Boxed}
		for enc, tag := range tags {
			c := &Col{Tag: tag, Enc: enc, Blocks: []Block{{Rows: rows, Data: data}}}
			if enc == EncDict {
				c.Dict = names[:int(dictLen)%(vec.MaxDictSize+1)]
			}
			var dst vec.Col
			if err := c.DecodeBlock(0, &dst); err != nil {
				continue
			}
			if dst.Len() != rows || (dst.Nulls != nil && len(dst.Nulls) != rows) {
				t.Fatalf("%s: decoded %d rows (%d null flags), block claims %d", enc, dst.Len(), len(dst.Nulls), rows)
			}
			for _, k := range dst.Codes {
				if int(k) >= len(c.Dict) {
					t.Fatalf("code %d outside dictionary of %d", k, len(c.Dict))
				}
			}
		}
	})
}
