package colenc

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vida/internal/values"
	"vida/internal/vec"
)

// decodeFull round-trips a column through Decode and compares row by row
// against the original via the boxing boundary.
func assertRoundTrip(t *testing.T, orig *vec.Col) {
	t.Helper()
	ec, err := EncodeCol(orig)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := ec.Decode()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.Len() != orig.Len() {
		t.Fatalf("decoded %d rows, want %d", dec.Len(), orig.Len())
	}
	for i := 0; i < orig.Len(); i++ {
		if !values.Equal(dec.Value(i), orig.Value(i)) {
			t.Fatalf("row %d: got %v want %v", i, dec.Value(i), orig.Value(i))
		}
	}
}

func TestIntDeltaRoundTrip(t *testing.T) {
	c := vec.Col{Tag: vec.Int64}
	for i := 0; i < 3*BlockRows+17; i++ {
		c.AppendInt(int64(i*3 - 5000))
	}
	c.AppendNull()
	c.AppendInt(-1 << 40)
	assertRoundTrip(t, &c)
}

func TestFloatRoundTrip(t *testing.T) {
	c := vec.Col{Tag: vec.Float64}
	for i := 0; i < BlockRows+5; i++ {
		c.AppendFloat(float64(i) * 0.25)
	}
	c.AppendNull()
	assertRoundTrip(t, &c)
}

func TestDictRoundTrip(t *testing.T) {
	c := vec.Col{Tag: vec.Str}
	cities := []string{"geneva", "lausanne", "zurich", "bern"}
	for i := 0; i < 2*BlockRows; i++ {
		c.AppendStr(cities[i%len(cities)])
	}
	ec, err := EncodeCol(&c)
	if err != nil {
		t.Fatal(err)
	}
	if ec.Enc != EncDict {
		t.Fatalf("encoding = %s, want dict", ec.Enc)
	}
	if len(ec.Dict) != len(cities) {
		t.Fatalf("dict size = %d, want %d", len(ec.Dict), len(cities))
	}
	for i := 1; i < len(ec.Dict); i++ {
		if ec.Dict[i-1] >= ec.Dict[i] {
			t.Fatalf("dictionary not sorted: %v", ec.Dict)
		}
	}
	var blk vec.Col
	if err := ec.DecodeBlock(0, &blk); err != nil {
		t.Fatal(err)
	}
	if blk.Tag != vec.StrDict {
		t.Fatalf("decoded tag = %s, want strdict", blk.Tag)
	}
	assertRoundTrip(t, &c)
}

func TestHighCardinalityStaysRawStr(t *testing.T) {
	c := vec.Col{Tag: vec.Str}
	for i := 0; i < 1000; i++ {
		c.AppendStr(fmt.Sprintf("unique-%d", i))
	}
	ec, err := EncodeCol(&c)
	if err != nil {
		t.Fatal(err)
	}
	if ec.Enc != EncStr {
		t.Fatalf("encoding = %s, want str", ec.Enc)
	}
	assertRoundTrip(t, &c)
}

func TestBoxedRoundTrip(t *testing.T) {
	c := vec.Col{Tag: vec.Boxed}
	c.AppendValue(values.NewRecord(values.Field{Name: "x", Val: values.NewInt(1)}))
	c.AppendValue(values.Null)
	c.AppendValue(values.NewString("plain"))
	c.AppendValue(values.NewFloat(2.5))
	assertRoundTrip(t, &c)
}

func TestEncodedSmallerThanFlat(t *testing.T) {
	// The headline compression claim on representative demo data:
	// sequential ints and low-cardinality strings must encode at least
	// 5x smaller than their flat vector footprint.
	n := 100_000
	ints := vec.Col{Tag: vec.Int64}
	strs := vec.Col{Tag: vec.Str}
	conds := []string{"healthy", "mild", "severe", "chronic", "acute"}
	for i := 0; i < n; i++ {
		ints.AppendInt(int64(i))
		strs.AppendStr(conds[i%len(conds)])
	}
	for _, c := range []*vec.Col{&ints, &strs} {
		ec, err := EncodeCol(c)
		if err != nil {
			t.Fatal(err)
		}
		flat, enc := c.SizeBytes(), ec.SizeBytes()
		if enc*5 > flat {
			t.Fatalf("tag %s: encoded %dB vs flat %dB — less than 5x", c.Tag, enc, flat)
		}
	}
}

func TestSpillRoundTrip(t *testing.T) {
	n := BlockRows + 100
	cols := map[string]vec.Col{}
	ic := vec.Col{Tag: vec.Int64}
	sc := vec.Col{Tag: vec.Str}
	for i := 0; i < n; i++ {
		ic.AppendInt(int64(i * 7))
		sc.AppendStr([]string{"a", "b", "c"}[i%3])
	}
	cols["id"], cols["grade"] = ic, sc
	tab, err := EncodeColumns(cols, n)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x.vspill")
	meta := SpillMeta{Dataset: "Patients", Generation: "gen-1"}
	if err := WriteSpillFile(path, meta, tab); err != nil {
		t.Fatal(err)
	}
	meta2, tab2, err := ReadSpillFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta2 != meta {
		t.Fatalf("meta = %+v, want %+v", meta2, meta)
	}
	if tab2.N != n || len(tab2.Cols) != 2 {
		t.Fatalf("table shape: n=%d cols=%d", tab2.N, len(tab2.Cols))
	}
	for name := range cols {
		orig := cols[name]
		dec, err := tab2.Cols[name].Decode()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if !values.Equal(dec.Value(i), orig.Value(i)) {
				t.Fatalf("%s row %d: got %v want %v", name, i, dec.Value(i), orig.Value(i))
			}
		}
	}
}

func TestSpillCorruptionDetected(t *testing.T) {
	n := 500
	c := vec.Col{Tag: vec.Int64}
	for i := 0; i < n; i++ {
		c.AppendInt(int64(i))
	}
	tab, err := EncodeColumns(map[string]vec.Col{"id": c}, n)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "x.vspill")
	if err := WriteSpillFile(path, SpillMeta{Dataset: "D", Generation: "g"}, tab); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bad magic", func(b []byte) []byte { b = append([]byte(nil), b...); b[0] ^= 0xff; return b }},
		{"flipped header bit", func(b []byte) []byte { b = append([]byte(nil), b...); b[12] ^= 0x01; return b }},
		{"flipped body bit", func(b []byte) []byte { b = append([]byte(nil), b...); b[len(b)-3] ^= 0x40; return b }},
		{"empty", func(b []byte) []byte { return nil }},
	}
	// A well-formed file whose first block is short: every checksum holds,
	// but a scan would look for row BlockRows-1 in the wrong block.
	short, err := EncodeCol(&vec.Col{Tag: vec.Int64, Ints: make([]int64, 10)})
	if err != nil {
		t.Fatal(err)
	}
	short.Blocks = append(short.Blocks, short.Blocks[0])
	short.N = 20
	geometry := filepath.Join(dir, "geometry.vspill")
	if err := WriteSpillFile(geometry, SpillMeta{Dataset: "D", Generation: "g"}, &Table{N: 20, Cols: map[string]*Col{"id": short}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadSpillFile(geometry); err == nil {
		t.Fatal("a short interior block read back without error")
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(dir, "bad.vspill")
			if err := os.WriteFile(p, tc.mutate(good), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := ReadSpillFile(p); err == nil {
				t.Fatal("corrupted spill file read back without error")
			}
		})
	}
}
