package colenc

import (
	"fmt"
	"testing"

	"vida/internal/values"
	"vida/internal/vec"
)

// genCol builds rows [lo,hi) of a deterministic column of the given kind;
// every 97th row is null when withNulls is set.
func genCol(kind string, lo, hi int, withNulls bool) vec.Col {
	var c vec.Col
	switch kind {
	case "int":
		c.Tag = vec.Int64
	case "float":
		c.Tag = vec.Float64
	case "dict", "dict-new", "str":
		c.Tag = vec.Str
	default:
		c.Tag = vec.Boxed
	}
	for i := lo; i < hi; i++ {
		if withNulls && i%97 == 0 {
			c.AppendNull()
			continue
		}
		switch kind {
		case "int":
			c.AppendInt(int64(i*7 - 3000))
		case "float":
			c.AppendFloat(float64(i) / 8)
		case "dict":
			c.AppendStr(fmt.Sprintf("g%02d", i%40))
		case "dict-new":
			// The tail rows past 2*BlockRows bring strings the dictionary
			// of the first rows has never seen.
			c.AppendStr(fmt.Sprintf("g%02d", i%40+i/(2*BlockRows)*40))
		case "str":
			c.AppendStr(fmt.Sprintf("unique-%d", i))
		default:
			c.AppendValue(values.NewBool(i%3 == 0))
		}
	}
	return c
}

// TestAppendEqualsEncodeOfWhole: appending a tail to an encoded column
// decodes to the same rows as encoding the whole column at once, for
// every encoding, with and without nulls, and for tails that start on,
// before and after a block boundary — and leaves the original column as
// it was.
func TestAppendEqualsEncodeOfWhole(t *testing.T) {
	for _, kind := range []string{"int", "float", "dict", "dict-new", "str", "boxed"} {
		for _, withNulls := range []bool{false, true} {
			for _, split := range []int{0, 1, BlockRows - 1, BlockRows, 2*BlockRows + 100} {
				for _, add := range []int{0, 1, 300, BlockRows + 3} {
					name := fmt.Sprintf("%s/nulls=%v/%d+%d", kind, withNulls, split, add)
					head := genCol(kind, 0, split, withNulls)
					tail := genCol(kind, split, split+add, withNulls)
					whole := genCol(kind, 0, split+add, withNulls)
					if split == 0 && head.Tag == vec.Boxed {
						continue // an empty builder column has no representation to extend
					}
					enc, err := EncodeCol(&head)
					if err != nil {
						t.Fatalf("%s: encode: %v", name, err)
					}
					blocksBefore := len(enc.Blocks)
					got, err := enc.Append(&tail)
					if err != nil {
						t.Fatalf("%s: append: %v", name, err)
					}
					if got.N != split+add {
						t.Fatalf("%s: N = %d, want %d", name, got.N, split+add)
					}
					dec, err := got.Decode()
					if err != nil {
						t.Fatalf("%s: decode: %v", name, err)
					}
					if dec.Len() != whole.Len() {
						t.Fatalf("%s: decoded %d rows, want %d", name, dec.Len(), whole.Len())
					}
					for i := 0; i < whole.Len(); i++ {
						if !values.Equal(dec.Value(i), whole.Value(i)) {
							t.Fatalf("%s: row %d = %v, want %v", name, i, dec.Value(i), whole.Value(i))
						}
					}
					for bi, b := range got.Blocks[:len(got.Blocks)-1] {
						if b.Rows != BlockRows {
							t.Fatalf("%s: interior block %d has %d rows", name, bi, b.Rows)
						}
					}
					// The column appended to still decodes to its own rows.
					if len(enc.Blocks) != blocksBefore || enc.N != split {
						t.Fatalf("%s: append changed the original (blocks %d→%d, N %d)", name, blocksBefore, len(enc.Blocks), enc.N)
					}
					if old, err := enc.Decode(); err != nil || old.Len() != split {
						t.Fatalf("%s: original no longer decodes: %d rows, %v", name, old.Len(), err)
					}
				}
			}
		}
	}
}

// TestAppendKeepsDictionary: a tail drawn from the column's dictionary
// reuses it (and every full block, by identity); a string outside it
// rebuilds a sorted dictionary.
func TestAppendKeepsDictionary(t *testing.T) {
	head := genCol("dict", 0, BlockRows+10, false)
	enc, err := EncodeCol(&head)
	if err != nil || enc.Enc != EncDict {
		t.Fatalf("encode: %v (enc %v)", err, enc.Enc)
	}
	tail := genCol("dict", BlockRows+10, BlockRows+20, false)
	got, err := enc.Append(&tail)
	if err != nil {
		t.Fatal(err)
	}
	if got.Enc != EncDict || &got.Dict[0] != &enc.Dict[0] {
		t.Fatal("a tail inside the dictionary must reuse it")
	}
	if &got.Blocks[0].Data[0] != &enc.Blocks[0].Data[0] {
		t.Fatal("full blocks must be shared, not re-encoded")
	}
	novel := vec.Col{Tag: vec.Str, Strs: []string{"aaa-first-in-sort-order"}}
	got, err = enc.Append(&novel)
	if err != nil {
		t.Fatal(err)
	}
	if got.Enc != EncDict || got.Dict[0] != "aaa-first-in-sort-order" {
		t.Fatalf("new string: enc %v, dict[0] %q", got.Enc, got.Dict[0])
	}
	for i := 1; i < len(got.Dict); i++ {
		if got.Dict[i-1] >= got.Dict[i] {
			t.Fatalf("dictionary not sorted: %v", got.Dict)
		}
	}
	if _, err := enc.Append(&vec.Col{Tag: vec.Int64, Ints: []int64{1}}); err == nil {
		t.Fatal("an int tail on a string column must fail")
	}
}
