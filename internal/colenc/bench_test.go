package colenc

import (
	"fmt"
	"math/rand"
	"testing"

	"vida/internal/vec"
)

// BenchmarkDecodeBlock decodes the blocks of one column after another
// into a reused destination, as an encoded scan does, and reports the
// cost per decoded row: sequential IDs, random ints, floats and
// dictionary codes.
func BenchmarkDecodeBlock(b *testing.B) {
	const n = 16 * BlockRows
	r := rand.New(rand.NewSource(42))
	seq := vec.Col{Tag: vec.Int64}
	random := vec.Col{Tag: vec.Int64}
	floats := vec.Col{Tag: vec.Float64}
	dict := vec.Col{Tag: vec.Str}
	for i := 0; i < n; i++ {
		seq.AppendInt(int64(i + 1))
		random.AppendInt(r.Int63n(1_000_000))
		floats.AppendFloat(r.Float64() * 1000)
		dict.AppendStr(fmt.Sprintf("city-%02d", r.Intn(40)))
	}
	for _, bc := range []struct {
		name string
		col  *vec.Col
	}{
		{"delta-seq", &seq},
		{"delta-random", &random},
		{"float", &floats},
		{"dict", &dict},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ec, err := EncodeCol(bc.col)
			if err != nil {
				b.Fatal(err)
			}
			var dst vec.Col
			rows := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bi := i % len(ec.Blocks)
				if err := ec.DecodeBlock(bi, &dst); err != nil {
					b.Fatal(err)
				}
				rows += ec.Blocks[bi].Rows
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
		})
	}
}
