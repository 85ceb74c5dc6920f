package serve

import (
	"fmt"
	"strings"
	"testing"

	"vida"
	"vida/internal/core"
)

// always treats every entry's generations as current.
func always([]core.Generation) bool { return true }

func TestLRUByteBudgetEviction(t *testing.T) {
	c := newLRU(100, 1000)
	for i := 0; i < 10; i++ {
		c.put(fmt.Sprintf("k%d", i), nil, i, 300)
	}
	// 1000/300 → at most 3 entries resident.
	if n := c.ll.Len(); n > 3 {
		t.Fatalf("entries = %d, want <= 3 under the byte budget", n)
	}
	if b := c.bytesUsed(); b > 1000 {
		t.Fatalf("bytes = %d, want <= 1000", b)
	}
	// The newest entries survive.
	if _, ok := c.get("k9", always); !ok {
		t.Fatal("most recent entry evicted")
	}
	if _, ok := c.get("k0", always); ok {
		t.Fatal("oldest entry still resident past the budget")
	}
}

func TestLRUOversizedEntryRejected(t *testing.T) {
	c := newLRU(100, 1000)
	c.put("small", nil, "v", 100)
	c.put("huge", nil, "v", 5000)
	if _, ok := c.get("huge", always); ok {
		t.Fatal("entry larger than the whole budget must not be cached")
	}
	if _, ok := c.get("small", always); !ok {
		t.Fatal("oversized insert evicted resident entries")
	}
}

func TestLRUResizeOnUpdate(t *testing.T) {
	c := newLRU(100, 1000)
	c.put("k", nil, "v", 100)
	c.put("k", nil, "v2", 400)
	if b := c.bytesUsed(); b != 400 {
		t.Fatalf("bytes = %d after update, want 400", b)
	}
	c.put("k", nil, "v3", 50)
	if b := c.bytesUsed(); b != 50 {
		t.Fatalf("bytes = %d after shrink, want 50", b)
	}
}

func TestApproxResultBytesSamplesLargeResults(t *testing.T) {
	small := resultOf(rowsOfStrings(10, 100))
	large := resultOf(rowsOfStrings(10000, 100))
	sb, lb := approxResultBytes(small), approxResultBytes(large)
	if sb <= 0 || lb <= 0 {
		t.Fatalf("sizes: %d, %d", sb, lb)
	}
	// 1000× the rows should estimate roughly 1000× the bytes (sampling
	// must extrapolate, not truncate).
	ratio := float64(lb) / float64(sb)
	if ratio < 500 || ratio > 2000 {
		t.Fatalf("size ratio = %.1f, want ~1000 (sampled extrapolation)", ratio)
	}
}

func rowsOfStrings(n, width int) []vida.Value {
	out := make([]vida.Value, n)
	for i := range out {
		out[i] = vida.NewRecord(vida.Field{
			Name: "s", Val: vida.NewString(strings.Repeat("x", width)),
		})
	}
	return out
}

func resultOf(rows []vida.Value) *vida.Result {
	eng := vida.New()
	if err := eng.RegisterValues("T", rows, ""); err != nil {
		panic(err)
	}
	res, err := eng.Query("for { t <- T } yield bag t")
	if err != nil {
		panic(err)
	}
	return res
}
