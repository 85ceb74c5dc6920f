package rawfile

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vida/internal/faultinject"
	"vida/internal/vec"
)

// file is a file under test whose every write moves its mtime forward by
// a second (filesystem mtime granularity can be coarser than the test).
type file struct {
	t    *testing.T
	path string
	at   time.Time
}

func newFile(t *testing.T, content string) *file {
	f := &file{t: t, path: filepath.Join(t.TempDir(), "data"), at: time.Now().Add(-time.Hour).Truncate(time.Second)}
	f.put(content)
	return f
}

// put replaces the file atomically, as a writer that builds a new version
// beside it would.
func (f *file) put(content string) {
	f.t.Helper()
	f.at = f.at.Add(time.Second)
	tmp := f.path + ".next"
	if err := os.WriteFile(tmp, []byte(content), 0o644); err != nil {
		f.t.Fatal(err)
	}
	if err := os.Chtimes(tmp, f.at, f.at); err != nil {
		f.t.Fatal(err)
	}
	if err := os.Rename(tmp, f.path); err != nil {
		f.t.Fatal(err)
	}
}

func (f *file) load() *Generation {
	f.t.Helper()
	g, err := Load(f.path)
	if err != nil {
		f.t.Fatal(err)
	}
	return g
}

// next calls g.Next and holds it to the file on disk: the generation it
// returns has the file's bytes, and is g exactly when nothing changed.
func (f *file) next(g *Generation, want Kind) (*Generation, Change) {
	f.t.Helper()
	next, ch, err := g.Next()
	if err != nil || ch.Kind != want {
		f.t.Fatalf("Next = %+v, %v; want kind %d", ch, err, want)
	}
	if (ch.Kind == Unchanged) != (next == g) {
		f.t.Fatalf("Next = %+v with successor %p of %p", ch, next, g)
	}
	disk, err := os.ReadFile(f.path)
	if err != nil {
		f.t.Fatal(err)
	}
	if string(next.Bytes()) != string(disk) {
		f.t.Fatalf("successor holds %q, the file %q", next.Bytes(), disk)
	}
	return next, ch
}

func lines(from, n int) string {
	var sb strings.Builder
	for i := from; i < from+n; i++ {
		fmt.Fprintf(&sb, "%d,row %d\n", i, i)
	}
	return sb.String()
}

// TestLoadPairsBytesWithTheirMtime: a file replaced by rename while Load
// or a replacing Next reads it is read whole from the handle opened first,
// with that handle's mtime. The new file's mtime over the old file's bytes
// would make every later Next report Unchanged.
func TestLoadPairsBytesWithTheirMtime(t *testing.T) {
	defer faultinject.Reset()
	f := newFile(t, "a1\nb\n")
	// putWhileLoading replaces the file from inside the next Load, after
	// it opened the file and before it read it.
	putWhileLoading := func(content string) {
		var fired atomic.Bool
		faultinject.Set(faultinject.FileLoad, func() error {
			if fired.CompareAndSwap(false, true) {
				f.put(content)
			}
			return nil
		})
	}
	putWhileLoading("a2\nb\n")
	g := f.load()
	if got := string(g.Bytes()); got != "a1\nb\n" {
		t.Fatalf("Load read %q, want the file it opened", got)
	}
	// The loaded mtime is the opened file's, so the rename is noticed.
	g, ch := f.next(g, Replaced)
	if string(g.Bytes()) != "a2\nb\n" {
		t.Fatalf("Next after a rename during Load = %+v reading %q", ch, g.Bytes())
	}
	// The same race in the replace path of Next.
	f.put("z3\nb\nc\n")
	putWhileLoading("z4\nb\nc\n")
	for _, want := range []string{"z3\nb\nc\n", "z4\nb\nc\n"} {
		next, ch, err := g.Next()
		if err != nil || ch.Kind != Replaced || string(next.Bytes()) != want {
			t.Fatalf("Next = %+v, %v; want Replaced reading %q", ch, err, want)
		}
		g = next
	}
	f.next(g, Unchanged)
}

// TestSuccessorsOfOneGeneration: two successors derived from one
// generation by two different tails — the file grew, was cut back to that
// generation and grew otherwise — each hold their own bytes, and so does
// the generation they came from. The first successor took the
// generation's spare capacity, the second copied, and a successor of the
// first extends further into the storage the generation shares.
func TestSuccessorsOfOneGeneration(t *testing.T) {
	base := lines(0, 2000)
	f := newFile(t, base)
	g := f.load()
	// A first append reallocates with headroom: g is then a generation
	// with spare capacity to hand out.
	base += lines(2000, 1)
	f.put(base)
	g, ch := f.next(g, Appended)
	if ch.TailBytes != int64(len(lines(2000, 1))) {
		t.Fatalf("first append = %+v", ch)
	}
	if slack := cap(g.Bytes()) - len(g.Bytes()); slack == 0 || slack > vec.Spare(len(g.Bytes())) {
		t.Fatalf("an appended generation keeps %d spare, want 1..%d", slack, vec.Spare(len(g.Bytes())))
	}
	derive := func(from *Generation, content string) *Generation {
		t.Helper()
		f.put(content)
		next, _ := f.next(from, Appended)
		return next
	}
	tailA, tailB, tailA2 := lines(2001, 2), lines(5000, 1), lines(2003, 1)
	a := derive(g, base+tailA)
	b := derive(g, base+tailB)
	a2 := derive(a, base+tailA+tailA2)
	at := func(x *Generation) *byte { return &x.Bytes()[0] }
	switch {
	case at(a) != at(g):
		t.Fatal("the first successor did not extend into its predecessor's spare capacity")
	case at(b) == at(g):
		t.Fatal("a second successor of one generation shares the storage the first owns")
	case at(a2) != at(g):
		t.Fatal("the first successor's successor did not extend into the spare capacity it inherited")
	}
	for _, x := range []struct {
		g    *Generation
		want string
	}{{g, base}, {a, base + tailA}, {b, base + tailB}, {a2, base + tailA + tailA2}} {
		if string(x.g.Bytes()) != x.want {
			t.Fatalf("a generation of %d bytes holds other bytes than it read", len(x.want))
		}
	}
}

// TestGenerationExtendedOverTail: the key after an append equals the key
// of a generation loaded fresh from the grown file, whether or not the
// key had been asked for before the append — and when it had, the
// successor carries it without hashing the file again.
func TestGenerationExtendedOverTail(t *testing.T) {
	for _, askedBefore := range []bool{true, false} {
		f := newFile(t, lines(0, 500))
		g := f.load()
		var before string
		if askedBefore {
			before = g.Key()
		}
		f.put(lines(0, 502))
		g, _ = f.next(g, Appended)
		if g.crcOK != askedBefore {
			t.Fatalf("asked before = %v, checksum carried over = %v", askedBefore, g.crcOK)
		}
		if got, want := g.Key(), f.load().Key(); got != want || got == before {
			t.Fatalf("asked before = %v: key %q, fresh load %q, previous %q", askedBefore, got, want, before)
		}
	}
}

// TestGenerationTracksContent: identical bytes at another path and mtime
// share the key — what lets a regenerated dataset rehydrate — and changed
// bytes change it, on the successor only.
func TestGenerationTracksContent(t *testing.T) {
	f := newFile(t, lines(0, 3))
	g := f.load()
	k1 := g.Key()
	if k1 == "" {
		t.Fatal("empty key")
	}
	if k := newFile(t, lines(0, 3)).load().Key(); k != k1 {
		t.Fatalf("same content, different keys: %q vs %q", k1, k)
	}
	for _, c := range []struct {
		content string
		kind    Kind
	}{{lines(0, 4), Appended}, {lines(1, 4), Replaced}, {lines(1, 2), Replaced}} {
		prev := g.Key()
		f.put(c.content)
		next, _ := f.next(g, c.kind)
		if g.Key() != prev || next.Key() == prev {
			t.Fatalf("after a content change: key %q, successor %q, was %q", g.Key(), next.Key(), prev)
		}
		g = next
	}
}

// TestGenerationNextLadder names the rung each change that is not an append fails
// on, and a settled file returns the receiver.
func TestGenerationNextLadder(t *testing.T) {
	for _, c := range []struct{ name, start, now, reason string }{
		{"truncated", "ab\ncd\n", "ab\n", "did not grow"},
		{"same size", "ab\ncd\n", "ab\nce\n", "did not grow"},
		{"grew, prefix rewritten", "ab\ncd\n", "ab\nce\nef\n", "prefix differs"},
		{"grew, last byte rewritten", "ab\ncd\n", "ab\ncdx\n", "prefix differs"},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := newFile(t, c.start)
			g := f.load()
			f.put(c.now)
			g, ch := f.next(g, Replaced)
			if !strings.Contains(ch.Reason, c.reason) {
				t.Fatalf("Next = %+v, want Replaced because %q", ch, c.reason)
			}
			f.next(g, Unchanged)
		})
	}
}

// putAt replaces the file like put, but with the mtime at given.
func (f *file) putAt(content string, at time.Time) {
	f.t.Helper()
	f.put(content)
	if err := os.Chtimes(f.path, at, at); err != nil {
		f.t.Fatal(err)
	}
}

// TestLoadSharesKnownGeneration: a known generation of the path with the
// file's size and mtime is what Load returns, not a copy read again; one
// of another path, size or mtime is passed over, whatever its bytes.
func TestLoadSharesKnownGeneration(t *testing.T) {
	f := newFile(t, lines(0, 3))
	g := f.load()
	if k, err := Load(f.path); err != nil || k == g {
		t.Fatalf("Load without known = %p, %v; want a read of its own", k, err)
	}
	other := newFile(t, lines(0, 3))
	other.putAt(lines(0, 3), g.Mtime())
	elsewhere := other.load()
	for _, known := range [][]*Generation{{g}, {elsewhere, g}, {g, g}} {
		if k, err := Load(f.path, known...); err != nil || k != g {
			t.Fatalf("Load(%d known) = %p, %v; want the known generation %p", len(known), k, err, g)
		}
	}
	if k, err := Load(f.path, elsewhere); err != nil || k == elsewhere {
		t.Fatalf("Load shared a generation of another path: %v", err)
	}
	for _, c := range []struct {
		name, content string
		at            time.Time
	}{
		{"another mtime, same bytes", lines(0, 3), g.Mtime().Add(time.Second)},
		{"another size, same mtime", lines(0, 4), g.Mtime()},
	} {
		f.putAt(c.content, c.at)
		k, err := Load(f.path, g)
		if err != nil || k == g || string(k.Bytes()) != c.content {
			t.Fatalf("%s: Load = %p holding %q, %v; want a read of the file", c.name, k, k.Bytes(), err)
		}
	}
}

// TestLoadKnownMatchesTheOpenedHandle: a rename over the path while a
// second name loads it (the FileLoad pause, after the open) leaves the
// load describing the file it opened. Here the name opened a newer
// version; the rename then puts back a file with the first name's size
// and mtime, which must not make the load share that name's generation
// over the bytes it opened.
func TestLoadKnownMatchesTheOpenedHandle(t *testing.T) {
	defer faultinject.Reset()
	f := newFile(t, "a1\nb\n")
	first := f.load()
	f.put("a2\nb\nc\n")
	var fired atomic.Bool
	faultinject.Set(faultinject.FileLoad, func() error {
		if fired.CompareAndSwap(false, true) {
			f.putAt("a1\nb\n", first.Mtime())
		}
		return nil
	})
	second, err := Load(f.path, first)
	if err != nil || second == first || string(second.Bytes()) != "a2\nb\nc\n" {
		t.Fatalf("Load during a rename = %p holding %q, %v; want the opened file's bytes", second, second.Bytes(), err)
	}
	// The file now matches the first name's generation: the second name's
	// Next adopts it as the replacement it is.
	next, ch, err := second.Next(first)
	if err != nil || next != first || ch.Kind != Replaced {
		t.Fatalf("Next = %+v, %v, adopted %v; want Replaced by the known generation", ch, err, next == first)
	}
}

// TestNextAdoptsKnownSuccessor: a known generation that describes the
// file is the successor without a read. It is an append when its bytes
// extend the receiver's — sharing its storage or equal over its length —
// and a replacement otherwise.
func TestNextAdoptsKnownSuccessor(t *testing.T) {
	base := lines(0, 200)
	f := newFile(t, base)
	g := f.load()
	base += lines(200, 1)
	f.put(base)
	g, _ = f.next(g, Appended) // g now has spare capacity to hand out
	adopt := func(from, known *Generation, want Kind) Change {
		t.Helper()
		next, ch, err := from.Next(known)
		if err != nil || next != known || ch.Kind != want {
			t.Fatalf("Next = %+v, %v, adopted %v; want %d from the known generation", ch, err, next == known, want)
		}
		return ch
	}
	tail := lines(201, 3)
	f.put(base + tail)
	adopt(g, f.load(), Appended) // equal bytes in another array
	// Adopting took nothing from g: the first name to read the tail still
	// gets g's spare capacity, and a name adopting that successor shares it.
	read, _ := f.next(g, Appended)
	if &read.Bytes()[0] != &g.Bytes()[0] {
		t.Fatal("the successor that read the tail did not take the spare capacity")
	}
	if ch := adopt(g, read, Appended); ch.TailBytes != int64(len(tail)) {
		t.Fatalf("adopted append = %+v, want %d tail bytes", ch, len(tail))
	}
	f.put(lines(1, 300))
	adopt(g, f.load(), Replaced) // grew, prefix differs
	f.put(lines(0, 10))
	adopt(g, f.load(), Replaced) // shrank
}
