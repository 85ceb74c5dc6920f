package rawcsv

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vida/internal/faultinject"
	"vida/internal/rawfile"
	"vida/internal/values"
	"vida/internal/vec"
)

// appendFile grows path by s and moves its mtime forward (filesystem
// mtime granularity can be coarser than the test).
func appendFile(t *testing.T, path, s string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(s); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	bumpTime(t, path)
}

func rewriteFile(t *testing.T, path, s string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
		t.Fatal(err)
	}
	bumpTime(t, path)
}

func bumpTime(t *testing.T, path string) {
	t.Helper()
	at := fileTimePlus(t, path)
	if err := os.Chtimes(path, at, at); err != nil {
		t.Fatal(err)
	}
}

// follow is the catalog's refresh of r: the successor of its file (Next),
// followed.
func follow(r *Reader) (*Reader, rawfile.Change, error) {
	file, ch, err := r.File().Next()
	if err != nil || ch.Kind == rawfile.Unchanged {
		return r, ch, err
	}
	next, ch := r.Follow(file, ch)
	return next, ch, nil
}

// refresh refreshes *r and moves *r to the generation follow returned.
func refresh(t *testing.T, r **Reader) rawfile.Change {
	t.Helper()
	next, ch, err := follow(*r)
	if err != nil {
		t.Fatal(err)
	}
	if (ch.Kind == rawfile.Unchanged) != (next == *r) {
		t.Fatalf("Refresh = %+v with successor %p of %p", ch, next, *r)
	}
	*r = next
	return ch
}

var appendProjections = [][]string{nil, {"id"}, {"score", "name"}, {"active"}, {"name"}}

// assertLikeFresh is the equivalence every Refresh is held to: the
// refreshed reader answers every projection, through the batch and the
// record contract, exactly like a reader opened on the file as it is now
// — on a first scan and on the repeat that runs over whatever positional
// map the first one left.
func assertLikeFresh(t *testing.T, r *Reader, path, step string) {
	t.Helper()
	fresh, err := Open(desc(t, path, nil))
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for _, fields := range appendProjections {
			want, _ := collectBatches(t, fresh, fields, 7)
			got, _ := collectBatches(t, r, fields, 7)
			if len(got) != len(want) {
				t.Fatalf("%s: pass %d, fields %v: %d rows, fresh reader has %d", step, pass, fields, len(got), len(want))
			}
			for i := range want {
				for c := range want[i] {
					if !values.Equal(got[i][c], want[i][c]) {
						t.Fatalf("%s: pass %d, fields %v, row %d: %v, fresh reader has %v", step, pass, fields, i, got[i], want[i])
					}
				}
			}
			wantRecs, gotRecs := collect(t, fresh, fields), collect(t, r, fields)
			if len(wantRecs) != len(gotRecs) {
				t.Fatalf("%s: pass %d, fields %v: %d records, fresh reader has %d", step, pass, fields, len(gotRecs), len(wantRecs))
			}
			for i := range wantRecs {
				if !values.Equal(gotRecs[i], wantRecs[i]) {
					t.Fatalf("%s: pass %d, fields %v, record %d: %v, fresh reader has %v", step, pass, fields, i, gotRecs[i], wantRecs[i])
				}
			}
		}
	}
	if n, fn := r.PosMap().NumRows(), fresh.PosMap().NumRows(); n != fn {
		t.Fatalf("%s: row index holds %d rows, fresh reader's %d", step, n, fn)
	}
}

func TestRefreshAppendExtendsPosMap(t *testing.T) {
	path := writeFile(t, sample)
	r, err := Open(desc(t, path, nil))
	if err != nil {
		t.Fatal(err)
	}
	collectBatches(t, r, []string{"id", "score"}, 0)
	tail := "4,zed,1.5,false\n\n5,yan,2.5,true\n"
	appendFile(t, path, tail)
	ch := refresh(t, &r)
	want := rawfile.Change{Kind: rawfile.Appended, OldRows: 3, NewRows: 5, TailBytes: int64(len(tail))}
	if ch != want {
		t.Fatalf("Refresh = %+v, want %+v", ch, want)
	}
	pm := r.PosMap()
	if pm.NumRows() != 5 || !pm.HasCol(0) || !pm.HasCol(2) || pm.HasCol(1) {
		t.Fatalf("extended map: %d rows, cols %v", pm.NumRows(), pm.Snapshot().Cols)
	}
	// The mapped columns are served by jumps: no tokenizing scan, no build.
	before := r.StatsSnapshot()
	rows, _ := collectBatches(t, r, []string{"id", "score"}, 0)
	after := r.StatsSnapshot()
	if len(rows) != 5 || rows[4][0].Int() != 5 || rows[4][1].Float() != 2.5 {
		t.Fatalf("rows after append = %v", rows)
	}
	if after["full_scans"] != before["full_scans"] || after["builds"] != before["builds"] || after["posmap_scans"] != before["posmap_scans"]+1 {
		t.Fatalf("scan after append: stats %v → %v", before, after)
	}
	assertLikeFresh(t, r, path, "append")
	if ch := refresh(t, &r); ch.Kind != rawfile.Unchanged {
		t.Fatalf("second Refresh = %+v", ch)
	}
}

// TestRefreshLadderFallsBack: every change that is not provably an append
// rebuilds wholesale, names the rung that failed, and still answers like
// a fresh reader.
func TestRefreshLadderFallsBack(t *testing.T) {
	longer := strings.Replace(sample, "bob", "rob", 1) + "4,zed,1.5,false\n"
	cases := []struct {
		name, start string
		cold        bool // never scanned: no positional map
		change      func(t *testing.T, path string)
		reason      string
	}{
		{"truncated", sample, false, func(t *testing.T, p string) { rewriteFile(t, p, sample[:len(sample)-16]) }, "did not grow"},
		{"same size, new mtime", sample, false, func(t *testing.T, p string) { rewriteFile(t, p, strings.Replace(sample, "ada", "eva", 1)) }, "did not grow"},
		{"grew, prefix rewritten", sample, false, func(t *testing.T, p string) { rewriteFile(t, p, longer) }, "prefix differs"},
		{"grew, last prefix byte rewritten", sample, false, func(t *testing.T, p string) {
			rewriteFile(t, p, sample[:len(sample)-1]+"0\n4,zed,1.5,false\n")
		}, "prefix differs"},
		{"previous generation ended mid-row", sample[:len(sample)-1], false, func(t *testing.T, p string) { appendFile(t, p, "5\n4,zed,1.5,false\n") }, "mid-row"},
		{"nothing built yet", sample, true, func(t *testing.T, p string) { appendFile(t, p, "4,zed,1.5,false\n") }, "no positional map"},
		{"header only", "id,name,score,active\n", false, func(t *testing.T, p string) { appendFile(t, p, "4,zed,1.5,false\n") }, "no positional map"},
		{"atomic rename", sample, false, func(t *testing.T, p string) {
			tmp := p + ".tmp"
			rewriteFile(t, tmp, longer)
			if err := os.Rename(tmp, p); err != nil {
				t.Fatal(err)
			}
		}, "prefix differs"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := writeFile(t, c.start)
			r, err := Open(desc(t, path, nil))
			if err != nil {
				t.Fatal(err)
			}
			if !c.cold {
				collectBatches(t, r, nil, 0)
			}
			gen := r.Generation()
			c.change(t, path)
			ch := refresh(t, &r)
			if ch.Kind != rawfile.Replaced || !strings.Contains(ch.Reason, c.reason) {
				t.Fatalf("Refresh = %+v, want Replaced because %q", ch, c.reason)
			}
			if r.PosMap().HasRows() {
				t.Fatal("positional map survived a replacement")
			}
			if r.Generation() == gen {
				t.Fatal("generation key unchanged by a content change")
			}
			assertLikeFresh(t, r, path, c.name)
		})
	}
}

// TestRefreshAppendShortAndPartialRows: a tail row too short for a mapped
// column unmaps that column and nothing else; a line without its newline
// is a row until the next Refresh finds it was not one.
func TestRefreshAppendShortAndPartialRows(t *testing.T) {
	path := writeFile(t, sample)
	r, err := Open(desc(t, path, nil))
	if err != nil {
		t.Fatal(err)
	}
	collectBatches(t, r, nil, 0)
	appendFile(t, path, "4,zed\n")
	if ch := refresh(t, &r); ch.Kind != rawfile.Appended || ch.NewRows != 4 {
		t.Fatalf("short row: Refresh = %+v", ch)
	}
	pm := r.PosMap()
	if !pm.HasCol(0) || !pm.HasCol(1) || pm.HasCol(2) || pm.HasCol(3) {
		t.Fatalf("after a two-field row the map holds columns %v, want 0 and 1", pm.Snapshot().Cols)
	}
	assertLikeFresh(t, r, path, "short row")

	appendFile(t, path, "5,yan,2.") // the writer is mid-line
	if ch := refresh(t, &r); ch.Kind != rawfile.Appended || ch.NewRows != 5 {
		t.Fatalf("partial line: Refresh = %+v", ch)
	}
	assertLikeFresh(t, r, path, "partial line")
	appendFile(t, path, "5,true\n6,xin,3.5,false\n")
	if ch := refresh(t, &r); ch.Kind != rawfile.Replaced || !strings.Contains(ch.Reason, "mid-row") {
		t.Fatalf("completed line: Refresh = %+v", ch)
	}
	assertLikeFresh(t, r, path, "completed line")
}

func bigCSV(rows int) string {
	var sb strings.Builder
	sb.WriteString("id,name,score,active\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d,n%d,%g,%v\n", i, i%50, float64(i)/4, i%2 == 0)
	}
	return sb.String()
}

// TestRefreshAppendKeepsOlderGenerationsValid: generations derived by
// appends share storage — the second append below lands in the first
// one's headroom — and a scan opened over an older generation still
// reads exactly the rows that generation had.
func TestRefreshAppendKeepsOlderGenerationsValid(t *testing.T) {
	const rows = 4000
	path := writeFile(t, bigCSV(rows))
	r, err := Open(desc(t, path, nil))
	if err != nil {
		t.Fatal(err)
	}
	collectBatches(t, r, []string{"id", "score"}, 0)
	type held struct {
		scan func(lo, hi, batchSize int, yield func(*vec.Batch) error) error
		n    int
	}
	var gens []held
	hold := func() {
		scan, n, ok := r.OpenRange([]string{"id", "score"})
		if !ok {
			t.Fatal("range scan unavailable over mapped columns")
		}
		gens = append(gens, held{scan, n})
	}
	hold()
	states := []*Reader{r}
	for i := 0; i < 3; i++ {
		appendFile(t, path, fmt.Sprintf("%d,late,%g,true\n", rows+i, float64(rows+i)/4))
		if ch := refresh(t, &r); ch.Kind != rawfile.Appended || ch.NewRows != rows+i+1 {
			t.Fatalf("append %d: Refresh = %+v", i, ch)
		}
		hold()
		states = append(states, r)
	}
	if &states[1].data[0] == &states[0].data[0] {
		t.Fatal("the first append cannot fit a file read at its exact size")
	}
	if &states[2].data[0] != &states[1].data[0] || &states[3].data[0] != &states[1].data[0] {
		t.Fatal("appends within the headroom reallocated the file bytes")
	}
	for _, st := range states[1:] {
		if slack := cap(st.data) - len(st.data); slack > vec.Spare(len(st.data)) {
			t.Fatalf("file bytes keep %d spare, bound is %d", slack, vec.Spare(len(st.data)))
		}
		// The row index may still be using up the slack its first-touch scan
		// left by doubling; an append never adds to it.
		first, snap := states[0].pm.Snapshot(), st.pm.Snapshot()
		if n := len(snap.Rows); cap(snap.Rows) > max(cap(first.Rows), n+vec.Spare(n)) {
			t.Fatalf("row index of %d rows grew to capacity %d", n, cap(snap.Rows))
		}
	}
	for g, h := range gens {
		if h.n != rows+g {
			t.Fatalf("generation %d reports %d rows", g, h.n)
		}
		next := 0
		err := h.scan(0, h.n, 512, func(b *vec.Batch) error {
			for k := 0; k < b.Len(); k++ {
				i := b.Index(k)
				if b.Cols[0].Ints[i] != int64(next) || b.Cols[1].Floats[i] != float64(next)/4 {
					t.Fatalf("generation %d row %d = (%d, %g)", g, next, b.Cols[0].Ints[i], b.Cols[1].Floats[i])
				}
				next++
			}
			return nil
		})
		if err != nil || next != h.n {
			t.Fatalf("generation %d: scanned %d of %d rows, err %v", g, next, h.n, err)
		}
	}
}

// TestRefreshRandomSequence drives a seeded sequence of file changes —
// appends of whole rows, blank lines, rows malformed for a column, short
// rows, partial lines and their completion, rewrites and truncations —
// and holds the reader to a fresh one after every step.
func TestRefreshRandomSequence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		content := bigCSV(20 + rng.Intn(50))
		path := writeFile(t, content)
		r, err := Open(desc(t, path, nil))
		if err != nil {
			t.Fatal(err)
		}
		next := 1000
		row := func() string {
			next++
			return fmt.Sprintf("%d,r%d,%g,%v\n", next, rng.Intn(9), float64(rng.Intn(100))/8, rng.Intn(2) == 0)
		}
		kinds := map[rawfile.Kind]int{}
		for step := 0; step < 60; step++ {
			// Touch a random projection so the map covers varying columns.
			collectBatches(t, r, appendProjections[rng.Intn(len(appendProjections))], 0)
			var tail string
			op := rng.Intn(10)
			switch op {
			case 0, 1, 2:
				for i := rng.Intn(5); i >= 0; i-- {
					tail += row()
				}
			case 3:
				tail = "\n\n" + row()
			case 4:
				tail = fmt.Sprintf("oops,x,%g,true\n", 1.5) // id does not parse
			case 5:
				tail = "77,short\n"
			case 6:
				tail = strings.TrimSuffix(row(), "\n") // no trailing newline
			case 7:
				tail = row()[:3] // a partial line
			}
			name := fmt.Sprintf("seed %d step %d op %d", seed, step, op)
			switch op {
			case 8:
				content = strings.Replace(content, ",n1,", ",N1,", 1) + row()
				rewriteFile(t, path, content)
			case 9:
				content = content[:len(content)/2]
				rewriteFile(t, path, content)
			default:
				content += tail
				appendFile(t, path, tail)
			}
			kinds[refresh(t, &r).Kind]++
			assertLikeFresh(t, r, path, name)
		}
		if kinds[rawfile.Appended] == 0 || kinds[rawfile.Replaced] == 0 || kinds[rawfile.Unchanged] != 0 {
			t.Fatalf("seed %d: outcomes %v, want a mix of appends and replacements", seed, kinds)
		}
	}
}

// TestRefreshAppendConcurrentScans: scans beside an appending Refresh use
// one generation throughout — every scan sees a prefix of the final rows
// whose length is a generation's, never columns of two lengths — while
// each successor extends its predecessor in the storage those scans read.
// Run with -race.
func TestRefreshAppendConcurrentScans(t *testing.T) {
	const base, appends, perAppend = 3000, 25, 40
	path := writeFile(t, bigCSV(base))
	r, err := Open(desc(t, path, nil))
	if err != nil {
		t.Fatal(err)
	}
	collectBatches(t, r, []string{"id", "score"}, 0)
	var cur atomic.Pointer[Reader] // the generation scans start on
	cur.Store(r)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fields := [][]string{{"id", "score"}, {"id"}, {"score", "name"}, {"id", "active"}}[w]
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := 0
				err := cur.Load().IterateBatches(fields, 256, func(b *vec.Batch) error {
					for c := range b.Cols {
						if b.Cols[c].Len() != b.N {
							t.Errorf("reader %d: column %d has %d rows in a batch of %d", w, c, b.Cols[c].Len(), b.N)
						}
					}
					if fields[0] == "id" {
						for k := 0; k < b.Len(); k++ {
							if got := b.Cols[0].Ints[b.Index(k)]; got != int64(n+k) {
								t.Errorf("reader %d: row %d has id %d", w, n+k, got)
								return nil
							}
						}
					}
					n += b.Len()
					return nil
				})
				if err != nil {
					t.Errorf("reader %d: %v", w, err)
					return
				}
				if n < base || (n-base)%perAppend != 0 || n > base+appends*perAppend {
					t.Errorf("reader %d: scan saw %d rows, no generation has that many", w, n)
					return
				}
			}
		}(w)
	}
	id := base
	for a := 0; a < appends; a++ {
		var sb strings.Builder
		for i := 0; i < perAppend; i++ {
			fmt.Fprintf(&sb, "%d,n%d,%g,%v\n", id, id%50, float64(id)/4, id%2 == 0)
			id++
		}
		appendFile(t, path, sb.String())
		if ch := refresh(t, &r); ch.Kind != rawfile.Appended {
			t.Errorf("append %d: Refresh = %+v", a, ch)
		}
		cur.Store(r)
	}
	close(stop)
	wg.Wait()
	assertLikeFresh(t, r, path, "after concurrent appends")
}

// TestSuccessorsOfOneGeneration: two successors derived from one
// generation by two different tails — the file grew, was cut back to that
// generation and grew otherwise — each answer for their own bytes, and so
// does the generation they came from. The first successor took the
// generation's spare capacity, the second copied, and a successor of the
// first extends further into the row index the generation shares. Scans
// of all four run side by side; run with -race.
func TestSuccessorsOfOneGeneration(t *testing.T) {
	base := bigCSV(2000)
	path := writeFile(t, base)
	g, err := Open(desc(t, path, nil))
	if err != nil {
		t.Fatal(err)
	}
	collectBatches(t, g, []string{"id", "score"}, 0)
	// A first append reallocates with headroom: g is then a generation
	// with spare capacity to hand out.
	tail := "2000,a,500,true\n"
	appendFile(t, path, tail)
	if ch := refresh(t, &g); ch.Kind != rawfile.Appended {
		t.Fatalf("first append: Refresh = %+v", ch)
	}
	base += tail
	derive := func(from *Reader, content string) *Reader {
		t.Helper()
		rewriteFile(t, path, content)
		next, ch, err := follow(from)
		if err != nil || ch.Kind != rawfile.Appended {
			t.Fatalf("Refresh = %+v, %v; want Appended", ch, err)
		}
		return next
	}
	tailA, tailB, tailA2 := "2001,a,1,true\n2002,a,2,false\n", "2001,b,7,false\n", "2003,c,3.5,true\n"
	a := derive(g, base+tailA)
	b := derive(g, base+tailB)
	a2 := derive(a, base+tailA+tailA2)
	// The row index follows the bytes' one ownership decision (the bytes
	// themselves: rawfile's TestSuccessorsOfOneGeneration).
	rows := func(r *Reader) *int64 { return &r.pm.Snapshot().Rows[0] }
	switch {
	case rows(a) != rows(g):
		t.Fatal("the first successor did not extend its predecessor's row index in place")
	case rows(b) == rows(g):
		t.Fatal("a second successor of one generation shares the row index the first owns")
	case rows(a2) != rows(g):
		t.Fatal("the first successor's successor did not extend the row index it inherited")
	}
	gens := []struct {
		name    string
		r       *Reader
		content string
	}{{"predecessor", g, base}, {"first", a, base + tailA}, {"second", b, base + tailB}, {"first's successor", a2, base + tailA + tailA2}}
	t.Run("side by side", func(t *testing.T) {
		for _, x := range gens {
			t.Run(x.name, func(t *testing.T) {
				t.Parallel()
				assertLikeFresh(t, x.r, writeFile(t, x.content), x.name)
			})
		}
	})
}

// TestLoadPairsBytesWithTheirMtime: a file replaced by rename while Open
// or a replacing Refresh loads it is read whole from the handle opened
// first, with that handle's mtime. The new file's mtime over the old
// file's bytes would make every later Refresh report Unchanged.
func TestLoadPairsBytesWithTheirMtime(t *testing.T) {
	defer faultinject.Reset()
	path := filepath.Join(t.TempDir(), "data.csv")
	put := func(content string, at time.Time) {
		t.Helper()
		tmp := path + ".next"
		if err := os.WriteFile(tmp, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(tmp, at, at); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, path); err != nil {
			t.Fatal(err)
		}
	}
	// putWhileLoading replaces the file from inside the next load, after
	// it opened the file and before it read it.
	putWhileLoading := func(content string, at time.Time) {
		var fired atomic.Bool
		faultinject.Set(faultinject.FileLoad, func() error {
			if fired.CompareAndSwap(false, true) {
				put(content, at)
			}
			return nil
		})
	}
	firstName := func(r *Reader) string { return collect(t, r, nil)[0].MustGet("name").Str() }
	t0 := time.Now().Add(-time.Hour).Truncate(time.Second)
	put(sample, t0)
	putWhileLoading(strings.Replace(sample, "ada", "ann", 1), t0.Add(time.Second))
	r, err := Open(desc(t, path, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := firstName(r); got != "ada" {
		t.Fatalf("Open read %q, want the file it opened", got)
	}
	// The loaded mtime is the opened file's, so the rename is noticed.
	r, ch, err := follow(r)
	if err != nil || ch.Kind != rawfile.Replaced || firstName(r) != "ann" {
		t.Fatalf("Refresh after a rename during Open = %+v, %v", ch, err)
	}
	// The same race in the replace path of Refresh.
	longer := strings.Replace(sample, "ada", "zed", 1) + "4,kim,1,true\n"
	put(longer, t0.Add(2*time.Second))
	putWhileLoading(strings.Replace(longer, "zed", "zoe", 1), t0.Add(3*time.Second))
	for _, want := range []string{"zed", "zoe"} {
		if r, ch, err = follow(r); err != nil || ch.Kind != rawfile.Replaced || firstName(r) != want {
			t.Fatalf("Refresh = %+v, %v; want Replaced reading %q", ch, err, want)
		}
	}
	if next, ch, err := follow(r); err != nil || ch.Kind != rawfile.Unchanged || next != r {
		t.Fatalf("Refresh of a settled file = %+v, %v", ch, err)
	}
}
