package rawcsv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"vida/internal/sched"
	"vida/internal/sdg"
	"vida/internal/values"
	"vida/internal/vec"
)

// A cold scan cut into chunks, some of them tokenized by pool helpers,
// must be indistinguishable from the same scan as one chunk: the same
// batches cut at the same rows, the same error, the same positional map
// and the same counters. These tests hold the two to each other and to
// the split-the-file oracle of onescan_test.go, at chunk sizes down to one
// byte, so every cut a file allows is taken.

// chunkPool is the helpers' pool: more workers than the scanning
// goroutine needs, whatever the machine's core count.
var chunkPool = sched.NewPool(4)

// withChunkBytes sets the least chunk size for one test.
func withChunkBytes(t testing.TB, n int) {
	old := chunkBytes
	chunkBytes = n
	t.Cleanup(func() { chunkBytes = old })
}

// readerOn returns a reader of the test schema over data, with opts, that
// scans cold files as one chunk (chunked false) or in chunkBytes chunks
// with pool helpers. path only has to exist.
func readerOn(t testing.TB, path string, data []byte, opts map[string]string, chunked bool) *Reader {
	d := sdg.DefaultDescription("t", sdg.FormatCSV, path, sdg.Bag(sdg.Record(
		sdg.Attr{Name: "id", Type: sdg.Int},
		sdg.Attr{Name: "name", Type: sdg.String},
		sdg.Attr{Name: "score", Type: sdg.Float},
		sdg.Attr{Name: "active", Type: sdg.Bool},
	)))
	d.Options = opts
	r, err := Open(d)
	if err != nil {
		t.Fatal(err)
	}
	r.data = data
	if chunked {
		r.UseScheduler(chunkPool, 4)
	} else {
		r.UseScheduler(nil, 1)
	}
	return r
}

// scanSeen is everything a scan shows outside the reader.
type scanSeen struct {
	batches []vec.Batch
	err     string
	pm      Snapshot
	stats   map[string]int64
}

// scanOnce runs one batch scan; stopAfter > 0 fails the yield of that
// many-th batch.
func scanOnce(r *Reader, fields []string, batchSize, stopAfter int) scanSeen {
	return scanSlow(r, fields, batchSize, stopAfter, 0)
}

// scanSlow is scanOnce with a consumer that takes pause over its first
// batch — time in which helpers buffer the chunks after it, which a fast
// consumer's scan mostly streams itself.
func scanSlow(r *Reader, fields []string, batchSize, stopAfter int, pause time.Duration) scanSeen {
	var s scanSeen
	err := r.IterateBatches(fields, batchSize, func(b *vec.Batch) error {
		if len(s.batches) == 0 {
			time.Sleep(pause)
		}
		s.batches = append(s.batches, b.Retain())
		if len(s.batches) == stopAfter {
			return errStopHere
		}
		return nil
	})
	if err != nil {
		s.err = err.Error()
	}
	s.pm = r.PosMap().Snapshot()
	s.stats = r.StatsSnapshot()
	delete(s.stats, "build_nanos")
	return s
}

var errStopHere = errors.New("consumer stopped")

// sameScan fails unless the chunked scan saw what the one-chunk scan saw.
func sameScan(t *testing.T, where string, one, chunked scanSeen) {
	t.Helper()
	switch {
	case one.err != chunked.err:
		t.Fatalf("%s: error %q, one chunk %q", where, chunked.err, one.err)
	case !reflect.DeepEqual(one.batches, chunked.batches):
		t.Fatalf("%s: batches differ:\n chunked   %+v\n one chunk %+v", where, chunked.batches, one.batches)
	case !reflect.DeepEqual(one.pm, chunked.pm):
		t.Fatalf("%s: positional maps differ:\n chunked   %+v\n one chunk %+v", where, chunked.pm, one.pm)
	case !reflect.DeepEqual(one.stats, chunked.stats):
		t.Fatalf("%s: counters differ:\n chunked   %v\n one chunk %v", where, chunked.stats, one.stats)
	}
}

// boxed lowers scanned batches to the oracle's records.
func boxed(t *testing.T, batches []vec.Batch, fields []string) []values.Value {
	t.Helper()
	if len(fields) == 0 {
		fields = []string{"id", "name", "score", "active"}
	}
	var out []values.Value
	for i := range batches {
		if err := vec.BoxRecords(&batches[i], fields, func(v values.Value) error {
			out = append(out, v)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// chunkCases are the files whose cuts the equivalence tests walk.
var chunkCases = []struct {
	name, content string
	header        bool
}{
	{"plain", "id,name,score,active\n1,ada,9.5,true\n22,bob,8.0,false\n333,eve,7.25,true\n", true},
	{"header only", "id,name,score,active\n", true},
	{"header only, no newline", "id,name,score,active", true},
	{"long header", "identifier_column,name_of_person,score_value,active_flag_column\n1,a,1,t\n2,b,2,f\n", true},
	{"blank lines", "id,name,score,active\n\n1,ada,9.5,true\n\n\n2,bob,8.0,false\n\n3,eve,7.25,true\n\n", true},
	{"no final newline", "id,name,score,active\n1,ada,9.5,true\n2,bob,8.0,false", true},
	{"short and malformed", "id,name,score,active\n1,ada,9.5,true\n2,bob\nx,eve,7.25,maybe\n4,,,\n5,dan,1e3,f,extra\n", true},
	{"no header", "1,ada,9.5,true\n2,bob,8.0,false\n3\n4,eve,,t\n", false},
	{"nulls late", "id,name,score,active\n1,a,1,t\n2,b,2,t\n3,c,3,t\n,d,,\n5,e,5,f\n", true},
	{"empty", "", true},
}

var chunkProjections = [][]string{nil, {"id"}, {"score", "name"}, {"active"}, {"active", "id"}, {"name"}}

// TestChunkedScanIsOneChunkScan walks every chunk size from one byte to
// past the file, under both error policies and batch sizes that cut
// batches across chunks, through a sequence of projections — cold first,
// then anchored or warm on what the cold scan mapped.
func TestChunkedScanIsOneChunkScan(t *testing.T) {
	path := writeFile(t, "")
	for _, tc := range chunkCases {
		for _, fail := range []bool{false, true} {
			opts := map[string]string{"header": strconv.FormatBool(tc.header)}
			if fail {
				opts["onerror"] = "fail"
			}
			for size := 1; size <= len(tc.content)+1; size++ {
				withChunkBytes(t, size)
				for _, first := range chunkProjections {
					one := readerOn(t, path, []byte(tc.content), opts, false)
					chunked := readerOn(t, path, []byte(tc.content), opts, true)
					for step, fields := range append([][]string{first}, chunkProjections...) {
						where := fmt.Sprintf("%s, onerror=fail %v, chunk %d, step %d, fields %v", tc.name, fail, size, step, fields)
						batchSize := 1 + (size+step)%3
						want := scanOnce(one, fields, batchSize, 0)
						sameScan(t, where, want, scanOnce(chunked, fields, batchSize, 0))
						rows, bad := oracle(tc.content, tc.header, fields)
						if fail && bad {
							if want.err == "" {
								t.Fatalf("%s: a malformed row under onerror=fail answered", where)
							}
							continue
						}
						if got := boxed(t, want.batches, fields); !reflect.DeepEqual(got, rows) && !(len(got) == 0 && len(rows) == 0) {
							t.Fatalf("%s: scan %v, oracle %v", where, got, rows)
						}
					}
				}
			}
		}
	}
}

// TestChunkedScanMessyFiles: the same equivalence on random messy files
// at random chunk and batch sizes.
func TestChunkedScanMessyFiles(t *testing.T) {
	path := writeFile(t, "")
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 200; trial++ {
		content, header := messyCSV(rng)
		opts := map[string]string{"header": strconv.FormatBool(header)}
		if trial%4 == 3 {
			opts["onerror"] = "fail"
		}
		withChunkBytes(t, 1+rng.Intn(len(content)+8))
		one := readerOn(t, path, []byte(content), opts, false)
		chunked := readerOn(t, path, []byte(content), opts, true)
		for step := 0; step < 4; step++ {
			fields := chunkProjections[rng.Intn(len(chunkProjections))]
			batchSize := 1 + rng.Intn(5)
			where := fmt.Sprintf("trial %d step %d, chunk %d, batch %d, fields %v, file:\n%s", trial, step, chunkBytes, batchSize, fields, content)
			sameScan(t, where, scanOnce(one, fields, batchSize, 0), scanSlow(chunked, fields, batchSize, 0, 200*time.Microsecond))
		}
	}
}

// TestChunkedScanFailsAtTheFirstBadRow: under onerror=fail, a bad row in
// a later chunk fails the scan with the serial scan's error after every
// batch before it, counting one skipped row, and maps nothing.
func TestChunkedScanFailsAtTheFirstBadRow(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("id,name,score,active\n")
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&sb, "%d,n%d,%d.5,true\n", i, i, i)
		if i == 290 || i == 350 {
			sb.WriteString("bad,row,x,y\n")
		}
	}
	content := sb.String()
	path := writeFile(t, "")
	withChunkBytes(t, 256)
	opts := map[string]string{"onerror": "fail"}
	one := scanOnce(readerOn(t, path, []byte(content), opts, false), []string{"id", "score"}, 16, 0)
	chunked := scanSlow(readerOn(t, path, []byte(content), opts, true), []string{"id", "score"}, 16, 0, 5*time.Millisecond)
	sameScan(t, "onerror=fail", one, chunked)
	if !strings.Contains(chunked.err, "malformed row at byte") || len(chunked.batches) != 291/16 ||
		chunked.stats["rows_skipped"] != 1 || len(chunked.pm.Rows) != 0 {
		t.Fatalf("err %q, %d batches, %d skipped, %d rows mapped", chunked.err, len(chunked.batches), chunked.stats["rows_skipped"], len(chunked.pm.Rows))
	}
}

// bigContent is a file of n well-formed rows of the test schema.
func bigContent(n int) string {
	var sb strings.Builder
	sb.WriteString("id,name,score,active\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%d,name%d,%d.25,%v\n", i, i%7, i, i%2 == 0)
	}
	return sb.String()
}

// TestColdScanEarlyStop: a consumer that stops a cold scan — in the
// first chunk, or in one a helper buffered — gets its error back; the
// scan installs nothing, returns only after its helper job has, and the
// next scan is a correct cold scan.
func TestColdScanEarlyStop(t *testing.T) {
	content := bigContent(3000)
	path := writeFile(t, "")
	withChunkBytes(t, 2048)
	fields := []string{"id", "name"}
	want := scanOnce(readerOn(t, path, []byte(content), nil, false), fields, 64, 0)
	for _, stopAfter := range []int{1, 2, 20, len(want.batches) - 1} {
		r := readerOn(t, path, []byte(content), nil, true)
		jobs := chunkPool.StatsSnapshot().JobsRun
		got := scanOnce(r, fields, 64, stopAfter)
		if got.err != errStopHere.Error() || !reflect.DeepEqual(got.batches, want.batches[:stopAfter]) {
			t.Fatalf("stop after %d: err %q, %d batches", stopAfter, got.err, len(got.batches))
		}
		if r.PosMap().HasRows() {
			t.Fatalf("stop after %d: a stopped scan installed its rows", stopAfter)
		}
		if chunkPool.StatsSnapshot().JobsRun == jobs {
			t.Fatalf("stop after %d: the scan returned before its helper job", stopAfter)
		}
		again := scanOnce(r, fields, 64, 0)
		if again.err != "" || !reflect.DeepEqual(again.batches, want.batches) || !reflect.DeepEqual(again.pm, want.pm) {
			t.Fatalf("stop after %d: the next scan differs from a fresh one", stopAfter)
		}
	}
}

// TestColdScanNeverWaitsForAWorker: with every pool worker held by
// another job, a chunked cold scan tokenizes the whole file itself and
// returns without waiting for a worker to come free.
func TestColdScanNeverWaitsForAWorker(t *testing.T) {
	content := bigContent(2000)
	withChunkBytes(t, 1024)
	pool := sched.NewPool(2)
	defer pool.Close()
	held, release := make(chan struct{}, 2), make(chan struct{})
	busy := make(chan error, 1)
	go func() {
		busy <- pool.Run(context.Background(), 2, func(int) error {
			held <- struct{}{}
			<-release
			return nil
		})
	}()
	<-held
	<-held
	r := readerOn(t, writeFile(t, ""), []byte(content), nil, true)
	r.UseScheduler(pool, 0)
	done := make(chan scanSeen, 1)
	go func() { done <- scanOnce(r, []string{"score"}, 0, 0) }()
	select {
	case got := <-done:
		if got.err != "" || len(got.pm.Rows) != 2000 {
			t.Fatalf("err %q, %d rows", got.err, len(got.pm.Rows))
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("a cold scan waited for a busy pool")
	}
	close(release)
	if err := <-busy; err != nil {
		t.Fatal(err)
	}
}

// TestColdScanPosMapExactCapacity: the arrays a scan installs are
// allocated at their length — no append slack lives as long as the map.
func TestColdScanPosMapExactCapacity(t *testing.T) {
	content := bigContent(5000)
	path := writeFile(t, "")
	withChunkBytes(t, 4096)
	exact := func(where string, r *Reader) {
		t.Helper()
		snap := r.PosMap().Snapshot()
		if len(snap.Rows) != 5000 || cap(snap.Rows) != len(snap.Rows) {
			t.Fatalf("%s: rows len %d cap %d", where, len(snap.Rows), cap(snap.Rows))
		}
		for j, s := range snap.Cols {
			if e := snap.Ends[j]; cap(s) != len(s) || cap(e) != len(e) {
				t.Fatalf("%s: column %d starts len %d cap %d, ends len %d cap %d", where, j, len(s), cap(s), len(e), cap(e))
			}
		}
	}
	for _, chunked := range []bool{false, true} {
		where := fmt.Sprintf("chunked %v", chunked)
		r := readerOn(t, path, []byte(content), nil, chunked)
		if n, err := r.NumRows(); err != nil || n != 5000 {
			t.Fatalf("%s: NumRows = %d, %v", where, n, err)
		}
		exact(where+", after NumRows", r)
		r = readerOn(t, path, []byte(content), nil, chunked)
		scanOnce(r, []string{"score", "id"}, 0, 0)
		exact(where+", after a cold scan", r)
		scanOnce(r, []string{"active", "name"}, 0, 0)
		exact(where+", after an anchored scan", r)
	}
}

// fieldSpansRef is the byte-at-a-time tokenizer fieldSpans replaced: the
// reference its word-at-a-time search is held to.
func fieldSpansRef(line []byte, delim byte, outPos []int, maxCol int, spanS, spanE []int32) int {
	col, start := 0, 0
	for i := 0; i <= len(line); i++ {
		if i != len(line) && line[i] != delim {
			continue
		}
		if col < len(outPos) {
			if p := outPos[col]; p >= 0 {
				spanS[p], spanE[p] = int32(start), int32(i)
			}
		}
		col++
		start = i + 1
		if col > maxCol {
			break
		}
	}
	return col
}

// FuzzFieldSpans: the word-at-a-time tokenizer finds exactly the fields
// the byte loop finds, for any line, delimiter and column list.
func FuzzFieldSpans(f *testing.F) {
	f.Add([]byte(",-,-,-,-,-,-"), byte(','), []byte{0, 2, 5}, int8(5))
	f.Add([]byte("a-b-c-d-e-f-g-h-i"), byte(','), []byte{1}, int8(1))
	f.Add([]byte("--,,--,,--,,--,,--"), byte('-'), []byte{0, 1, 2, 3}, int8(7))
	f.Add([]byte("1,ada,9.5,true"), byte(','), []byte{3, 0}, int8(3))
	f.Add([]byte("\t\b\t\b\t\b\t\b\t"), byte('\t'), []byte{4}, int8(-1))
	f.Add([]byte("a\xac\xac\xad-b,c,d,e,f"), byte(','), []byte{0, 1, 2}, int8(3)) // delim^0x80 bytes
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff"), byte(0xff), []byte{1, 8}, int8(9))
	for n := 0; n <= 17; n++ {
		f.Add(bytes.Repeat([]byte{'-'}, n), byte(','), []byte{0}, int8(n%4))
		f.Add(bytes.Repeat([]byte(",-"), n)[:n], byte(','), []byte{0, 1, 2}, int8(2))
	}
	f.Fuzz(func(t *testing.T, line []byte, delim byte, listed []byte, maxCol int8) {
		outPos := make([]int, 12)
		for i := range outPos {
			outPos[i] = -1
		}
		n := 0
		for _, c := range listed {
			if c := int(c) % len(outPos); outPos[c] < 0 {
				outPos[c] = n
				n++
			}
		}
		r := &Reader{shared: &shared{delim: delim}}
		gotS, gotE := make([]int32, n), make([]int32, n)
		wantS, wantE := make([]int32, n), make([]int32, n)
		got := r.fieldSpans(line, outPos, int(maxCol), gotS, gotE)
		want := fieldSpansRef(line, delim, outPos, int(maxCol), wantS, wantE)
		if got != want || !reflect.DeepEqual(gotS, wantS) || !reflect.DeepEqual(gotE, wantE) {
			t.Fatalf("line %q delim %q outPos %v maxCol %d: reached %d spans %v %v, byte loop %d %v %v",
				line, delim, outPos, maxCol, got, gotS, gotE, want, wantS, wantE)
		}
		for i := 0; i <= min(len(line), 64); i++ {
			want := bytes.IndexByte(line[i:], delim)
			if want < 0 {
				want = len(line)
			} else {
				want += i
			}
			if got := nextDelim(line, i, delim); got != want {
				t.Fatalf("nextDelim(%q, %d, %q) = %d, want %d", line, i, delim, got, want)
			}
		}
	})
}

// FuzzColdScanChunked: on any bytes, the chunked cold scan and the
// anchored scan after it see what the one-chunk scans see.
func FuzzColdScanChunked(f *testing.F) {
	f.Add([]byte(sample), uint8(3), uint8(2), false, false)
	f.Add([]byte("id,name,score,active\n\n1,a,,t\n2\n,,,\n"), uint8(1), uint8(1), true, false)
	f.Add([]byte("1,a,1,t\n2,b,x,f\n3,c,3,t"), uint8(5), uint8(3), false, true)
	path := filepath.Join(f.TempDir(), "data.csv")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk, batch uint8, noHeader, fail bool) {
		withChunkBytes(t, 1+int(chunk))
		opts := map[string]string{"header": strconv.FormatBool(!noHeader)}
		if fail {
			opts["onerror"] = "fail"
		}
		one := readerOn(t, path, data, opts, false)
		chunked := readerOn(t, path, data, opts, true)
		for step, fields := range [][]string{{"score", "id"}, nil, {"name"}} {
			batchSize := 1 + int(batch)%7
			where := fmt.Sprintf("step %d, chunk %d, batch %d, fields %v, data %q", step, chunkBytes, batchSize, fields, data)
			sameScan(t, where, scanOnce(one, fields, batchSize, 0), scanOnce(chunked, fields, batchSize, 0))
		}
	})
}
