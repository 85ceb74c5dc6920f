package rawcsv

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vida/internal/faultinject"
	"vida/internal/values"
	"vida/internal/vec"
)

// The reader has one scanner: Iterate is IterateBatches lowered to
// records. These tests hold the two contracts to the same answers, the
// same positional map and the same counters, and both to an oracle that
// splits the file the slow way.

// boxBatches drains IterateBatches at a small batch size and lowers every
// row to a record of fields (all columns when fields is empty).
func boxBatches(r *Reader, fields []string) ([]values.Value, error) {
	names := fields
	if len(names) == 0 {
		names = r.names
	}
	var out []values.Value
	err := r.IterateBatches(fields, 7, func(b *vec.Batch) error {
		return vec.BoxRecords(b, names, func(v values.Value) error {
			out = append(out, v)
			return nil
		})
	})
	return out, err
}

func iterateAll(r *Reader, fields []string) ([]values.Value, error) {
	var out []values.Value
	err := r.Iterate(fields, func(v values.Value) error {
		out = append(out, v)
		return nil
	})
	return out, err
}

// oracle answers a projection of the test schema by splitting content into
// lines and fields: the rows are the non-blank lines after the header, and
// a row is answered when it holds every requested field and each converts.
// bad reports whether some row was not.
func oracle(content string, header bool, fields []string) (rows []values.Value, bad bool) {
	kinds := map[string]string{"id": "int", "name": "string", "score": "float", "active": "bool"}
	pos := map[string]int{"id": 0, "name": 1, "score": 2, "active": 3}
	if len(fields) == 0 {
		fields = []string{"id", "name", "score", "active"}
	}
	lines := strings.Split(content, "\n")
	if header {
		lines = lines[1:]
	}
	for _, line := range lines {
		if line == "" {
			continue
		}
		raw := strings.Split(line, ",")
		rec := make([]values.Field, 0, len(fields))
		for _, f := range fields {
			if pos[f] >= len(raw) {
				break
			}
			s := raw[pos[f]]
			var v values.Value
			var err error
			switch {
			case s == "":
				v = values.Null
			case kinds[f] == "int":
				var n int64
				n, err = strconv.ParseInt(s, 10, 64)
				v = values.NewInt(n)
			case kinds[f] == "float":
				var x float64
				x, err = strconv.ParseFloat(s, 64)
				v = values.NewFloat(x)
			case kinds[f] == "bool":
				switch s {
				case "true", "TRUE", "1", "t":
					v = values.True
				case "false", "FALSE", "0", "f":
					v = values.False
				default:
					err = errors.New("not a bool")
				}
			default:
				v = values.NewString(s)
			}
			if err != nil {
				break
			}
			rec = append(rec, values.Field{Name: f, Val: v})
		}
		if len(rec) < len(fields) {
			bad = true
			continue
		}
		rows = append(rows, values.NewRecord(rec...))
	}
	return rows, bad
}

// messyCSV generates a file of the test schema with nulls, unconvertible
// fields, short and long rows and blank lines, sometimes without a header
// or a final newline.
func messyCSV(rng *rand.Rand) (content string, header bool) {
	pick := func(opts ...string) string { return opts[rng.Intn(len(opts))] }
	var sb strings.Builder
	header = rng.Intn(4) > 0
	if header {
		sb.WriteString("id,name,score,active\n")
	}
	n := rng.Intn(40)
	for i := 0; i < n; i++ {
		fields := []string{
			pick(strconv.Itoa(i), "-"+strconv.Itoa(i), "+7", "", "x1", "9223372036854775808"),
			pick("ann", "bo b", "", "éa"),
			pick("1.5", "-0.25", "2e3", "", "abc"),
			pick("true", "0", "f", "TRUE", "", "yes"),
		}
		switch rng.Intn(10) {
		case 0:
			fields = fields[:1+rng.Intn(3)] // short row
		case 1:
			fields = append(fields, "extra") // long row
		case 2:
			fields = nil // blank line
		}
		sb.WriteString(strings.Join(fields, ","))
		if i < n-1 || rng.Intn(3) > 0 {
			sb.WriteByte('\n')
		}
	}
	return sb.String(), header
}

// TestRecordViewIsTheBatchScan: on messy files, a reader scanned through
// Iterate and a twin scanned through IterateBatches agree with the oracle
// at every step of a random sequence of projections — cold, anchored on
// what earlier steps mapped, and warm — and leave identical positional
// maps and counters behind.
func TestRecordViewIsTheBatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	projections := [][]string{nil, {"id"}, {"score", "name"}, {"active"}, {"active", "id"}, {"name"}}
	for trial := 0; trial < 60; trial++ {
		content, header := messyCSV(rng)
		opts := map[string]string{"header": strconv.FormatBool(header)}
		if trial%5 == 4 {
			opts["onerror"] = "fail"
		}
		path := writeFile(t, content)
		rec, err := Open(desc(t, path, opts))
		if err != nil {
			t.Fatal(err)
		}
		bat, err := Open(desc(t, path, opts))
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 8; step++ {
			fields := projections[rng.Intn(len(projections))]
			where := fmt.Sprintf("trial %d step %d, fields %v, file:\n%s", trial, step, fields, content)
			want, bad := oracle(content, header, fields)
			gotRec, errRec := iterateAll(rec, fields)
			gotBat, errBat := boxBatches(bat, fields)
			if opts["onerror"] == "fail" && bad {
				if errRec == nil || errBat == nil {
					t.Fatalf("%s: a malformed row under onerror=fail: record err %v, batch err %v", where, errRec, errBat)
				}
			} else {
				if errRec != nil || errBat != nil {
					t.Fatalf("%s: record err %v, batch err %v", where, errRec, errBat)
				}
				for name, got := range map[string][]values.Value{"record": gotRec, "batch": gotBat} {
					if len(got) != len(want) {
						t.Fatalf("%s: %s view has %d rows, oracle %d", where, name, len(got), len(want))
					}
					for i := range want {
						if !values.Equal(got[i], want[i]) {
							t.Fatalf("%s: %s view row %d = %v, oracle %v", where, name, i, got[i], want[i])
						}
					}
				}
			}
			if a, b := rec.PosMap().Snapshot(), bat.PosMap().Snapshot(); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: positional maps differ:\n record %+v\n batch  %+v", where, a, b)
			}
			a, b := rec.StatsSnapshot(), bat.StatsSnapshot()
			delete(a, "build_nanos")
			delete(b, "build_nanos")
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: counters differ:\n record %v\n batch  %v", where, a, b)
			}
		}
	}
}

// TestPosMapMapsEveryColumnEveryRowReaches pins the map's one rule: a
// column is mapped when every indexed row holds it — a field that fails to
// convert still has a position — and left out when some row is too short.
func TestPosMapMapsEveryColumnEveryRowReaches(t *testing.T) {
	content := "id,name,score,active\n" +
		"1,ada,9.5,true\n" +
		"2,bob\n" + // too short for score and active
		"x,eve,7.25,maybe\n" // id and active do not convert
	for _, view := range []string{"record", "batch"} {
		r, err := Open(desc(t, writeFile(t, content), nil))
		if err != nil {
			t.Fatal(err)
		}
		scan := iterateAll
		if view == "batch" {
			scan = boxBatches
		}
		rows, err := scan(r, []string{"id", "active"})
		if err != nil || len(rows) != 1 {
			t.Fatalf("%s: id,active scan = %v, %v; want the one good row", view, rows, err)
		}
		if pm := r.PosMap(); pm.NumRows() != 3 || !pm.HasCol(0) || pm.HasCol(3) {
			t.Fatalf("%s: map after id,active: %d rows, id mapped %v, active mapped %v; want 3, true, false",
				view, pm.NumRows(), pm.HasCol(0), pm.HasCol(3))
		}
		if _, err := scan(r, []string{"name"}); err != nil || !r.PosMap().HasCol(1) {
			t.Fatalf("%s: name not mapped by a scan every row reaches (%v)", view, err)
		}
	}
	// The rule lives in SetCol: spans that miss a row never install.
	m := NewPosMap()
	m.SetCol(0, []int32{0}, []int32{1})
	m.SetRows([]int64{0, 10})
	m.SetCol(1, []int32{0}, []int32{1})
	m.SetCol(2, []int32{0, 0}, []int32{1, 1})
	if m.HasCol(0) || m.HasCol(1) || !m.HasCol(2) {
		t.Fatalf("SetCol installed partial or row-less spans: cols %v", m.Cols())
	}
}

// TestColdScanNeverWaitsOnAnotherScan: a cold scan parked inside its
// consumer — a static-executor self-join's other side, a cursor nobody
// reads — must not hold up a cold scan of the same reader, through
// either contract.
func TestColdScanNeverWaitsOnAnotherScan(t *testing.T) {
	for _, view := range []string{"record", "batch", "record, chunked", "batch, chunked"} {
		r, err := Open(desc(t, writeFile(t, sample), nil))
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(view, "chunked") {
			withChunkBytes(t, 8) // a chunk per line, tokenized by pool helpers
			r.UseScheduler(chunkPool, 0)
		}
		parked, release, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
		go func() {
			var once sync.Once
			done <- r.IterateBatches([]string{"id"}, 1, func(*vec.Batch) error {
				once.Do(func() { close(parked) })
				<-release
				return nil
			})
		}()
		<-parked
		scan := iterateAll
		if strings.HasPrefix(view, "batch") {
			scan = boxBatches
		}
		finished := make(chan error, 1)
		go func() {
			rows, err := scan(r, []string{"name", "score"})
			if err == nil && len(rows) != 3 {
				err = fmt.Errorf("%d rows", len(rows))
			}
			finished <- err
		}()
		select {
		case err := <-finished:
			if err != nil {
				t.Fatalf("%s: %v", view, err)
			}
		case <-time.After(5 * time.Second):
			close(release)
			t.Fatalf("%s: a cold scan waited on another scan's consumer", view)
		}
		close(release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecordScanIsObserved: the record view pays its first touch as a
// counted build (the engine's posmap_build trace event reads it) and
// passes through the CSV read fault points.
func TestRecordScanIsObserved(t *testing.T) {
	defer faultinject.Reset()
	r, err := Open(desc(t, writeFile(t, sample), nil))
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Set(faultinject.CSVRead, faultinject.Always(faultinject.ErrInjected))
	if _, err := iterateAll(r, nil); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("record scan under a CSV read fault: %v", err)
	}
	if builds, nanos := r.BuildStats(); builds != 1 || nanos <= 0 {
		t.Fatalf("BuildStats = %d, %d after a cold record scan", builds, nanos)
	}
}

// TestFieldRequestedTwice: a projection that names a field twice is an
// error, not a scan that silently skips every row.
func TestFieldRequestedTwice(t *testing.T) {
	r, err := Open(desc(t, writeFile(t, sample), nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := iterateAll(r, []string{"id", "name", "id"}); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("record scan of id,name,id: %v", err)
	}
	if _, err := boxBatches(r, []string{"score", "score"}); err == nil {
		t.Fatal("batch scan of score,score answered")
	}
}
