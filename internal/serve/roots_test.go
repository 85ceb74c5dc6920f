package serve_test

// Root-equivalence matrix: every root shape the compiler can choose
// (fold, elements, top-k, quota, under a group-agg stage or not) answers
// the same through every API — buffered Query, a drained QueryRows
// cursor, /query or /sql, /stream — at one and at four workers, under
// the JIT and the reference executor. Plus the cursor cancellation and
// buffered-execution contracts of the one execution path.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"vida"
	"vida/internal/core"
	"vida/internal/sched"
	"vida/internal/sdg"
	"vida/internal/serve"
	"vida/internal/values"
	"vida/internal/workload"
)

// matrixRows is above jit.DefaultParallelThreshold, so a four-worker
// engine runs every partitionable root morsel-parallel.
const matrixRows = 10000

// matrixEngine registers a matrixRows-row Patients CSV (id, age, gender,
// city, visits, bmi) and builds its positional map, so later scans can
// split into morsels.
func matrixEngine(t *testing.T, opts ...vida.Option) *vida.Engine {
	t.Helper()
	sc := workload.Scale{PatientsRows: matrixRows, PatientsCols: 6}
	path := filepath.Join(t.TempDir(), "patients.csv")
	if err := workload.GeneratePatients(path, sc, 11); err != nil {
		t.Fatal(err)
	}
	eng := vida.New(opts...)
	if err := eng.RegisterCSV("Patients", path, workload.PatientsSchema(sc), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query("for { p <- Patients } yield count p"); err != nil {
		t.Fatal(err)
	}
	return eng
}

// rootShape says how a case's rows compare across APIs.
type rootShape int

const (
	shapeScalar    rootShape = iota // exactly one row, equal
	shapeOrdered                    // equal rows in equal order
	shapeUnordered                  // equal multisets
	shapeSet                        // equal sets, no row repeated
	shapeLimited                    // bare bag/set LIMIT: which rows is unspecified — same count, rows drawn from the unlimited result
)

type rootCase struct {
	name  string
	q     string // comprehension text (translated from sql when empty)
	sql   string // when set, the HTTP buffered path posts it to /sql
	shape rootShape
	// universe, for shapeLimited, is the unlimited query the rows must be
	// drawn from.
	universe string
}

var rootCases = []rootCase{
	{name: "scalar fold", sql: "SELECT COUNT(*) FROM Patients p WHERE p.age > 40", shape: shapeScalar},
	{name: "scalar fold sum", q: "for { p <- Patients, p.city = \"bern\" } yield sum p.visits", shape: shapeScalar},
	{name: "array", q: "for { p <- Patients, p.age > 75 } yield array p.id", shape: shapeOrdered},
	{name: "bag", sql: "SELECT p.id, p.city FROM Patients p WHERE p.age > 50", shape: shapeUnordered},
	{name: "list", q: "for { p <- Patients, p.age > 50 } yield list (id := p.id, bmi := p.bmi)", shape: shapeOrdered},
	{name: "set", sql: "SELECT DISTINCT p.city FROM Patients p", shape: shapeSet},
	{name: "set of records", q: "for { p <- Patients } yield set (g := p.gender, c := p.city)", shape: shapeSet},
	{name: "ordered limit", sql: "SELECT p.id, p.bmi FROM Patients p ORDER BY p.bmi DESC, p.id LIMIT 10", shape: shapeOrdered},
	{name: "ordered", sql: "SELECT p.id, p.age FROM Patients p WHERE p.visits > 15 ORDER BY p.age, p.id", shape: shapeOrdered},
	{name: "bare limit bag", q: "for { p <- Patients } yield bag p.id limit 25 offset 5", shape: shapeLimited,
		universe: "for { p <- Patients } yield bag p.id"},
	{name: "bare limit list", q: "for { p <- Patients } yield list p.id limit 25 offset 5", shape: shapeOrdered},
	{name: "bare limit set", q: "for { p <- Patients } yield set p.city limit 3", shape: shapeLimited,
		universe: "for { p <- Patients } yield set p.city"},
	{name: "grouped", sql: "SELECT p.city, COUNT(*) AS n, SUM(p.visits) AS v FROM Patients p GROUP BY p.city", shape: shapeUnordered},
	{name: "grouped having ordered", sql: "SELECT p.city, COUNT(*) AS n, SUM(p.visits) AS v FROM Patients p GROUP BY p.city HAVING COUNT(*) > 10 ORDER BY v DESC, p.city", shape: shapeOrdered},
}

// jsonRow canonicalizes one encoded result row: decoded and re-encoded
// with sorted object keys, so every API's encoder compares equal.
func jsonRow(t *testing.T, raw []byte) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("bad JSON row %q: %v", raw, err)
	}
	return canonical(t, v)
}

func valueRows(t *testing.T, rows []vida.Value) []string {
	t.Helper()
	out := make([]string, len(rows))
	for i, r := range rows {
		b, err := r.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = jsonRow(t, b)
	}
	return out
}

// runAPI answers c through one API and returns its rows.
func runAPI(t *testing.T, eng *vida.Engine, url, api string, c rootCase) []string {
	t.Helper()
	switch api {
	case "Query":
		res, err := eng.Query(c.q)
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		return valueRows(t, res.Rows())
	case "QueryRows":
		rows, err := eng.QueryRows(c.q)
		if err != nil {
			t.Fatalf("QueryRows: %v", err)
		}
		defer rows.Close()
		var vs []vida.Value
		for rows.Next() {
			vs = append(vs, rows.Value())
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("QueryRows: %v", err)
		}
		return valueRows(t, vs)
	case "/query|/sql":
		endpoint, text := "/query", c.q
		if c.sql != "" {
			endpoint, text = "/sql", c.sql
		}
		status, body := postRaw(t, url, endpoint, map[string]any{"query": text})
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", endpoint, status, body)
		}
		var out struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		var elems []json.RawMessage
		if json.Unmarshal(out.Result, &elems) != nil {
			return []string{jsonRow(t, out.Result)}
		}
		rows := make([]string, len(elems))
		for i, e := range elems {
			rows[i] = jsonRow(t, e)
		}
		return rows
	case "/stream":
		status, body := postRaw(t, url, "/stream", map[string]any{"query": c.q})
		if status != http.StatusOK {
			t.Fatalf("/stream: status %d: %s", status, body)
		}
		var rows []string
		sc := bufio.NewScanner(bytes.NewReader(body))
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Bytes()
			var trailer struct {
				Done  bool   `json:"done"`
				Error string `json:"error"`
			}
			if bytes.HasPrefix(line, []byte(`{"done"`)) || bytes.HasPrefix(line, []byte(`{"error"`)) {
				json.Unmarshal(line, &trailer)
				if !trailer.Done {
					t.Fatalf("/stream error trailer: %s", line)
				}
				return rows
			}
			rows = append(rows, jsonRow(t, line))
		}
		t.Fatalf("/stream ended without a done record")
	}
	panic("unknown api " + api)
}

func sorted(rows []string) []string {
	out := append([]string(nil), rows...)
	sort.Strings(out)
	return out
}

func TestRootEquivalenceMatrix(t *testing.T) {
	type config struct {
		name string
		opts []vida.Option
	}
	configs := []config{
		{"jit/workers=1", []vida.Option{vida.WithWorkers(1)}},
		{"jit/workers=4", []vida.Option{vida.WithWorkers(4)}},
		{"reference/workers=1", []vida.Option{vida.WithWorkers(1), vida.WithReferenceExecutor()}},
		{"reference/workers=4", []vida.Option{vida.WithWorkers(4), vida.WithReferenceExecutor()}},
	}
	apis := []string{"Query", "QueryRows", "/query|/sql", "/stream"}

	// want[i] is case i's answer from the first configuration's first
	// API; universes hold the unlimited results of the limited cases.
	want := make([][]string, len(rootCases))
	universes := map[string]map[string]int{}
	for ci, cfg := range configs {
		eng := matrixEngine(t, cfg.opts...)
		ts := httptest.NewServer(serve.NewServer(serve.NewService(eng, nil, serve.Config{})).Handler())
		for i, c := range rootCases {
			if c.q == "" {
				q, err := eng.TranslateSQL(c.sql)
				if err != nil {
					t.Fatal(err)
				}
				c.q = q
			}
			if c.universe != "" && universes[c.universe] == nil {
				res, err := eng.Query(c.universe)
				if err != nil {
					t.Fatal(err)
				}
				universes[c.universe] = map[string]int{}
				for _, r := range valueRows(t, res.Rows()) {
					universes[c.universe][r]++
				}
			}
			for _, api := range apis {
				got := runAPI(t, eng, ts.URL, api, c)
				where := cfg.name + " " + api + " " + c.name
				if want[i] == nil {
					if len(got) == 0 {
						t.Fatalf("%s: empty answer", where)
					}
					want[i] = got
				}
				switch c.shape {
				case shapeScalar:
					if len(got) != 1 || got[0] != want[i][0] {
						t.Fatalf("%s: rows %v, want exactly one row %v", where, got, want[i])
					}
				case shapeOrdered:
					if strings.Join(got, "\n") != strings.Join(want[i], "\n") {
						t.Fatalf("%s: %d rows differ from (or are out of the order of) the %d expected:\n got %.300v\nwant %.300v", where, len(got), len(want[i]), got, want[i])
					}
				case shapeUnordered, shapeSet:
					if strings.Join(sorted(got), "\n") != strings.Join(sorted(want[i]), "\n") {
						t.Fatalf("%s: %d rows differ from the %d expected", where, len(got), len(want[i]))
					}
				case shapeLimited:
					if len(got) != len(want[i]) {
						t.Fatalf("%s: %d rows, want %d", where, len(got), len(want[i]))
					}
					left := map[string]int{}
					for r, n := range universes[c.universe] {
						left[r] = n
					}
					for _, r := range got {
						if left[r]--; left[r] < 0 {
							t.Fatalf("%s: row %s is not in the unlimited result", where, r)
						}
					}
				}
				if strings.HasPrefix(c.name, "set") || c.name == "bare limit set" {
					seen := map[string]bool{}
					for _, r := range got {
						if seen[r] {
							t.Fatalf("%s: set repeats %s", where, r)
						}
						seen[r] = true
					}
				}
			}
		}
		ts.Close()
		if ci == 1 && eng.Stats().GroupPartialMerges == 0 {
			t.Fatalf("%s: the grouped cases never went morsel-parallel", cfg.name)
		}
	}
}

// endlessSource yields rows until its consumer stops it, signalling
// entered on its first row — a scan that is certainly mid-flight.
type endlessSource struct {
	name    string
	entered chan struct{}
}

func (s *endlessSource) Name() string { return s.name }

func (s *endlessSource) Iterate(fields []string, yield func(values.Value) error) error {
	row := values.NewRecord(values.Field{Name: "x", Val: values.NewInt(1)})
	for i := 0; ; i++ {
		if i == 1 {
			close(s.entered)
		}
		if i%1024 == 0 {
			time.Sleep(time.Millisecond)
		}
		if err := yield(row); err != nil {
			return err
		}
	}
}

// goroutinesBefore counts goroutines ahead of a cursor, once the shared
// scheduler pool (which starts its workers on first use) is running.
func goroutinesBefore() int {
	sched.Default()
	return runtime.NumGoroutine()
}

// assertUnwound checks a cancelled cursor left nothing behind: its
// goroutines exit and the engine's close gate is free.
func assertUnwound(t *testing.T, eng *vida.Engine, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines: %d before the cursor, %d after cancel (leak)", before, n)
	}
	done := make(chan error, 1)
	go func() { done <- eng.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Engine.Close blocked: the cancelled cursor still holds its close-gate slot")
	}
}

// TestCursorCancelFoldRoot cancels a cursor whose fold root is still
// scanning: the cursor ends with context.Canceled and unwinds.
func TestCursorCancelFoldRoot(t *testing.T) {
	eng := vida.New(vida.WithWorkers(1))
	src := &endlessSource{name: "Endless", entered: make(chan struct{})}
	if err := eng.Internal().RegisterSource(sdg.DefaultDescription("Endless", sdg.FormatTable, "", sdg.Bag(sdg.Unknown)), src); err != nil {
		t.Fatal(err)
	}
	before := goroutinesBefore()
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := eng.QueryRowsCtx(ctx, "for { s <- Endless } yield count s")
	if err != nil {
		t.Fatal(err)
	}
	<-src.entered
	cancel()
	if rows.Next() {
		t.Fatalf("fold cursor produced a row after cancel: %v", rows.Value())
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
	rows.Close()
	assertUnwound(t, eng, before)
}

// TestCursorCancelParallelBag cancels a morsel-parallel bag cursor after
// its first rows: the blocked workers give up, the cursor ends with
// context.Canceled and unwinds.
func TestCursorCancelParallelBag(t *testing.T) {
	eng := matrixEngine(t, vida.WithWorkers(4))
	before := goroutinesBefore()
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := eng.QueryRowsCtx(ctx, "for { p <- Patients } yield bag (id := p.id, city := p.city)")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	cancel()
	n := 1
	for rows.Next() {
		n++
	}
	if n >= matrixRows {
		t.Fatalf("cursor delivered all %d rows despite cancel", n)
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
	rows.Close()
	assertUnwound(t, eng, before)
}

// callerSource records whether each scan ran on a goroutine whose stack
// holds the test function — the caller of the query.
type callerSource struct {
	caller  string
	onStack []bool
}

func (s *callerSource) Name() string { return "Caller" }

func (s *callerSource) Iterate(fields []string, yield func(values.Value) error) error {
	buf := make([]byte, 64<<10)
	s.onStack = append(s.onStack, strings.Contains(string(buf[:runtime.Stack(buf, false)]), s.caller))
	for i := 0; i < 64; i++ {
		if err := yield(values.NewRecord(values.Field{Name: "x", Val: values.NewInt(int64(i))})); err != nil {
			return err
		}
	}
	return nil
}

// TestBufferedRunsWithoutCursor: a buffered bag query executes on the
// caller's goroutine — no producer goroutine, channel or cursor between
// the program and the collecting sink — while a cursor's scan runs on
// its producer goroutine; the buffered run also allocates less than a
// drained cursor over the same program.
func TestBufferedRunsWithoutCursor(t *testing.T) {
	eng := vida.New(vida.WithWorkers(1), vida.WithoutCaching())
	src := &callerSource{caller: "TestBufferedRunsWithoutCursor"}
	if err := eng.Internal().RegisterSource(sdg.DefaultDescription("Caller", sdg.FormatTable, "", sdg.Bag(sdg.Unknown)), src); err != nil {
		t.Fatal(err)
	}
	const q = "for { s <- Caller } yield bag s.x"
	queries := eng.Stats().Queries
	res, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := eng.QueryRows(q)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	rows.Close()
	if res.Len() != 64 || n != 64 {
		t.Fatalf("rows: buffered %d, cursor %d, want 64", res.Len(), n)
	}
	if len(src.onStack) != 2 || !src.onStack[0] || src.onStack[1] {
		t.Fatalf("scan on the caller's goroutine: buffered/cursor = %v, want [true false]", src.onStack)
	}
	if got := eng.Stats().Queries - queries; got != 2 {
		t.Fatalf("Stats.Queries advanced by %d, want 2 (one execution each)", got)
	}
	buffered := testing.AllocsPerRun(20, func() {
		if _, err := eng.Query(q); err != nil {
			t.Fatal(err)
		}
	})
	cursor := testing.AllocsPerRun(20, func() {
		rows, err := eng.QueryRows(q)
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
		}
		rows.Close()
	})
	if buffered >= cursor {
		t.Fatalf("buffered run allocates %.0f/op, a drained cursor %.0f/op: the buffered path pays for cursor machinery", buffered, cursor)
	}
}

// TestSelectStarBudget507ReleasesSlot: /sql SELECT * over 900 wide rows
// overruns a 16 KiB per-query budget in the collecting sink — 507, the
// only execution slot released, the engine still answering.
func TestSelectStarBudget507ReleasesSlot(t *testing.T) {
	eng := newTestEngine(t, nil, vida.WithQueryMemoryBudget(16<<10))
	svc := serve.NewService(eng, nil, serve.Config{MaxInFlight: 1, MaxQueue: -1})
	ts := httptest.NewServer(serve.NewServer(svc).Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		status, body := postRaw(t, ts.URL, "/sql", map[string]any{"query": "SELECT * FROM Patients p"})
		if status != http.StatusInsufficientStorage || !strings.Contains(string(body), "memory budget") {
			t.Fatalf("SELECT * under a 16 KiB budget: status %d (%.200s), want 507", status, body)
		}
		if st := svc.StatsSnapshot(); st.InFlight != 0 {
			t.Fatalf("InFlight = %d after 507, want 0 (leaked slot)", st.InFlight)
		}
	}
	status, body := postRaw(t, ts.URL, "/sql", map[string]any{"query": "SELECT p.id FROM Patients p WHERE p.id < 5"})
	if status != http.StatusOK {
		t.Fatalf("small query after 507: status %d (%s), want 200", status, body)
	}
	var mbe *core.MemoryBudgetError
	if _, err := eng.QuerySQL("SELECT * FROM Patients p"); !errors.As(err, &mbe) || mbe.Scope != "query" {
		t.Fatalf("Go API err = %v, want a query-scoped *core.MemoryBudgetError", err)
	}
}
