package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vida/internal/sched"
	"vida/internal/serve"
	"vida/internal/trace"
)

// analyzeResponse mirrors the JSON of POST /explain with analyze=true.
type analyzeResponse struct {
	QueryID   string          `json:"query_id"`
	Plan      string          `json:"plan"`
	Rows      int64           `json:"rows"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Spans     *trace.SpanNode `json:"spans"`
}

func postAnalyze(t *testing.T, url, query string) (*analyzeResponse, http.Header, time.Duration) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"query": query, "analyze": true})
	start := time.Now()
	resp, err := http.Post(url+"/explain", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status %d: %s", resp.StatusCode, raw)
	}
	var out analyzeResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("bad analyze response %s: %v", raw, err)
	}
	return &out, resp.Header, elapsed
}

// TestExplainAnalyzeColdWarm is the tracing acceptance test: a cold CSV
// query's span tree shows the raw scan with its positional-map build
// and consistent row counts; the warm repeat flips the scan to the
// cache and drops the build event.
func TestExplainAnalyzeColdWarm(t *testing.T) {
	ts, _ := newTestServer(t, serve.Config{})
	const q = `for { p <- Patients, p.age > 40 } yield sum p.age`
	const patientRows = 900 // newTestEngine's workload scale

	cold, hdr, reqDur := postAnalyze(t, ts.URL, q)
	if cold.Plan == "" {
		t.Fatal("analyze returned no plan")
	}
	if cold.QueryID == "" || hdr.Get("X-Vida-Query-Id") != cold.QueryID {
		t.Fatalf("query id mismatch: body %q header %q", cold.QueryID, hdr.Get("X-Vida-Query-Id"))
	}
	root := cold.Spans
	if root == nil {
		t.Fatal("analyze returned no span tree")
	}
	if root.Name != "explain" {
		t.Fatalf("root span %q, want explain", root.Name)
	}
	if root.DurationMS <= 0 || root.Duration() > reqDur {
		t.Fatalf("root wall time %v outside (0, request duration %v]", root.Duration(), reqDur)
	}
	for _, name := range []string{"queue", "frontend", "fold"} {
		if root.Find(name) == nil {
			t.Fatalf("cold span tree missing %q span:\n%s", name, spanDump(root))
		}
	}
	scan := root.Find("scan")
	if scan == nil {
		t.Fatalf("cold span tree has no scan span:\n%s", spanDump(root))
	}
	if mode := scan.Attrs["mode"]; mode != "raw" {
		t.Fatalf("cold scan mode %v, want raw", mode)
	}
	if scan.Attrs["source"] != "Patients" {
		t.Fatalf("cold scan source %v, want Patients", scan.Attrs["source"])
	}
	if scan.Rows != patientRows {
		t.Fatalf("cold scan counted %d rows, want %d", scan.Rows, patientRows)
	}
	if scan.Bytes <= 0 || scan.Batches <= 0 {
		t.Fatalf("cold scan bytes/batches not accounted: %d/%d", scan.Bytes, scan.Batches)
	}
	if root.Find("posmap_build") == nil {
		t.Fatalf("cold CSV scan recorded no posmap_build event:\n%s", spanDump(root))
	}

	warm, _, _ := postAnalyze(t, ts.URL, q)
	wroot := warm.Spans
	if warm.QueryID == cold.QueryID {
		t.Fatal("warm analyze reused the cold query ID")
	}
	wscan := wroot.Find("scan")
	if wscan == nil {
		t.Fatalf("warm span tree has no scan span:\n%s", spanDump(wroot))
	}
	if mode := wscan.Attrs["mode"]; mode != "cache" {
		t.Fatalf("warm scan mode %v, want cache", mode)
	}
	if wscan.Rows != patientRows {
		t.Fatalf("warm scan counted %d rows, want %d", wscan.Rows, patientRows)
	}
	if wroot.Find("posmap_build") != nil {
		t.Fatalf("warm cache scan still records a posmap build:\n%s", spanDump(wroot))
	}
	if fsp := wroot.Find("frontend"); fsp == nil || fsp.Attrs["plan_cache"] != "hit" {
		t.Fatalf("warm repeat missed the plan cache:\n%s", spanDump(wroot))
	}
}

// spanDump renders a span tree for failure messages.
func spanDump(n *trace.SpanNode) string {
	var sb strings.Builder
	var walk func(n *trace.SpanNode, depth int)
	walk = func(n *trace.SpanNode, depth int) {
		fmt.Fprintf(&sb, "%s%s %.3fms rows=%d attrs=%v\n", strings.Repeat("  ", depth), n.Name, n.DurationMS, n.Rows, n.Attrs)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	if n != nil {
		walk(n, 0)
	}
	return sb.String()
}

// TestQueryIDAndDebugQueries correlates the X-Vida-Query-Id response
// header with the /debug/queries profile ring.
func TestQueryIDAndDebugQueries(t *testing.T) {
	ts, _ := newTestServer(t, serve.Config{})
	const q = `for { p <- Patients } yield count p`

	body, _ := json.Marshal(map[string]any{"query": q})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	qid := resp.Header.Get("X-Vida-Query-Id")
	if qid == "" {
		t.Fatal("no X-Vida-Query-Id header on /query")
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out["query_id"] != qid {
		t.Fatalf("body query_id %v != header %q", out["query_id"], qid)
	}

	prof := findProfile(t, ts.URL, qid)
	if prof.Endpoint != "query" || prof.Status != "ok" {
		t.Fatalf("profile %+v: want endpoint=query status=ok", prof)
	}
	if prof.Spans == nil || prof.Spans.Find("scan") == nil {
		t.Fatalf("profile %s retained no span tree", qid)
	}

	// The cached repeat gets its own ID and a spanless cached profile.
	resp2, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	qid2 := resp2.Header.Get("X-Vida-Query-Id")
	if qid2 == "" || qid2 == qid {
		t.Fatalf("cached repeat query id %q (first was %q)", qid2, qid)
	}
	prof2 := findProfile(t, ts.URL, qid2)
	if !prof2.Cached || prof2.Spans != nil {
		t.Fatalf("cached profile %+v: want cached=true with no spans", prof2)
	}

	// Streams carry the header too, and settle their profile on release.
	sbody, _ := json.Marshal(map[string]any{"query": `for { p <- Patients } yield bag p.id`})
	resp3, err := http.Post(ts.URL+"/stream", "application/json", bytes.NewReader(sbody))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	sid := resp3.Header.Get("X-Vida-Query-Id")
	if sid == "" {
		t.Fatal("no X-Vida-Query-Id header on /stream")
	}
	sprof := findProfile(t, ts.URL, sid)
	if sprof.Endpoint != "stream" || sprof.Status != "ok" {
		t.Fatalf("stream profile %+v: want endpoint=stream status=ok", sprof)
	}
}

// findProfile polls /debug/queries for the given query ID (stream
// profiles are recorded by a deferred release that can trail the
// response by a scheduling beat).
func findProfile(t *testing.T, url, id string) *serve.QueryProfile {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url + "/debug/queries")
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Queries  []*serve.QueryProfile `json:"queries"`
			Recorded int64                 `json:"recorded"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range out.Queries {
			if p.ID == id {
				return p
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("profile %s never appeared in /debug/queries (%d recorded)", id, out.Recorded)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMetricsStatsParity asserts the /stats↔/metrics bijection: every
// scalar in the /stats document maps to exactly one exposition series
// and every scalar series traces back to a /stats field, so the two
// surfaces cannot silently diverge.
func TestMetricsStatsParity(t *testing.T) {
	pool := sched.NewPool(2)
	t.Cleanup(pool.Close)
	eng := newTestEngine(t, pool)
	svc := serve.NewService(eng, pool, serve.Config{})
	ts := httptest.NewServer(serve.NewServer(svc).Handler())
	t.Cleanup(ts.Close)

	// Touch the counters so the snapshot is non-trivial.
	if code, out := postQuery(t, ts.URL, "/query", `for { p <- Patients } yield count p`); code != http.StatusOK {
		t.Fatalf("warm-up query failed: %d %v", code, out)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	paths := map[string]bool{}
	var flatten func(prefix string, v any)
	flatten = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, sub := range x {
				p := k
				if prefix != "" {
					p = prefix + "." + k
				}
				flatten(p, sub)
			}
		case float64, bool:
			paths[prefix] = true
		}
	}
	flatten("", stats)
	if !paths["scheduler.workers"] {
		t.Fatal("stats snapshot has no scheduler section despite an attached pool")
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mraw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	body := string(mraw)
	families := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			families[f[2]] = true
		}
	}

	statToMetric := map[string]string{}
	for _, m := range serve.MetricMappings() {
		if m.Stat != "" {
			if prev, dup := statToMetric[m.Stat]; dup {
				t.Errorf("stats field %s mapped by both %s and %s", m.Stat, prev, m.Name)
			}
			statToMetric[m.Stat] = m.Name
		}
		if !families[m.Name] {
			t.Errorf("metric %s declared but absent from /metrics", m.Name)
		}
	}
	for stat, series := range serve.HistogramStatMetricsForTest() {
		statToMetric[stat] = series
		if !strings.Contains(body, series) {
			t.Errorf("histogram series %s absent from /metrics", series)
		}
	}

	// Every /stats scalar has a /metrics counterpart.
	for p := range paths {
		if _, ok := statToMetric[p]; !ok {
			t.Errorf("stats field %s has no /metrics counterpart", p)
		}
	}
	// Every declared mapping still points at a live /stats field.
	for stat, name := range statToMetric {
		if !paths[stat] {
			t.Errorf("metric %s maps stale stats field %s", name, stat)
		}
	}
	// Every exposition family is accounted for: a scalar def or a
	// histogram.
	known := map[string]bool{}
	for _, m := range serve.MetricMappings() {
		known[m.Name] = true
	}
	for _, h := range serve.HistogramFamiliesForTest() {
		known[h] = true
	}
	for fam := range families {
		if !known[fam] {
			t.Errorf("metric family %s is not in the descriptor table", fam)
		}
	}
}

// TestPhaseAndRequestHistograms checks that executed queries land in
// the per-phase and per-endpoint histograms on /metrics.
func TestPhaseAndRequestHistograms(t *testing.T) {
	ts, _ := newTestServer(t, serve.Config{})
	if code, out := postQuery(t, ts.URL, "/query", `for { p <- Patients, p.age > 40 } yield sum p.age`); code != http.StatusOK {
		t.Fatalf("query failed: %d %v", code, out)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)
	for _, series := range []string{
		`vida_http_request_seconds_count{endpoint="query"}`,
		`vida_query_phase_seconds_count{phase="queue"}`,
		`vida_query_phase_seconds_count{phase="compile"}`,
		`vida_query_phase_seconds_count{phase="scan"}`,
		`vida_query_phase_seconds_count{phase="fold"}`,
	} {
		val, ok := seriesValue(body, series)
		if !ok {
			t.Fatalf("series %s absent from /metrics", series)
		}
		if val < 1 {
			t.Fatalf("series %s = %d, want >= 1", series, val)
		}
	}
}

// seriesValue extracts one integer sample from exposition text.
func seriesValue(body, series string) (int64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			var v int64
			if _, err := fmt.Sscanf(rest, "%d", &v); err == nil {
				return v, true
			}
		}
	}
	return 0, false
}
