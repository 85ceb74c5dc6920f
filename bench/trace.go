package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"vida/internal/sdg"
	coretrace "vida/internal/trace"
)

// The traced run measures single layers from outside the product. It
// records two trees of spans per sampled request, both from this
// package's own code:
//
//   - tree "request": the real HTTP round trip, the product's handler
//     timed by a wrapper inside this process and, folded in beneath it,
//     the span tree the product itself recorded for that query (served at
//     /debug/queries). Self times of this tree add up to the round trip.
//   - tree "layers": the same request taken through each package's public
//     functions in turn (sqlfront.Translate, mcl.Parse/Check/Normalize,
//     algebra.Translate, optimizer.Optimize, jit.CompileWith, the compiled
//     closure over sources wrapped to time every scan call and the
//     pipeline pushed from it, Value.AppendJSON), which splits what the
//     product's scan span cannot: raw parsing or block decoding from the
//     kernels fed by it.
//
// Spans stay in memory until the run ends and are then written to
// bench/out/trace.json.

// span is one timed call as trace.json holds it. Times are nanoseconds
// since the traced run began.
type span struct {
	Workload string `json:"workload"`
	Tree     string `json:"tree"`
	Request  int    `json:"request_id"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0: a root
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	// Calls > 1 marks a span that sums that many short calls (the batches
	// a scan pushed into the pipeline) laid end to end from Start.
	Calls int `json:"calls,omitempty"`
	// Source is "product" for spans taken from the engine's own tracer.
	Source string `json:"source,omitempty"`
}

const (
	treeRequest = "request"
	treeLayers  = "layers"
)

// tracer records the spans and numbers of one workload's traced run.
type tracer struct {
	workload string
	origin   time.Time

	mu    sync.Mutex
	spans []span

	// cur is the request being served, so the handler wrapper knows which
	// root its span belongs under. One client, one request at a time.
	curReq, curRoot atomic.Int64

	attempted, failed int
	untraced, traced  []float64 // round trips of the same sample, ms
	metrics           map[string]metric
	details           map[string]metric
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now(),
		metrics: map[string]metric{}, details: map[string]metric{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span and returns its id.
func (t *tracer) begin(tree string, req, parent int, name, layer string) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Workload: t.workload, Tree: tree, Request: req, ID: len(t.spans) + 1,
		Parent: parent, Name: name, Layer: layer, Start: start})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.Workload, s.ID = t.workload, len(t.spans)+1
	t.spans = append(t.spans, s)
	return s.ID
}

// wrapHandler times the product's handler from inside the process.
func (t *tracer) wrapHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if t.curRoot.Load() == 0 { // a warm-up request of the set-up, not a sampled one
			next.ServeHTTP(w, r)
			return
		}
		id := t.begin(treeRequest, int(t.curReq.Load()), int(t.curRoot.Load()), "serve.Handler "+r.URL.Path, "serve")
		next.ServeHTTP(w, r)
		t.end(id)
	})
}

// realRequest sends one request over HTTP under a root span and folds the
// product's own span tree for that query in beneath the handler span.
func (t *tracer) realRequest(in *instance, cl *client, req int, rq *request) (ok bool, rtt time.Duration, prof *profile, body []byte) {
	root := t.begin(treeRequest, req, 0, "http "+rq.path, "http")
	t.curReq.Store(int64(req))
	t.curRoot.Store(int64(root))
	ok, rtt, body = cl.do(in.url, rq)
	t.end(root)
	t.curRoot.Store(0)
	t.attempted++
	if !ok {
		t.failed++
	}
	prof = findProfile(in, cl.queryID)
	prof.elapsedInBody = elapsedOf(body)
	if prof.spans != nil {
		handler := t.childOf(root)
		t.foldProduct(in, req, handler, prof)
	}
	return ok, rtt, prof, body
}

// childOf returns the id of the first span recorded under parent.
func (t *tracer) childOf(parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := parent; i < len(t.spans); i++ {
		if t.spans[i].Parent == parent {
			return t.spans[i].ID
		}
	}
	return parent
}

// profile is what the product recorded about one query.
type profile struct {
	start         time.Time
	spans         *coretrace.SpanNode
	elapsedInBody time.Duration // the envelope's elapsed_ms; 0 for streams
}

func findProfile(in *instance, id string) *profile {
	profiles, _ := in.svc.Profiles()
	for _, p := range profiles {
		if p.ID == id {
			return &profile{start: p.Start, spans: p.Spans}
		}
	}
	return &profile{}
}

// elapsedOf reads elapsed_ms from a result envelope.
func elapsedOf(body []byte) time.Duration {
	const key = `"elapsed_ms":`
	i := strings.LastIndex(string(body), key)
	if i < 0 {
		return 0
	}
	var v float64
	fmt.Sscanf(string(body[i+len(key):]), "%f", &v)
	return time.Duration(v * float64(time.Millisecond))
}

// foldProduct copies the product's span tree under the handler span. The
// product opens its scan spans beside its fold span although a scan runs
// within the fold, and leaves a parallel scan's span open until the query
// ends; nesting siblings by time restores the call structure, so that
// self times add up.
func (t *tracer) foldProduct(in *instance, req, handler int, prof *profile) {
	base := int64(prof.start.Sub(t.origin))
	t.mu.Lock()
	lo, hi := t.spans[handler-1].Start, t.spans[handler-1].End
	t.mu.Unlock()
	var walk func(n *coretrace.SpanNode, parent int, plo, phi int64)
	walk = func(n *coretrace.SpanNode, parent int, plo, phi int64) {
		start := base + int64(n.StartOffMS*1e6)
		end := start + int64(n.DurationMS*1e6)
		start, end = max(start, plo), min(end, phi)
		if end < start {
			end = start
		}
		id := t.add(span{Tree: treeRequest, Request: req, Parent: parent, Name: n.Name,
			Layer: productLayer(in, n), Start: start, End: end, Source: "product"})
		kids := append([]*coretrace.SpanNode(nil), n.Children...)
		sort.SliceStable(kids, func(a, b int) bool {
			if kids[a].StartOffMS != kids[b].StartOffMS {
				return kids[a].StartOffMS < kids[b].StartOffMS
			}
			return kids[a].DurationMS > kids[b].DurationMS
		})
		// open holds the siblings whose interval is still running; a kid
		// that starts inside one becomes its child.
		type open struct {
			id     int
			lo, hi int64
		}
		var stack []open
		for _, k := range kids {
			ks := base + int64(k.StartOffMS*1e6)
			for len(stack) > 0 && ks >= stack[len(stack)-1].hi {
				stack = stack[:len(stack)-1]
			}
			p, plo2, phi2 := id, start, end
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				p, plo2, phi2 = top.id, top.lo, top.hi
			}
			before := len(t.spans)
			walk(k, p, plo2, phi2)
			t.mu.Lock()
			s := t.spans[before]
			t.mu.Unlock()
			stack = append(stack, open{id: s.ID, lo: s.Start, hi: s.End})
		}
	}
	walk(prof.spans, handler, lo, hi)
}

// productLayer names the package a product span's time belongs to.
func productLayer(in *instance, n *coretrace.SpanNode) string {
	switch n.Name {
	case "queue", "query", "sql", "stream", "explain":
		return "serve"
	case "parse", "typecheck":
		return "mcl"
	case "optimize":
		return "optimizer"
	case "fold", "merge", "join_build", "join_seal", "join_probe":
		return "jit"
	case "posmap_build":
		return "rawcsv"
	case "semiindex_build":
		return "rawjson"
	case "scan":
		switch n.Attrs["mode"] {
		case "cache":
			return "cache"
		case "cache-encoded":
			return "colenc"
		}
		name, _ := n.Attrs["source"].(string)
		if d, ok := in.eng.Internal().Description(name); ok && d.Format == sdg.FormatJSON {
			return "rawjson"
		}
		return "rawcsv"
	}
	return "core" // frontend, execute: the engine's own glue
}

// layerRow is one line of a per-layer table.
type layerRow struct {
	layer string
	calls int
	busy  time.Duration // sum of span durations
	self  time.Duration // busy minus what child spans cover
}

// selfTimes folds one tree's spans into per-layer rows; total is the
// summed duration of the tree's roots.
//
// For the request tree every instant of a round trip is given to the
// deepest span that covers it, so self times add up to the round trips
// even where the product recorded overlapping siblings (both sides of a
// join). For the layers tree a span's self time is its duration minus the
// part its children cover: morsels that ran in parallel each count in
// full, which is busy time across workers, not wall time.
func (t *tracer) selfTimes(tree string) (rows []layerRow, total time.Duration) {
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Tree == tree {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	by := map[string]*layerRow{}
	row := func(layer string) *layerRow {
		if by[layer] == nil {
			by[layer] = &layerRow{layer: layer}
		}
		return by[layer]
	}
	for _, s := range t.spans {
		if s.Tree != tree {
			continue
		}
		r := row(s.Layer)
		r.calls += max(s.Calls, 1)
		r.busy += time.Duration(s.End - s.Start)
		if s.Parent == 0 {
			total += time.Duration(s.End - s.Start)
		}
		if tree == treeRequest {
			continue
		}
		covered := int64(0)
		ch := kids[s.ID]
		sort.Slice(ch, func(a, b int) bool { return ch[a].Start < ch[b].Start })
		at := s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, at), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		r.self += time.Duration(s.End - s.Start - covered)
	}
	if tree == treeRequest {
		for _, root := range kids[0] {
			for layer, d := range exclusive(root, kids) {
				row(layer).self += d
			}
		}
	}
	for _, r := range by {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].self > rows[b].self })
	return rows, total
}

// exclusive splits a root span's interval among the layers of the spans
// beneath it: each stretch between two span boundaries goes to the
// deepest span covering it, the later-started one on a tie.
func exclusive(root span, kids map[int][]span) map[string]time.Duration {
	type placed struct {
		span
		depth int
	}
	var all []placed
	var cuts []int64
	var walk func(s span, depth int)
	walk = func(s span, depth int) {
		all = append(all, placed{s, depth})
		cuts = append(cuts, s.Start, s.End)
		for _, c := range kids[s.ID] {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
	out := map[string]time.Duration{}
	for i := 1; i < len(cuts); i++ {
		lo, hi := cuts[i-1], cuts[i]
		if hi == lo || lo < root.Start || hi > root.End {
			continue
		}
		best := -1
		for k, p := range all {
			if p.Start <= lo && p.End >= hi &&
				(best < 0 || p.depth > all[best].depth || (p.depth == all[best].depth && p.Start > all[best].Start)) {
				best = k
			}
		}
		out[all[best].Layer] += time.Duration(hi - lo)
	}
	return out
}

// durations lists, per request, the summed duration of the named spans of
// the layers tree.
func (t *tracer) durations(names ...string) []float64 {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	sums := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Tree == treeLayers && want[s.Name] {
			sums[s.Request] += time.Duration(s.End - s.Start)
		}
	}
	out := make([]float64, 0, len(sums))
	for _, req := range sortedInts(sums) {
		out = append(out, float64(sums[req]))
	}
	return out
}

func sortedInts[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// set records a per-layer number.
func (t *tracer) set(name string, value float64, unit string, n int) {
	t.metrics[name] = metric{Value: value, Unit: unit, N: n}
}

func (t *tracer) setMedian(name string, vals []float64, scale float64, unit string) {
	if len(vals) == 0 {
		return
	}
	q1, med, q3 := quartiles(vals)
	t.metrics[name] = metric{Value: med / scale, Unit: unit, N: len(vals), IQR: (q3 - q1) / scale}
}

// print writes the per-layer tables and numbers.
func (t *tracer) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s, traced: one client, %d sampled requests ==\n", t.workload, len(t.traced))
	// The two passes ran the same requests in the same order on two fresh
	// instances, so the overhead is the median of the paired differences.
	diffs := make([]float64, len(t.traced))
	var untracedSum float64
	for i := range diffs {
		diffs[i] = t.traced[i] - t.untraced[i]
		untracedSum += t.untraced[i]
	}
	fmt.Fprintf(w, "  round trip p50 untraced %.4f ms, traced %.4f ms; tracing overhead (median of pairs) %+.4f ms\n",
		median(t.untraced), median(t.traced), median(diffs))
	_, roundTrips := t.selfTimes(treeRequest)
	for _, tree := range []string{treeRequest, treeLayers} {
		rows, _ := t.selfTimes(tree)
		var sum time.Duration
		for _, r := range rows {
			sum += r.self
		}
		if tree == treeRequest {
			fmt.Fprintf(w, "  tree %q: where the %.3f ms of traced round trips went; self times sum to %.1f%% of them and %.1f%% of the untraced\n",
				tree, ms(roundTrips), 100*float64(sum)/float64(max(roundTrips, 1)), 100*ms(sum)/max(untracedSum, 1e-9))
		} else {
			fmt.Fprintf(w, "  tree %q: the same requests through each package's public functions (parallel morsels each count in full)\n", tree)
		}
		tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "    layer\tcalls\tbusy ms\tself ms\tself / round trips")
		for _, r := range rows {
			fmt.Fprintf(tw, "    %s\t%d\t%.3f\t%.3f\t%.1f%%\n", r.layer, r.calls, ms(r.busy), ms(r.self),
				100*float64(r.self)/float64(max(roundTrips, 1)))
		}
		tw.Flush()
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	for _, name := range sortedKeys(t.metrics) {
		m := t.metrics[name]
		fmt.Fprintf(tw, "  layer\t%s\t%.6g\t%s\tn=%d\tiqr=%.4g\n", name, m.Value, m.Unit, m.N, m.IQR)
	}
	for _, name := range sortedKeys(t.details) {
		m := t.details[name]
		fmt.Fprintf(tw, "  detail\t%s\t%.6g\t%s\tn=%d\tiqr=%.4g\n", name, m.Value, m.Unit, m.N, m.IQR)
	}
	tw.Flush()
	fmt.Fprintf(w, "  attempted %d, failed %d\n", t.attempted, t.failed)
}

// writeTrace writes the spans of the given runs to path.
func writeTrace(path string, runs ...*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var all []span
	for _, t := range runs {
		all = append(all, t.spans...)
	}
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{all})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
