package rawjson

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vida/internal/faultinject"
	"vida/internal/sdg"
	"vida/internal/values"
)

func writeFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func open(t *testing.T, content string) *Reader {
	t.Helper()
	d := sdg.DefaultDescription("j", sdg.FormatJSON, writeFile(t, content), sdg.Bag(sdg.Unknown))
	r, err := Open(d)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestParseScalars(t *testing.T) {
	cases := map[string]values.Value{
		`42`:     values.NewInt(42),
		`-7`:     values.NewInt(-7),
		`3.5`:    values.NewFloat(3.5),
		`-2e3`:   values.NewFloat(-2000),
		`"hi"`:   values.NewString("hi"),
		`"a\nb"`: values.NewString("a\nb"),
		`"A"`:    values.NewString("A"),
		`true`:   values.True,
		`false`:  values.False,
		`null`:   values.Null,
	}
	for src, want := range cases {
		v, _, err := ParseValue([]byte(src), 0)
		if err != nil {
			t.Fatalf("ParseValue(%q): %v", src, err)
		}
		if !values.Equal(v, want) {
			t.Fatalf("ParseValue(%q) = %v, want %v", src, v, want)
		}
	}
}

func TestParseNested(t *testing.T) {
	src := `{"id": 1, "tags": ["a", "b"], "geo": {"x": 1.5, "y": -2}}`
	v, _, err := ParseValue([]byte(src), 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.MustGet("id").Int() != 1 {
		t.Fatalf("id = %v", v)
	}
	tags := v.MustGet("tags")
	if tags.Kind() != values.KindList || tags.Len() != 2 {
		t.Fatalf("tags = %v", tags)
	}
	if v.MustGet("geo").MustGet("y").Int() != -2 {
		t.Fatalf("geo = %v", v.MustGet("geo"))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{``, `{`, `{"a"}`, `{"a":}`, `[1,`, `"unterminated`, `tru`, `{"a":1,}x`, `nul`}
	for _, src := range bad {
		if _, _, err := ParseValue([]byte(src), 0); err == nil {
			t.Fatalf("ParseValue(%q) should fail", src)
		}
	}
}

func TestSkipValueMatchesParse(t *testing.T) {
	srcs := []string{
		`{"a": [1, {"b": "}]"}], "c": "x"}`,
		`[[[1],[2]],3]`,
		`"plain"`,
		`12345`,
		`{"deep": {"deeper": {"deepest": [true, false, null]}}}`,
	}
	for _, src := range srcs {
		_, pEnd, err := ParseValue([]byte(src), 0)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		sEnd, err := SkipValue([]byte(src), 0)
		if err != nil {
			t.Fatalf("skip %q: %v", src, err)
		}
		if pEnd != sEnd {
			t.Fatalf("skip/parse end mismatch for %q: %d vs %d", src, sEnd, pEnd)
		}
	}
}

const arrayFile = `[
  {"id": 1, "name": "r1", "volume": 10.5, "meta": {"algo": "x", "pass": 1}},
  {"id": 2, "name": "r2", "volume": 20.0, "meta": {"algo": "y", "pass": 2}},
  {"id": 3, "name": "r3", "volume": 30.25}
]`

const ndjsonFile = `{"id": 1, "name": "r1"}
{"id": 2, "name": "r2"}
{"id": 3, "name": "r3"}`

func TestIterateArrayFile(t *testing.T) {
	r := open(t, arrayFile)
	var rows []values.Value
	if err := r.Iterate(nil, func(v values.Value) error {
		rows = append(rows, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].MustGet("meta").MustGet("algo").Str() != "y" {
		t.Fatalf("row 1 = %v", rows[1])
	}
}

func TestIterateNDJSON(t *testing.T) {
	r := open(t, ndjsonFile)
	n, err := r.NumObjects()
	if err != nil || n != 3 {
		t.Fatalf("NumObjects = %d, %v", n, err)
	}
}

func TestProjectionAndSemiIndex(t *testing.T) {
	r := open(t, arrayFile)
	var first []values.Value
	if err := r.Iterate([]string{"id", "volume"}, func(v values.Value) error {
		first = append(first, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := r.StatsSnapshot()["partial_parses"]; got != 3 {
		t.Fatalf("partial_parses = %d", got)
	}
	if !r.SemiIndex().HasField("id") || !r.SemiIndex().HasField("volume") {
		t.Fatal("semi-index not populated")
	}
	// Second scan: served from the index.
	var second []values.Value
	if err := r.Iterate([]string{"id", "volume"}, func(v values.Value) error {
		second = append(second, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := r.StatsSnapshot()["indexed_reads"]; got == 0 {
		t.Fatal("indexed scan did not use the index")
	}
	for i := range first {
		if !values.Equal(first[i], second[i]) {
			t.Fatalf("indexed scan diverged at %d: %v vs %v", i, first[i], second[i])
		}
	}
	// Projections keep requested order and null-fill absent fields.
	if first[0].Fields()[0].Name != "id" || first[0].Fields()[1].Name != "volume" {
		t.Fatalf("projection order: %v", first[0])
	}
}

func TestProjectionMissingField(t *testing.T) {
	r := open(t, arrayFile)
	var rows []values.Value
	if err := r.Iterate([]string{"meta"}, func(v values.Value) error {
		rows = append(rows, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Object 3 has no meta: null.
	if !rows[2].MustGet("meta").IsNull() {
		t.Fatalf("missing field should be null: %v", rows[2])
	}
	// Indexed path must agree.
	var again []values.Value
	if err := r.Iterate([]string{"meta"}, func(v values.Value) error {
		again = append(again, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !values.Equal(rows[2], again[2]) {
		t.Fatalf("indexed missing-field mismatch: %v vs %v", rows[2], again[2])
	}
}

func TestObjectSpanAndBytes(t *testing.T) {
	r := open(t, arrayFile)
	s, e, err := r.ObjectSpan(0)
	if err != nil {
		t.Fatal(err)
	}
	if e <= s {
		t.Fatalf("span = [%d,%d)", s, e)
	}
	b, err := r.ObjectBytes(0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), `{"id": 1`) {
		t.Fatalf("object bytes = %q", b)
	}
	v, err := r.ParseObject(2)
	if err != nil || v.MustGet("id").Int() != 3 {
		t.Fatalf("ParseObject(2) = %v, %v", v, err)
	}
	if _, _, err := r.ObjectSpan(17); err == nil {
		t.Fatal("out of range span should fail")
	}
}

func TestExtractPath(t *testing.T) {
	r := open(t, arrayFile)
	v, err := r.ExtractPath(1, "meta.algo")
	if err != nil || v.Str() != "y" {
		t.Fatalf("ExtractPath = %v, %v", v, err)
	}
	v, err = r.ExtractPath(2, "meta.algo") // absent
	if err != nil || !v.IsNull() {
		t.Fatalf("absent path = %v, %v", v, err)
	}
	v, err = r.ExtractPath(0, "volume")
	if err != nil || v.Float() != 10.5 {
		t.Fatalf("scalar path = %v, %v", v, err)
	}
}

func TestRefreshDropsIndex(t *testing.T) {
	path := writeFile(t, ndjsonFile)
	d := sdg.DefaultDescription("j", sdg.FormatJSON, path, sdg.Bag(sdg.Unknown))
	r, err := Open(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.NumObjects(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(ndjsonFile+"\n{\"id\": 4, \"name\": \"r4\"}"), 0o644); err != nil {
		t.Fatal(err)
	}
	fi, _ := os.Stat(path)
	bump := fi.ModTime().Add(2_000_000_000)
	if err := os.Chtimes(path, bump, bump); err != nil {
		t.Fatal(err)
	}
	next, changed, err := r.Refresh()
	if err != nil || !changed {
		t.Fatalf("Refresh = %v, %v", changed, err)
	}
	n, err := next.NumObjects()
	if err != nil || n != 4 {
		t.Fatalf("NumObjects after refresh = %d, %v", n, err)
	}
	// Refresh never changes its receiver.
	if n, err := r.NumObjects(); err != nil || n != 3 || !r.SemiIndex().HasObjects() {
		t.Fatalf("the refreshed generation changed: NumObjects = %d, %v", n, err)
	}
	if again, changed, err := next.Refresh(); err != nil || changed || again != next {
		t.Fatalf("Refresh of an unchanged file = %p, %v, %v; want %p, false", again, changed, err, next)
	}
}

// TestRandomRoundTrip: values marshaled through Go's formatting and parsed
// back must match, across deep random structures.
func TestRandomObjects(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	var render func(v values.Value, sb *strings.Builder)
	render = func(v values.Value, sb *strings.Builder) {
		switch v.Kind() {
		case values.KindNull:
			sb.WriteString("null")
		case values.KindBool:
			fmt.Fprintf(sb, "%v", v.Bool())
		case values.KindInt:
			fmt.Fprintf(sb, "%d", v.Int())
		case values.KindFloat:
			fmt.Fprintf(sb, "%g", v.Float())
		case values.KindString:
			fmt.Fprintf(sb, "%q", v.Str())
		case values.KindRecord:
			sb.WriteByte('{')
			for i, f := range v.Fields() {
				if i > 0 {
					sb.WriteByte(',')
				}
				fmt.Fprintf(sb, "%q:", f.Name)
				render(f.Val, sb)
			}
			sb.WriteByte('}')
		case values.KindList:
			sb.WriteByte('[')
			for i, e := range v.Elems() {
				if i > 0 {
					sb.WriteByte(',')
				}
				render(e, sb)
			}
			sb.WriteByte(']')
		}
	}
	var randomVal func(depth int) values.Value
	randomVal = func(depth int) values.Value {
		k := r.Intn(7)
		if depth <= 0 && k >= 5 {
			k = r.Intn(5)
		}
		switch k {
		case 0:
			return values.Null
		case 1:
			return values.NewBool(r.Intn(2) == 0)
		case 2:
			return values.NewInt(int64(r.Intn(2000) - 1000))
		case 3:
			return values.NewFloat(float64(r.Intn(1000)) / 4)
		case 4:
			return values.NewString(fmt.Sprintf("s%d", r.Intn(100)))
		case 5:
			n := r.Intn(4)
			fs := make([]values.Field, n)
			for i := range fs {
				fs[i] = values.Field{Name: fmt.Sprintf("f%d", i), Val: randomVal(depth - 1)}
			}
			return values.NewRecord(fs...)
		default:
			n := r.Intn(4)
			es := make([]values.Value, n)
			for i := range es {
				es[i] = randomVal(depth - 1)
			}
			return values.NewList(es...)
		}
	}
	for trial := 0; trial < 200; trial++ {
		want := randomVal(3)
		var sb strings.Builder
		render(want, &sb)
		got, _, err := ParseValue([]byte(sb.String()), 0)
		if err != nil {
			t.Fatalf("parse of %q: %v", sb.String(), err)
		}
		if !values.Equal(got, want) {
			t.Fatalf("round trip %q: %v vs %v", sb.String(), got, want)
		}
	}
}

const dirtyNDJSON = `{"id": 1, "v": 10}
this is not json at all
{"id": 2, "v": 20}
{"id": 3, "v":}
{"id": 4, "v": 40}`

func TestMalformedObjectsSkipped(t *testing.T) {
	r := open(t, dirtyNDJSON)
	// Full parse: the unparseable line resyncs during indexing; the
	// structurally-balanced-but-invalid object skips at parse time.
	var full []values.Value
	if err := r.Iterate(nil, func(v values.Value) error {
		full = append(full, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(full) != 3 {
		t.Fatalf("good objects = %d, want 3 (stats %v)", len(full), r.StatsSnapshot())
	}
	if r.StatsSnapshot()["objects_skipped"] == 0 {
		t.Fatal("skips not counted")
	}
	// Projected pass must agree on the row count, as must the indexed
	// re-scan.
	for pass := 0; pass < 2; pass++ {
		var proj []values.Value
		if err := r.Iterate([]string{"v"}, func(v values.Value) error {
			proj = append(proj, v)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(proj) != 3 {
			t.Fatalf("pass %d: projected rows = %d, want 3", pass, len(proj))
		}
		sum := int64(0)
		for _, p := range proj {
			sum += p.MustGet("v").Int()
		}
		if sum != 70 {
			t.Fatalf("pass %d: sum = %d, want 70", pass, sum)
		}
	}
}

func TestMalformedObjectsFailPolicy(t *testing.T) {
	d := sdg.DefaultDescription("j", sdg.FormatJSON, writeFile(t, dirtyNDJSON), sdg.Bag(sdg.Unknown))
	d.Options = map[string]string{"onerror": "fail"}
	r, err := Open(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Iterate(nil, func(values.Value) error { return nil }); err == nil {
		t.Fatal("fail policy should surface malformed objects")
	}
}

// TestLoadPairsBytesWithTheirMtime: a file replaced by rename while Open
// loads it is read whole from the handle opened first, with that handle's
// mtime, so the next Refresh notices the rename instead of pairing the
// new file's mtime with the old file's bytes for good.
func TestLoadPairsBytesWithTheirMtime(t *testing.T) {
	defer faultinject.Reset()
	path := filepath.Join(t.TempDir(), "data.json")
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
	t0 := time.Now().Add(-time.Hour).Truncate(time.Second)
	put(ndjsonFile, t0)
	var fired atomic.Bool
	faultinject.Set(faultinject.FileLoad, func() error {
		if fired.CompareAndSwap(false, true) {
			put(strings.Replace(ndjsonFile, "r1", "s1", 1), t0.Add(time.Second))
		}
		return nil
	})
	r, err := Open(sdg.DefaultDescription("j", sdg.FormatJSON, path, sdg.Bag(sdg.Unknown)))
	if err != nil {
		t.Fatal(err)
	}
	name := func(r *Reader) string {
		v, err := r.ExtractPath(0, "name")
		if err != nil {
			t.Fatal(err)
		}
		return v.Str()
	}
	if got := name(r); got != "r1" {
		t.Fatalf("Open read %q, want the file it opened", got)
	}
	next, changed, err := r.Refresh()
	if err != nil || !changed || name(next) != "s1" {
		t.Fatalf("Refresh after a rename during Open: changed %v, %v", changed, err)
	}
}
