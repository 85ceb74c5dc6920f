package serve_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vida"
	"vida/internal/serve"
)

// The result cache serves a result while the source generations its plan
// read are current: a change to one source evicts exactly the results
// that read it.

const genSchema = "Record(Att(id, int), Att(age, int), Att(city, string), Att(score, float))"

// genRows renders rows lo..hi-1 of a generation-test file.
func genRows(lo, hi int) string {
	var sb strings.Builder
	for i := lo; i < hi; i++ {
		fmt.Fprintf(&sb, "%d,%d,c%d,%g\n", i, 20+i%50, i%5, float64(i)/2)
	}
	return sb.String()
}

// writeGenFile (re)writes a generation-test file with rows lo..hi-1 and
// moves its mtime forward so Refresh notices the change.
func writeGenFile(t *testing.T, path string, lo, hi int) {
	t.Helper()
	if err := os.WriteFile(path, []byte("id,age,city,score\n"+genRows(lo, hi)), 0o644); err != nil {
		t.Fatal(err)
	}
	bumpGenMtime(t, path)
}

// appendGenFile appends rows lo..hi-1 to a generation-test file.
func appendGenFile(t *testing.T, path string, lo, hi int) {
	t.Helper()
	fh, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.WriteString(genRows(lo, hi)); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	bumpGenMtime(t, path)
}

// bumpGenMtime moves a file's mtime forward so Refresh notices a change.
func bumpGenMtime(t *testing.T, path string) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	at := fi.ModTime().Add(2 * time.Second)
	if err := os.Chtimes(path, at, at); err != nil {
		t.Fatal(err)
	}
}

// genEngine registers A and B over their files on a new engine, with the
// cleaner rules given attached to A.
func genEngine(t *testing.T, a, b string, rules ...vida.CleanRule) *vida.Engine {
	t.Helper()
	eng := vida.New()
	for name, path := range map[string]string{"A": a, "B": b} {
		if err := eng.RegisterCSV(name, path, genSchema, nil); err != nil {
			t.Fatal(err)
		}
	}
	if rules != nil {
		if err := eng.AttachCleaner("A", rules...); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

var genQueries = []string{
	`for { a <- A } yield count a.score`,
	`for { a <- A, a.age > 30 } yield sum a.score`,
}

// queryCached runs q through the service and reports whether the answer
// came from the result cache; err is the query's failure.
func queryCached(t *testing.T, svc *serve.Service, q string) (*vida.Result, bool, error) {
	t.Helper()
	out, err := svc.Query(context.Background(), q, nil, 0)
	if err != nil {
		return nil, false, err
	}
	return out.Result, out.Cached, nil
}

// warmGenQueries runs every genQueries text twice; the repeat must be a
// result-cache hit.
func warmGenQueries(t *testing.T, svc *serve.Service) {
	t.Helper()
	for _, q := range genQueries {
		for i, want := range []bool{false, true} {
			if _, cached, err := queryCached(t, svc, q); err != nil || cached != want {
				t.Fatalf("warm-up run %d of %s: cached=%v (%v), want cached=%v", i, q, cached, err, want)
			}
		}
	}
}

// TestResultCacheSurvivesOtherSourceAppend: an append to B leaves the
// results over A current, while B's own results roll over.
func TestResultCacheSurvivesOtherSourceAppend(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.csv"), filepath.Join(dir, "b.csv")
	writeGenFile(t, a, 0, 50)
	writeGenFile(t, b, 0, 50)
	eng := genEngine(t, a, b)
	svc := serve.NewService(eng, nil, serve.Config{})
	warmGenQueries(t, svc)
	const overB = `for { b <- B } yield count b`
	if _, _, err := queryCached(t, svc, overB); err != nil {
		t.Fatal(err)
	}

	appendGenFile(t, b, 50, 60)
	if err := eng.Refresh(); err != nil {
		t.Fatal(err)
	}
	for _, q := range genQueries {
		if _, cached, err := queryCached(t, svc, q); err != nil || !cached {
			t.Fatalf("%s after an append to B: cached=%v (%v), want a result-cache hit", q, cached, err)
		}
	}
	res, cached, err := queryCached(t, svc, overB)
	if err != nil || cached || res.Value().Int() != 60 {
		t.Fatalf("%s after an append to B = %v (cached=%v, %v), want 60 rows, executed", overB, res, cached, err)
	}
}

// TestResultCacheFollowsGeneration: after an append, a replace, a cleaner
// or a deregistration of A, the next answer over A is executed, not
// cached, and equals a fresh engine's; the answer after it is cached
// again.
func TestResultCacheFollowsGeneration(t *testing.T) {
	skip := vida.CleanRule{Attr: "score", Policy: vida.CleanSkipRow, Max: vida.CleanFloat(5)}
	changes := []struct {
		name  string
		apply func(t *testing.T, eng *vida.Engine, a string)
		rules []vida.CleanRule // attached on the fresh engine
		gone  bool
	}{
		{name: "append", apply: func(t *testing.T, eng *vida.Engine, a string) {
			appendGenFile(t, a, 50, 60)
			if err := eng.Refresh(); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "replace", apply: func(t *testing.T, eng *vida.Engine, a string) {
			writeGenFile(t, a, 10, 40)
			if err := eng.Refresh(); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "cleaner", apply: func(t *testing.T, eng *vida.Engine, _ string) {
			if err := eng.AttachCleaner("A", skip); err != nil {
				t.Fatal(err)
			}
		}, rules: []vida.CleanRule{skip}},
		{name: "deregister", apply: func(t *testing.T, eng *vida.Engine, _ string) {
			eng.Internal().Deregister("A")
		}, gone: true},
	}
	for _, ch := range changes {
		t.Run(ch.name, func(t *testing.T) {
			dir := t.TempDir()
			a, b := filepath.Join(dir, "a.csv"), filepath.Join(dir, "b.csv")
			writeGenFile(t, a, 0, 50)
			writeGenFile(t, b, 0, 50)
			eng := genEngine(t, a, b)
			svc := serve.NewService(eng, nil, serve.Config{})
			warmGenQueries(t, svc)
			ch.apply(t, eng, a)
			if ch.gone {
				for _, q := range genQueries {
					if res, cached, err := queryCached(t, svc, q); err == nil {
						t.Fatalf("%s over the deregistered source = %v (cached=%v), want an error", q, res, cached)
					}
				}
				return
			}
			fresh := genEngine(t, a, b, ch.rules...)
			for _, q := range genQueries {
				want, err := fresh.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				for i, wantCached := range []bool{false, true} {
					got, cached, err := queryCached(t, svc, q)
					if err != nil || cached != wantCached || !got.Value().Equal(want.Value()) {
						t.Fatalf("run %d of %s after the %s: %v (cached=%v, %v), want %v (fresh engine, cached=%v)",
							i, q, ch.name, got, cached, err, want, wantCached)
					}
				}
			}
		})
	}
}
