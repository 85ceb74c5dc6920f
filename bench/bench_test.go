package main

import (
	"context"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"vida/internal/sched"
)

func TestMain(m *testing.M) {
	slog.SetLogLoggerLevel(slog.LevelWarn) // as main does
	os.Exit(m.Run())
}

// toyEnv runs a workload at toy size: thousands of rows, not hundreds of
// thousands, one set-up, a window of well under a second.
func toyEnv(t *testing.T) *env {
	return &env{seed: 7, seconds: 0.7, dir: t.TempDir(), sz: toySizes, setups: 1}
}

// benchmarkJSON is the contract file at the repository's root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestContractMatchesCode keeps BENCHMARK.json and the tables in the code
// from drifting apart.
func TestContractMatchesCode(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(suite) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the suite", len(bj.Workloads), len(suite))
	}
	for i, w := range bj.Workloads {
		if w.Name != suite[i].name || w.Why != suite[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the suite %q (%q)", i, w.Name, w.Why, suite[i].name, suite[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(gated) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d gated", len(bj.EndToEnd), len(gated))
	}
	for i, m := range bj.EndToEnd {
		g := gated[i]
		better := "lower"
		if g.higher {
			better = "higher"
		}
		if m.Name != g.name || m.Unit != g.unit || m.Better != better || m.Bound != g.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, the code %+v", i, m, g)
		}
	}
	if len(bj.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the code", len(bj.PerLayer), len(perLayerMetrics))
	}
	for i, m := range bj.PerLayer {
		if m.Name != perLayerMetrics[i] {
			t.Errorf("per_layer %d: BENCHMARK.json has %s, the code %s", i, m.Name, perLayerMetrics[i])
		}
	}
}

// TestSmoke runs every workload at toy size, tracing off and on, and
// checks what the benchmark promises: every named metric comes with a
// unit, no answer is wrong, each workload exercises the layers it was
// built for and leaves alone the ones it was built to bypass, and nothing
// keeps running once the engines are closed.
func TestSmoke(t *testing.T) {
	// The shared scheduler starts its workers once and keeps them.
	sched.Default().Run(context.Background(), 1, func(int) error { return nil })
	baseline := runtime.NumGoroutine()
	bj := readBenchmarkJSON(t)

	for i := range suite {
		w := &suite[i]
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, toyEnv(t))
			if err != nil {
				t.Fatal(err)
			}
			if res.Attempted == 0 || res.failRatio() != 0 {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			for _, m := range bj.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value == 0 {
					t.Errorf("end-to-end metric %s: got %+v, want a non-zero value in %s", m.Name, got, m.Unit)
				}
			}
			if _, ok := res.Details[w.headline]; !ok {
				t.Errorf("headline metric %s is missing", w.headline)
			}
			for _, name := range []string{"lat_tail_ms", "fail_ratio", "datagen_s"} {
				if m, ok := res.Details[name]; !ok || m.Unit == "" {
					t.Errorf("detail %s: got %+v", name, m)
				}
			}
			if len(res.Checks) == 0 && w.name != "explore" {
				t.Error("no isolation check ran")
			}
			for name, held := range res.Checks {
				if !held {
					t.Errorf("isolation check %s does not hold", name)
				}
			}
		})
		t.Run(w.name+"/traced", func(t *testing.T) {
			tr, err := runTrace(w, toyEnv(t))
			if err != nil {
				t.Fatal(err)
			}
			if tr.attempted == 0 || tr.failed != 0 {
				t.Errorf("attempted %d, failed %d", tr.attempted, tr.failed)
			}
			for _, m := range bj.PerLayer {
				if got, ok := tr.metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
				}
			}
			// Every instant of a round trip belongs to exactly one span.
			rows, total := tr.selfTimes(treeRequest)
			var sum time.Duration
			for _, r := range rows {
				sum += r.self
			}
			if d := sum - total; d < -time.Microsecond || d > time.Microsecond {
				t.Errorf("self times sum to %v, the round trips to %v", sum, total)
			}
			path := filepath.Join(t.TempDir(), "trace.json")
			if err := writeTrace(path, tr); err != nil {
				t.Fatal(err)
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
				t.Errorf("trace.json: %v", err)
			}
		})
	}

	// Closed engines, stopped listeners and closed clients leave no
	// goroutine behind; idle connections take a moment to wind down.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after:\n%s", baseline, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestCompare pins the verdicts of -compare.
func TestCompare(t *testing.T) {
	qps := gate{name: "qps", unit: "1/s", higher: true, bound: 0.10}
	lat := gate{name: "lat_p50_ms", unit: "ms", bound: 0.10}
	for _, c := range []struct {
		g        gate
		old, cur metric
		want     string
	}{
		{qps, metric{Value: 100}, metric{Value: 104}, "within"},
		{qps, metric{Value: 100}, metric{Value: 85}, "worse"},
		{qps, metric{Value: 100}, metric{Value: 120}, "better"},
		{lat, metric{Value: 10}, metric{Value: 12}, "worse"},
		{lat, metric{Value: 10}, metric{Value: 8}, "better"},
		{lat, metric{Value: 10, IQR: 3}, metric{Value: 10.5}, "unresolved"},
	} {
		if _, got := verdict(c.g, c.old, c.cur); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.g.name, c.old.Value, c.cur.Value, got, c.want)
		}
	}
}
