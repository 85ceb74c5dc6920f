// Command bench is the end-to-end and per-layer benchmark every later
// change to this repository is measured with. It starts the product's HTTP
// handler (serve.NewServer over serve.NewService over a vida.Engine) in
// this process on a real loopback listener and drives it with a closed
// loop of keep-alive HTTP clients, never more than the machine has
// processors. Every answer is compared with one worked out by plain Go
// loops over the generator's own columns.
//
// Six workloads, each built to stress different layers (see README.md):
// raw-cycle, warm-analytics, point-serve, encoded-restart, refresh-append
// and explore.
//
//	bash bench/run.sh --seed 42                 the whole suite, tracing off
//	bash bench/run.sh --seed 42 --trace 1       the per-layer run; writes bench/out/trace.json
//	bash bench/run.sh --aa                      the suite twice; do the two runs agree?
//	bash bench/run.sh --compare old.json new.json
//	bash bench/run.sh --workload point-serve --seed 7 --seconds 10 --trace 0
//
// The last form is the contract BENCHMARK.json names: one workload, and a
// one-line JSON result as the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

// setupsPerRun is how many times at least a run sets its system up;
// setup_s is the median.
const setupsPerRun = 3

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and end with the one-line JSON result (default: the whole suite)")
		seed    = flag.Int64("seed", 42, "seed of the generated data, constants and request order")
		seconds = flag.Float64("seconds", defaultSeconds, "length of each measured window")
		trace   = flag.Int("trace", 0, "1: the single-client traced run that yields the per-layer metrics")
		aa      = flag.Bool("aa", false, "run the suite twice and check the two runs agree within the bounds")
		compare = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		force   = flag.Bool("force", false, "with -compare: compare results of different machines anyway")
		out     = flag.String("out", "", "suite mode: where to write the result file (default bench/out/BENCH.json)")
		dir     = flag.String("dir", "", "scratch directory for generated files (default .bench_build/scratch-<pid>)")
		knob    = flag.String("knob", "", "sensitivity run: turn one existing option on everywhere (workers1, no-result-cache, hot1, nocache)")
		result  = flag.String("result", "", "with -workload: also write the workload's full result, details and checks included, to this file")
	)
	flag.Parse()
	// The engine logs every rehydrated cache entry at Info; warnings (slow
	// queries, unusable sidecars) still reach standard error.
	slog.SetLogLoggerLevel(slog.LevelWarn)
	if _, ok := knobs[*knob]; !ok && *knob != "" {
		fmt.Fprintf(os.Stderr, "bench: unknown knob %q\n", *knob)
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *trace, *aa, *compare, *force, *out, *dir, *knob, *result, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int, aa, compare, force bool, out, dir, knob, result string, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(args[0], args[1], force)
	}
	if dir == "" {
		dir = filepath.Join(".bench_build", fmt.Sprintf("scratch-%d", os.Getpid()))
	}
	if err := emptyDir(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: seed, seconds: seconds, dir: dir, sz: fullSizes,
		setups: setupsPerRun, setupTime: 1500 * time.Millisecond, sys: sys{knob: knob}}
	flags := strings.Join(os.Args[1:], " ")

	switch {
	case name != "":
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		return runForDriver(w, e, trace == 1, result)
	case aa:
		return runAA(e, flags, out)
	case trace == 1:
		return runTraceSuite(e)
	default:
		rep, err := runSuite(e, flags)
		if err != nil {
			return err
		}
		if out == "" {
			out = filepath.Join(benchDir(), "out", "BENCH.json")
		}
		if err := writeReport(out, rep); err != nil {
			return err
		}
		fmt.Printf("\nresult file: %s\n", out)
		return rep.failure()
	}
}

// benchDir finds this package's directory from the working directory: the
// checkout's root when started through run.sh, the package itself under
// go run.
func benchDir() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return "bench"
	}
	return "."
}

// runForDriver is the BENCHMARK.json contract: one workload, human-readable
// detail above, and as the last line of standard output one JSON object
// with the end-to-end metrics (tracing off) or the per-layer ones (on).
func runForDriver(w *workload, e *env, traced bool, resultPath string) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}

	if traced {
		tr, err := runTrace(w, e)
		if err != nil {
			return err
		}
		tr.print(os.Stdout)
		if err := writeTrace(filepath.Join(benchDir(), "out", "trace.json"), tr); err != nil {
			return err
		}
		line.Correct, line.Attempted, line.Failed = tr.failed == 0, tr.attempted, tr.failed
		for _, name := range perLayerMetrics {
			m := tr.metrics[name]
			line.Metrics[name] = value{m.Value, m.Unit}
		}
	} else {
		res, err := runWorkload(w, e)
		if err != nil {
			return err
		}
		printResult(os.Stdout, res)
		if resultPath != "" {
			b, err := json.Marshal(res)
			if err != nil {
				return err
			}
			if err := os.WriteFile(resultPath, b, 0o644); err != nil {
				return err
			}
		}
		line.Correct, line.Attempted, line.Failed = res.ok(), res.Attempted, res.Failed
		for _, g := range gated {
			m, ok := res.Metrics[g.name]
			if !ok {
				return fmt.Errorf("%s: metric %s was not measured", w.name, g.name)
			}
			line.Metrics[g.name] = value{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !line.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, line.Failed, line.Attempted)
	}
	return nil
}

// ok says every answer was right.
func (r *result) ok() bool { return r.Failed == 0 && r.Attempted > 0 }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
