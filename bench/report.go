package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"text/tabwriter"
)

// gate is one end-to-end metric with the share of the baseline by which it
// may worsen before a change counts as a regression. The table mirrors
// BENCHMARK.json's end_to_end list (bench_test.go checks they agree).
type gate struct {
	name   string
	unit   string
	higher bool // higher is better
	bound  float64
}

var gated = []gate{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "qps", unit: "1/s", higher: true, bound: 0.20},
	{name: "lat_p50_ms", unit: "ms", bound: 0.20},
	{name: "headline_ms", unit: "ms", bound: 0.25},
	{name: "live_heap_mb", unit: "MB", bound: 0.15},
}

// fingerprint names the machine and build a result was measured on;
// -compare refuses to compare across different ones.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Flags      string `json:"flags"`
}

func machine(seed int64, flags string) fingerprint {
	fp := fingerprint{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", Seed: seed, Flags: flags}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	return fp
}

// sameMachine ignores seed, flags and commit: those may differ between the
// two sides of a comparison.
func (a fingerprint) sameMachine(b fingerprint) bool {
	return a.CPU == b.CPU && a.NumCPU == b.NumCPU && a.GOMAXPROCS == b.GOMAXPROCS && a.GoVersion == b.GoVersion
}

// report is a result file: BENCH_<pr>.json.
type report struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Results     []*result   `json:"results"`
	// AA holds, in the file -aa writes, how the two runs of the same code
	// compared.
	AA []pair `json:"aa,omitempty"`
}

func (r *report) failure() error {
	for _, res := range r.Results {
		if !res.ok() {
			return fmt.Errorf("%s: %d of %d operations failed", res.Workload, res.Failed, res.Attempted)
		}
	}
	return nil
}

func writeReport(path string, rep *report) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// printResult prints every metric of one workload by name with its unit,
// sample count and the spread between the window's slices.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "\n== %s  (%d clients, %.0f s window, closed loop) ==\n   %s\n", res.Workload, res.Clients, res.Seconds, res.Why)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	row := func(kind, name string, m metric) {
		fmt.Fprintf(tw, "  %s\t%s\t%.6g\t%s\tn=%d\tiqr=%.4g\n", kind, name, m.Value, m.Unit, m.N, m.IQR)
	}
	for _, g := range gated {
		if m, ok := res.Metrics[g.name]; ok {
			row("gated", g.name, m)
		}
	}
	for _, name := range sortedKeys(res.Details) {
		row("detail", name, res.Details[name])
	}
	for _, name := range sortedKeys(res.Checks) {
		fmt.Fprintf(tw, "  check\t%s\t%v\t\t\t\n", name, res.Checks[name])
	}
	tw.Flush()
	fmt.Fprintf(w, "  attempted %d, failed %d, fail_ratio %g\n", res.Attempted, res.Failed, res.failRatio())
}

// runSuite runs every workload once, tracing off.
func runSuite(e *env, flags string) (*report, error) {
	rep := &report{Fingerprint: machine(e.seed, flags)}
	fmt.Printf("machine: %s, nproc %d, GOMAXPROCS %d, %s, commit %s, seed %d\n",
		rep.Fingerprint.CPU, rep.Fingerprint.NumCPU, rep.Fingerprint.GOMAXPROCS, rep.Fingerprint.GoVersion, rep.Fingerprint.Commit, e.seed)
	for i := range suite {
		res, err := inOwnProcess(&suite[i], e)
		if err != nil {
			return nil, err
		}
		rep.Results = append(rep.Results, res)
	}
	return rep, nil
}

// inOwnProcess runs one workload the way BENCHMARK.json's command does, in
// a process of its own, and reads its full result back. A workload that
// shared a process with the one before it would start from that one's
// heap: live_heap_mb of warm-analytics read 70 MB as the second workload of
// a process and 44 MB as the eighth.
func inOwnProcess(w *workload, e *env) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(e.dir, "result.json")
	cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(e.seed), "-seconds", fmt.Sprint(e.seconds),
		"-dir", filepath.Join(e.dir, "own"), "-knob", e.sys.knob, "-result", path)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res result
	return &res, json.Unmarshal(b, &res)
}

// verdict compares one metric across two runs. worse and better mean the
// change exceeds the bound; unresolved means a side's own spread is wider
// than the bound, so the bound cannot be checked.
func verdict(g gate, old, cur metric) (ratio float64, v string) {
	if old.Value == 0 {
		return 0, "unresolved"
	}
	ratio = cur.Value / old.Value
	worse := ratio - 1
	if g.higher {
		worse = 1 - ratio
	}
	spread := math.Max(old.IQR/old.Value, cur.IQR/math.Max(cur.Value, 1e-12))
	switch {
	case worse > g.bound:
		return ratio, "worse"
	case spread > g.bound:
		return ratio, "unresolved"
	case -worse > g.bound:
		return ratio, "better"
	}
	return ratio, "within"
}

// pair is one row of a comparison: a workload's metric in two reports.
type pair struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Old      float64 `json:"old"`
	New      float64 `json:"new"`
	Ratio    float64 `json:"ratio"` // new / old; old is the base
	Bound    float64 `json:"bound"`
	Verdict  string  `json:"verdict"`
}

// compareReports prints one row per workload and gated metric and returns
// the rows.
func compareReports(w io.Writer, old, cur *report) (pairs []pair) {
	byName := map[string]*result{}
	for _, r := range old.Results {
		byName[r.Workload] = r
	}
	for _, r := range cur.Results {
		o, ok := byName[r.Workload]
		if !ok {
			continue
		}
		for _, g := range gated {
			om, ok1 := o.Metrics[g.name]
			nm, ok2 := r.Metrics[g.name]
			if !ok1 || !ok2 {
				continue
			}
			ratio, v := verdict(g, om, nm)
			pairs = append(pairs, pair{r.Workload, g.name, g.unit, om.Value, nm.Value, ratio, g.bound, v})
		}
		// Any more failures than before is a regression: fail_ratio has no
		// allowance.
		if r.Failed > o.Failed {
			pairs = append(pairs, pair{r.Workload, "failed", "count", float64(o.Failed), float64(r.Failed), 0, 0, "worse"})
		}
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tnew/old\tbound\tverdict")
	for _, p := range pairs {
		fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.4f (base %.6g)\t%.0f%%\t%s\n",
			p.Workload, p.Metric, p.Old, p.Unit, p.New, p.Unit, p.Ratio, p.Old, p.Bound*100, p.Verdict)
	}
	tw.Flush()
	return pairs
}

func countWorse(pairs []pair) (n int) {
	for _, p := range pairs {
		if p.Verdict == "worse" {
			n++
		}
	}
	return n
}

func compareFiles(oldPath, newPath string, force bool) error {
	old, err := readReport(oldPath)
	if err != nil {
		return err
	}
	cur, err := readReport(newPath)
	if err != nil {
		return err
	}
	if !old.Fingerprint.sameMachine(cur.Fingerprint) {
		fmt.Printf("old: %+v\nnew: %+v\n", old.Fingerprint, cur.Fingerprint)
		if !force {
			return fmt.Errorf("the two results come from different machines or toolchains; -force compares them anyway")
		}
	}
	if n := countWorse(compareReports(os.Stdout, old, cur)); n > 0 {
		return fmt.Errorf("%d metrics got worse by more than their bound", n)
	}
	return nil
}

// runAA runs the suite twice on this binary and checks that the two runs
// agree within each metric's bound: the benchmark's own noise floor.
func runAA(e *env, flags, out string) error {
	first, err := runSuite(e, flags)
	if err != nil {
		return err
	}
	second, err := runSuite(e, flags)
	if err != nil {
		return err
	}
	fmt.Println("\n== A/A: the same code measured twice ==")
	second.AA = compareReports(os.Stdout, first, second)
	// Worse in either direction is a disagreement: which run came first is
	// arbitrary.
	disagree := countWorse(second.AA) + countWorse(compareReports(io.Discard, second, first))
	if out == "" {
		out = filepath.Join(benchDir(), "out", "AA.json")
	}
	if err := writeReport(out, second); err != nil {
		return err
	}
	fmt.Printf("\nresult file (second run, with the pairs): %s\n", out)
	if disagree > 0 {
		return fmt.Errorf("A/A: %d metric pairs disagree by more than their bound: "+
			"a metric this noisy is demoted to a detail, its bound is not widened", disagree)
	}
	return second.failure()
}
