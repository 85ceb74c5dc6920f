// Command vidabench regenerates the paper's tables and figures (see
// DESIGN.md's experiment index). Each experiment prints the same rows or
// series the paper reports, plus the shape assertions EXPERIMENTS.md
// records.
//
// Usage:
//
//	vidabench -exp fig5 -scale 0.02 -queries 150 [-dir /tmp/vida]
//	vidabench -exp all  -scale 0.01
//
// Experiments: table2, fig5, fig4, cachehits, coldwarm, mongospace,
// jitvsstatic, posmap, vpart, flatten, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"vida/internal/experiments"
	"vida/internal/workload"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (table2|fig5|fig4|cachehits|coldwarm|mongospace|jitvsstatic|posmap|vpart|flatten|all)")
		scale   = flag.Float64("scale", 0.01, "scale factor relative to the paper's datasets")
		queries = flag.Int("queries", 150, "workload query count (paper: 150)")
		seed    = flag.Int64("seed", 42, "generator seed")
		dir     = flag.String("dir", "", "scratch directory (default: temp)")
		repeats = flag.Int("repeats", 20, "repetitions for micro experiments")
	)
	flag.Parse()

	workDir := *dir
	if workDir == "" {
		d, err := os.MkdirTemp("", "vidabench")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(d)
		workDir = d
	}
	sc := workload.Factor(*scale)
	fmt.Printf("# vidabench — scale %.3f  (%d patients × %d cols, %d genetics × %d cols, %d regions), %d queries, seed %d\n\n",
		*scale, sc.PatientsRows, sc.PatientsCols, sc.GeneticsRows, sc.GeneticsCols, sc.RegionsObjects, *queries, *seed)

	run := func(name string, fn func(string) error) {
		if *exp != "all" && *exp != name {
			return
		}
		sub := filepath.Join(workDir, name)
		if err := os.MkdirAll(sub, 0o755); err != nil {
			fatal(err)
		}
		if err := fn(sub); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Println()
	}

	run("table2", func(d string) error {
		rows, err := experiments.RunTable2(d, sc, *seed)
		if err != nil {
			return err
		}
		fmt.Println("== Table 2: workload characteristics ==")
		fmt.Printf("%-14s %10s %12s %12s %6s\n", "Relation", "Tuples", "Attributes", "Size", "Type")
		for _, r := range rows {
			attrs := fmt.Sprintf("%d", r.Attributes)
			if r.Attributes < 0 {
				attrs = "objects"
			}
			fmt.Printf("%-14s %10d %12s %12s %6s\n", r.Relation, r.Tuples, attrs, fmtBytes(r.SizeBytes), r.Type)
		}
		return nil
	})

	run("fig5", func(d string) error {
		res, err := experiments.RunFig5(d, sc, *queries, *seed)
		if err != nil {
			return err
		}
		if err := experiments.VerifyAnswersAgree(res); err != nil {
			return err
		}
		fmt.Println("== Figure 5: cumulative preparation + query time ==")
		fmt.Printf("%-18s %10s %10s %10s %10s\n", "System", "Flatten", "Load", "q1-q"+itoa(*queries), "Total")
		for _, r := range res.Rows {
			fmt.Printf("%-18s %9.3fs %9.3fs %9.3fs %9.3fs\n", r.System, r.FlattenSec, r.LoadSec, r.QuerySec, r.TotalSec)
		}
		fmt.Printf("\nViDa speedup over worst baseline: %.1fx (paper: up to 4.2x)\n", res.Speedup())
		fmt.Printf("ViDa cache-hit rate: %.0f%% (paper: ~80%%)\n", res.CacheHitRate()*100)
		fmt.Println("all five systems returned identical answers ✓")
		return nil
	})

	run("fig4", func(d string) error {
		rows, err := experiments.RunFig4(d, sc, *repeats, *seed)
		if err != nil {
			return err
		}
		fmt.Println("== Figure 4: layouts for a tuple carrying a JSON object ==")
		fmt.Printf("%-10s %12s %12s %12s\n", "Layout", "Build", "Queries", "Resident")
		for _, r := range rows {
			fmt.Printf("%-10s %11.4fs %11.4fs %12s\n", r.Layout, r.BuildSec, r.QuerySec, fmtBytes(r.ResidentBytes))
		}
		return nil
	})

	run("cachehits", func(d string) error {
		res, err := experiments.RunCacheHits(d, sc, *queries, *seed)
		if err != nil {
			return err
		}
		fmt.Println("== E4: cache-hit rate and latency vs loaded column store ==")
		fmt.Printf("queries: %d  cache-hits: %d (%.0f%%)\n", res.Queries, res.CacheHits, res.HitRate*100)
		fmt.Printf("mean cache-hit query: %.4fs   mean raw-touch query: %.4fs\n", res.MeanHitSec, res.MeanMissSec)
		fmt.Printf("mean loaded col-store query: %.4fs   hit/col-store factor: %.2fx\n", res.MeanColStoreSec, res.HitOverColFactor)
		return nil
	})

	run("coldwarm", func(d string) error {
		res, err := experiments.RunColdWarm(d, sc, *queries, *seed)
		if err != nil {
			return err
		}
		fmt.Println("== E8: cold (raw-touch) vs warm (cache) time split ==")
		fmt.Printf("raw-touch queries: %d of %d, consuming %.0f%% of cumulative time\n",
			res.RawQueries, res.Queries, res.RawShareOfTotal*100)
		fmt.Printf("first raw-touch query: %.4fs   median warm query: %.5fs\n", res.FirstTouchSec, res.MedianWarmSec)
		fmt.Printf("slowest query: #%d at %.4fs\n", res.SlowestQueryID, res.SlowestQuerySec)
		return nil
	})

	run("mongospace", func(d string) error {
		res, err := experiments.RunMongoSpace(d, sc, *seed)
		if err != nil {
			return err
		}
		fmt.Println("== E5: document-store import size amplification ==")
		fmt.Printf("raw JSON: %s   imported: %s   amplification: %.2fx (paper: ~2x)\n",
			fmtBytes(res.RawJSONBytes), fmtBytes(res.ImportedBytes), res.Amplification)
		fmt.Printf("import time: %.3fs for %d documents\n", res.ImportSec, res.ImportedDocs)
		return nil
	})

	run("jitvsstatic", func(d string) error {
		rows, err := experiments.RunJITvsStatic(d, sc, *repeats, *seed)
		if err != nil {
			return err
		}
		fmt.Println("== E6: generated (JIT) vs pre-cooked (interpreted) operators ==")
		fmt.Printf("%-18s %10s %10s %8s\n", "Plan", "JIT", "Static", "Ratio")
		for _, r := range rows {
			fmt.Printf("%-18s %9.4fs %9.4fs %7.1fx\n", r.Plan, r.JITSec, r.StaticSec, r.Ratio)
		}
		return nil
	})

	run("posmap", func(d string) error {
		rows, err := experiments.RunPosmap(d, sc, *seed)
		if err != nil {
			return err
		}
		fmt.Println("== E7: positional map — access cost vs attribute position ==")
		fmt.Printf("%-12s %12s %12s %9s\n", "Column idx", "Cold scan", "Posmap scan", "Speedup")
		for _, r := range rows {
			fmt.Printf("%-12d %11.4fs %11.4fs %8.1fx\n", r.ColumnIndex, r.ColdSec, r.WarmSec, r.Speedup)
		}
		return nil
	})

	run("vpart", func(d string) error {
		res, err := experiments.RunVPart(d, sc, *seed)
		if err != nil {
			return err
		}
		fmt.Println("== E9: vertical partitioning of the Genetics relation ==")
		fmt.Printf("columns: %d → partitions: %d (load %.3fs)\n", res.Columns, res.Partitions, res.LoadSec)
		fmt.Printf("scan projecting same-partition cols: %.4fs; cross-partition cols: %.4fs (stitch overhead %.2fx)\n",
			res.SinglePartSec, res.CrossPartSec, res.StitchOverhead)
		return nil
	})

	run("cachebudget", func(d string) error {
		budgets := []int64{-1, 64 << 10, 512 << 10, 4 << 20, 0}
		rows, err := experiments.RunCacheBudget(d, sc, *queries, *seed, budgets)
		if err != nil {
			return err
		}
		fmt.Println("== E11: cache byte budget vs hit rate and total time ==")
		fmt.Printf("%-12s %8s %10s %10s %12s\n", "Budget", "Hits", "Total", "Evictions", "Resident")
		for _, r := range rows {
			label := fmtBytes(r.BudgetBytes)
			if r.BudgetBytes < 0 {
				label = "disabled"
			} else if r.BudgetBytes == 0 {
				label = "unlimited"
			}
			fmt.Printf("%-12s %7.0f%% %9.3fs %10d %12s\n",
				label, r.HitRate*100, r.TotalSec, r.Evictions, fmtBytes(r.CacheBytes))
		}
		return nil
	})

	run("flatten", func(d string) error {
		res, err := experiments.RunFlatten(d, sc, *seed)
		if err != nil {
			return err
		}
		fmt.Println("== E10: JSON flattening cost and redundancy ==")
		fmt.Printf("full flatten (arrays exploded): %.3fs, %.1f rows/object, %.2fx bytes\n",
			res.FullSec, res.FullRedundancy, res.FullBytesRatio)
		fmt.Printf("scalar flatten (arrays skipped): %.3fs, %.1f rows/object\n",
			res.ScalarSec, res.ScalarRedundancy)
		return nil
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vidabench:", err)
	os.Exit(1)
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }
