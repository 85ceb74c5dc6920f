// Command vidaserve runs the ViDa engine as a concurrent HTTP query
// service: raw CSV/JSON/array/spreadsheet files are registered at
// startup and queried over POST /query (monoid comprehensions) and
// POST /sql, with admission control, per-query timeouts, shared morsel
// scheduling across queries, and result caching keyed on the source
// generations each result read.
//
// Usage:
//
//	vidaserve -demo                          # serve a generated demo dataset
//	vidaserve -csv 'Patients=patients.csv#Record(Att(id, int), Att(age, int))' \
//	          -json 'Regions=regions.json' -addr :8080
//
// Endpoints: POST /query, POST /sql, POST /stream (NDJSON),
// POST /explain (analyze=true executes and returns the span tree),
// GET /catalog, GET /stats, GET /metrics (Prometheus),
// GET /explain?q=..., GET /debug/queries (profile ring), GET /healthz.
// With -debug-addr, net/http/pprof is served on a separate listener.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vida"
	"vida/internal/sched"
	"vida/internal/serve"
	"vida/internal/workload"
)

// sourceFlag collects repeated -csv/-json/... registrations of the form
// Name=path[#schema] (the '#' separator keeps schemas, which contain
// commas, out of the shell's way).
type sourceFlag []string

func (f *sourceFlag) String() string { return strings.Join(*f, "; ") }

func (f *sourceFlag) Set(v string) error {
	*f = append(*f, v)
	return nil
}

func splitSpec(spec string) (name, path, schema string, err error) {
	eq := strings.Index(spec, "=")
	if eq <= 0 {
		return "", "", "", fmt.Errorf("source spec %q: want Name=path[#schema]", spec)
	}
	name = spec[:eq]
	rest := spec[eq+1:]
	if hash := strings.Index(rest, "#"); hash >= 0 {
		return name, rest[:hash], rest[hash+1:], nil
	}
	return name, rest, "", nil
}

// fatal logs at error level and exits (slog has no Fatal).
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty disables)")
		logFormat   = flag.String("log-format", "text", "log output format: text or json")
		workers     = flag.Int("workers", 0, "morsel scheduler workers (0 = GOMAXPROCS)")
		maxInFlight = flag.Int("max-inflight", 0, "admission limit on concurrent queries (0 = 4x GOMAXPROCS)")
		maxQueue    = flag.Int("max-queue", 0, "admission queue depth (0 = 4x max-inflight, negative = fail fast)")
		timeout     = flag.Duration("timeout", 30*time.Second, "default per-query timeout (negative disables)")
		resultCache = flag.Int("result-cache", 256, "query-result LRU entries (negative disables)")
		resultBytes = flag.Int64("result-cache-bytes", 64<<20, "query-result LRU memory budget in bytes (negative disables)")
		cacheBudget = flag.Int64("cache-budget", 0, "data cache budget in bytes (0 = unlimited)")
		cacheHot    = flag.Int64("cache-hot-bytes", 0, "hot (decoded vector) cache tier budget in bytes; past it entries are held encoded in memory (0 = never encode)")
		cacheDir    = flag.String("cache-dir", "", "persist encoded cache blocks and positional maps here; a restarted server rehydrates its cache from this directory (empty disables)")
		memBudget   = flag.Int64("mem-budget", 0, "global query-memory budget in bytes (0 = unbudgeted)")
		queryMem    = flag.Int64("query-mem-budget", 0, "per-query memory budget in bytes (0 = unbudgeted)")
		slowQuery   = flag.Duration("slow-query", 500*time.Millisecond, "log queries slower than this (negative disables)")
		profileRing = flag.Int("profile-ring", 128, "completed query profiles retained for /debug/queries (negative disables)")
		demo        = flag.Bool("demo", false, "generate and serve the paper's demo datasets (Patients, Genetics, BrainRegions)")
		demoRows    = flag.Int("demo-rows", 5000, "demo dataset row count")
		csvSrcs     sourceFlag
		jsonSrcs    sourceFlag
	)
	flag.Var(&csvSrcs, "csv", "register a CSV source: Name=path#schema (repeatable)")
	flag.Var(&jsonSrcs, "json", "register a JSON source: Name=path[#schema] (repeatable)")
	flag.Parse()

	switch *logFormat {
	case "json":
		slog.SetDefault(slog.New(slog.NewJSONHandler(os.Stderr, nil)))
	case "text":
		slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	default:
		fatal("unknown -log-format", "format", *logFormat)
	}

	pool := sched.NewPool(*workers)
	defer pool.Close()
	eng := vida.New(
		vida.WithScheduler(pool),
		vida.WithCacheBudget(*cacheBudget),
		vida.WithCacheHotBytes(*cacheHot),
		vida.WithCacheDir(*cacheDir),
		vida.WithMemoryBudget(*memBudget),
		vida.WithQueryMemoryBudget(*queryMem),
	)

	if *demo {
		dir, err := os.MkdirTemp("", "vidaserve-demo-")
		if err != nil {
			fatal("creating demo dir", "err", err)
		}
		defer os.RemoveAll(dir)
		sc := workload.Scale{
			PatientsRows:   *demoRows,
			PatientsCols:   20,
			GeneticsRows:   *demoRows,
			GeneticsCols:   24,
			RegionsObjects: *demoRows / 5,
		}
		paths, err := workload.GenerateAll(dir, sc, 42)
		if err != nil {
			fatal("generating demo data", "err", err)
		}
		check := func(err error) {
			if err != nil {
				fatal("registering demo source", "err", err)
			}
		}
		check(eng.RegisterCSV("Patients", paths.Patients, workload.PatientsSchema(sc), nil))
		check(eng.RegisterCSV("Genetics", paths.Genetics, workload.GeneticsSchema(sc), nil))
		check(eng.RegisterJSON("BrainRegions", paths.Regions, ""))
		slog.Info("demo data generated", "dir", dir,
			"patients_rows", *demoRows, "genetics_rows", *demoRows, "regions_objects", *demoRows/5)
	}
	for _, spec := range csvSrcs {
		name, path, schema, err := splitSpec(spec)
		if err != nil {
			fatal("bad -csv spec", "spec", spec, "err", err)
		}
		if schema == "" {
			fatal("CSV sources need a #schema", "spec", spec)
		}
		if err := eng.RegisterCSV(name, path, schema, nil); err != nil {
			fatal("registering CSV source", "source", name, "err", err)
		}
	}
	for _, spec := range jsonSrcs {
		name, path, schema, err := splitSpec(spec)
		if err != nil {
			fatal("bad -json spec", "spec", spec, "err", err)
		}
		if err := eng.RegisterJSON(name, path, schema); err != nil {
			fatal("registering JSON source", "source", name, "err", err)
		}
	}
	if len(eng.Sources()) == 0 {
		fatal("no sources registered: pass -demo or -csv/-json specs")
	}

	svc := serve.NewService(eng, pool, serve.Config{
		MaxInFlight:        *maxInFlight,
		MaxQueue:           *maxQueue,
		DefaultTimeout:     *timeout,
		ResultCacheEntries: *resultCache,
		ResultCacheBytes:   *resultBytes,
		ProfileEntries:     *profileRing,
		SlowQueryThreshold: *slowQuery,
	})
	srv := serve.NewServer(svc)

	// The pprof listener stays separate from the query port so profiling
	// endpoints are never exposed where queries are.
	if *debugAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			slog.Info("pprof listening", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, mux); err != nil {
				slog.Error("pprof listener failed", "err", err)
			}
		}()
	}

	// Serve until SIGINT/SIGTERM, then drain gracefully.
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()
	slog.Info("vidaserve listening", "addr", *addr, "sources", strings.Join(eng.Sources(), ", "))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil {
			fatal("server failed", "err", err)
		}
	case sig := <-sigc:
		slog.Info("draining on signal", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			slog.Warn("shutdown incomplete", "err", err)
		}
	}
}
