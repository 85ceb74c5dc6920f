// Package faultinject provides named failure points for chaos testing:
// hooks compiled into the engine's scan loops, the morsel scheduler and
// the cache-harvest path that are no-ops in production (one relaxed
// atomic load) and, when armed by a test, inject read errors, delays,
// concurrent refreshes or allocation spikes at exactly the places where
// a hostile environment would. The chaos suite arms randomized schedules
// over every registered point and asserts the engine's containment
// invariants: no crash, no goroutine leak, no leaked admission slot, no
// poisoned cache entry.
//
// The package is deliberately tiny and dependency-free so any layer may
// call Hit without import cycles. Points are identified by the string
// constants below; call sites pay a single atomic bool load while the
// package is disarmed, so leaving the hooks in production builds is
// free in practice.
package faultinject

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// The registered failure points. Each names one call site class in the
// engine; tests arm a subset with Set and the chaos suite iterates
// Points() to cover all of them.
const (
	// CSVRead fires once per CSV batch/row-group scanned — a failure
	// here models a read error mid-scan (truncated file, I/O fault).
	CSVRead = "rawcsv.read"
	// CSVSlowRead fires alongside CSVRead and is meant for delay
	// faults: a slow disk or a cold page cache mid-scan.
	CSVSlowRead = "rawcsv.slow_read"
	// JSONRead fires once per JSON object scanned.
	JSONRead = "rawjson.read"
	// RefreshDuringScan fires inside the raw-scan cache-harvest loop;
	// arming it with a callback that rewrites and refreshes the source
	// reproduces the file-changed-mid-scan race: the harvest of the
	// outgoing catalog entry must not land once the change is published.
	RefreshDuringScan = "core.refresh_during_scan"
	// Publish fires at entry to every catalog change (Register,
	// AttachCleaner, Deregister, Refresh), before the catalog lock. It is
	// a pause point: tests arm it with a fault that runs a scan to
	// completion and returns nil, landing a harvest right before the
	// change. Its error is ignored and it is not in Points() — an error or
	// panic halfway into a catalog change has no meaning.
	Publish = "core.publish"
	// PlanInstall fires in Prepare after the frontend read the catalog
	// and before its plan enters the plan cache. Like Publish it is a
	// pause point, with its error ignored and absent from Points(): tests
	// run a catalog change from it, so the plan installed next was
	// prepared across that change.
	PlanInstall = "core.plan_install"
	// FileLoad fires in rawfile.Load — every raw plugin's one whole-file
	// read — after the file is opened and before its handle is stat'ed
	// and read or matched to a known generation. Like Publish it is a
	// pause point, with its error ignored and absent from Points(): tests
	// replace the file from it, and the load must still pair the bytes it
	// reads, or shares, with their own mtime.
	FileLoad = "raw.file_load"
	// RegisterPublished fires in Register after its publish and before it
	// rehydrates the spilled cache. Like Publish it is a pause point, with
	// its error ignored and absent from Points(): tests change the file
	// and Refresh from it, so the generation Register published is no
	// longer current when its rehydration lands.
	RegisterPublished = "core.register_published"
	// PoolStall fires before each morsel executes on a scheduler
	// worker; delay faults here model a stalled worker.
	PoolStall = "sched.pool_stall"
	// JoinBuildStall fires once per build-side batch a hash join
	// retains (serial and morsel-parallel builds alike); delay faults
	// here hold the join's build barrier open, error faults model a
	// build-side scan failing mid-join.
	JoinBuildStall = "jit.join_build_stall"
	// AllocSpike is a value point (SetValue/Value): the harvest path
	// adds its value to every memory reservation, simulating an
	// allocation spike that drives the engine into budget pressure.
	AllocSpike = "core.alloc_spike"
)

// Points returns every registered point name (the chaos suite's
// iteration domain).
func Points() []string {
	return []string{CSVRead, CSVSlowRead, JSONRead, RefreshDuringScan, PoolStall, JoinBuildStall, AllocSpike}
}

// ErrInjected is the conventional error returned by failure faults; the
// chaos suite matches it to tell injected failures from real ones.
var ErrInjected = errors.New("faultinject: injected failure")

// Fault is the action taken when an armed point is hit: return an error
// to fail the operation, sleep to delay it, or run arbitrary code (e.g.
// trigger a concurrent Refresh) and return nil.
type Fault func() error

var (
	armed  atomic.Bool
	mu     sync.Mutex
	faults = map[string]Fault{}
	vals   = map[string]*atomic.Int64{}
	hits   = map[string]*atomic.Int64{}
)

// Set arms a fault at the named point (and arms the package). Replacing
// an existing fault is allowed; the fault may be invoked concurrently
// and must be safe for concurrent calls.
func Set(point string, f Fault) {
	mu.Lock()
	faults[point] = f
	if hits[point] == nil {
		hits[point] = &atomic.Int64{}
	}
	mu.Unlock()
	armed.Store(true)
}

// SetValue arms a numeric injection at the named point (used by value
// points such as AllocSpike).
func SetValue(point string, v int64) {
	mu.Lock()
	c := vals[point]
	if c == nil {
		c = &atomic.Int64{}
		vals[point] = c
	}
	c.Store(v)
	mu.Unlock()
	armed.Store(true)
}

// Clear disarms one point.
func Clear(point string) {
	mu.Lock()
	delete(faults, point)
	delete(vals, point)
	mu.Unlock()
}

// Reset disarms every point and zeroes hit counters; the package
// returns to its free no-op state. Tests defer this.
func Reset() {
	mu.Lock()
	faults = map[string]Fault{}
	vals = map[string]*atomic.Int64{}
	hits = map[string]*atomic.Int64{}
	mu.Unlock()
	armed.Store(false)
}

// Hit fires the named point: a no-op (single atomic load) while the
// package is disarmed, otherwise the armed fault's outcome. Call sites
// propagate a non-nil error as the operation's failure.
func Hit(point string) error {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	f := faults[point]
	h := hits[point]
	mu.Unlock()
	if h != nil {
		h.Add(1)
	}
	if f == nil {
		return nil
	}
	return f()
}

// Value returns the numeric injection armed at a value point (0 while
// disarmed).
func Value(point string) int64 {
	if !armed.Load() {
		return 0
	}
	mu.Lock()
	c := vals[point]
	mu.Unlock()
	if c == nil {
		return 0
	}
	return c.Load()
}

// Hits reports how many times an armed point fired since the last Reset.
func Hits(point string) int64 {
	mu.Lock()
	h := hits[point]
	mu.Unlock()
	if h == nil {
		return 0
	}
	return h.Load()
}

// Always returns a fault that fails every hit with err.
func Always(err error) Fault { return func() error { return err } }

// Sleep returns a delay fault.
func Sleep(d time.Duration) Fault {
	return func() error { time.Sleep(d); return nil }
}

// After returns a fault that passes the first n hits then delegates to f
// — "fail mid-scan" is After(k, Always(ErrInjected)).
func After(n int64, f Fault) Fault {
	var seen atomic.Int64
	return func() error {
		if seen.Add(1) <= n {
			return nil
		}
		return f()
	}
}

// Prob returns a fault that delegates to f with probability p per hit,
// deterministically seeded — the randomized schedules of the chaos
// suite stay reproducible.
func Prob(p float64, seed int64, f Fault) Fault {
	var rmu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return func() error {
		rmu.Lock()
		fire := rng.Float64() < p
		rmu.Unlock()
		if fire {
			return f()
		}
		return nil
	}
}

// Chain returns a fault running each fault in order, stopping at the
// first error (delay-then-maybe-fail schedules).
func Chain(fs ...Fault) Fault {
	return func() error {
		for _, f := range fs {
			if err := f(); err != nil {
				return err
			}
		}
		return nil
	}
}
