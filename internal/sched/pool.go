// Package sched implements the shared morsel scheduler: one fixed pool
// of workers that executes the morsels of every in-flight query. Before
// this pool existed each query fanned out its own GOMAXPROCS goroutines,
// so N concurrent queries oversubscribed the machine with N×cores
// runnable goroutines; now all queries share the same workers and each
// worker round-robins between the active jobs, which keeps the CPU
// saturated without oversubscription and gives short queries a share of
// the machine even while a long scan is running (morsel-driven
// scheduling in the style of Leis et al., applied across queries).
package sched

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"vida/internal/faultinject"
)

// ErrClosed is returned by Run when the pool has been shut down.
var ErrClosed = errors.New("sched: pool closed")

// PanicError is a panic recovered at a goroutine boundary (a pool
// worker, a streaming producer), converted into the owning query's
// error so one poisoned pipeline cannot take the process — or the
// shared worker pool — down with it. Stack holds the panicking
// goroutine's stack at recovery time.
type PanicError struct {
	Value any
	Stack []byte
}

// Error renders the panic value; the stack is logged at recovery, not
// repeated in the message.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic recovered: %v", e.Value)
}

// Pool is a fixed set of workers executing tasks from every submitted
// job. Jobs are dispatched round-robin one task at a time, so concurrent
// jobs interleave at morsel granularity instead of queuing behind each
// other.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	ring   []*job // jobs that still have undispatched tasks
	rr     int    // next ring slot to serve
	closed bool
	wg     sync.WaitGroup

	workers int
	jobs    atomic.Int64 // jobs completed
	tasks   atomic.Int64 // tasks executed
	panics  atomic.Int64 // task panics recovered
}

// job is one Run call: n independent tasks plus completion bookkeeping.
// next/inFlight/failed are guarded by the pool mutex.
type job struct {
	ctx      context.Context
	run      func(task int) error
	n        int
	next     int
	inFlight int
	failed   bool
	err      error
	done     chan struct{}
}

// NewPool starts a pool with the given number of workers (<=0 means
// runtime.GOMAXPROCS(0)).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

var (
	defaultPool *Pool
	defaultOnce sync.Once
)

// Default returns the process-wide shared pool, created lazily with
// GOMAXPROCS workers. Library callers that never configure a pool all
// land here, which is what makes the scheduler global: every engine's
// parallel scans draw from the same workers.
func Default() *Pool {
	defaultOnce.Do(func() { defaultPool = NewPool(0) })
	return defaultPool
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Stats is a snapshot of pool activity.
type Stats struct {
	Workers         int   `json:"workers"`
	ActiveJobs      int   `json:"active_jobs"`
	JobsRun         int64 `json:"jobs_run"`
	TasksRun        int64 `json:"tasks_run"`
	PanicsRecovered int64 `json:"panics_recovered"`
}

// StatsSnapshot returns pool counters.
func (p *Pool) StatsSnapshot() Stats {
	p.mu.Lock()
	active := len(p.ring)
	p.mu.Unlock()
	return Stats{
		Workers:         p.workers,
		ActiveJobs:      active,
		JobsRun:         p.jobs.Load(),
		TasksRun:        p.tasks.Load(),
		PanicsRecovered: p.panics.Load(),
	}
}

// Run executes tasks 0..n-1 on the pool workers and blocks until all
// dispatched tasks have finished. The first task error stops dispatch of
// the remaining tasks and is returned; ctx cancellation stops dispatch
// and returns the ctx error as soon as the tasks in flight have finished,
// even while every worker is busy elsewhere. Tasks of concurrent Run
// calls interleave.
func (p *Pool) Run(ctx context.Context, n int, run func(task int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	j := &job{ctx: ctx, run: run, n: n, done: make(chan struct{})}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	p.ring = append(p.ring, j)
	p.mu.Unlock()
	p.cond.Broadcast()
	select {
	case <-j.done:
	case <-ctx.Done():
		// A cancelled job leaves the ring now rather than when a worker
		// next looks at it: its caller waits for the tasks in flight, never
		// for a free worker to learn that nothing more will run.
		p.mu.Lock()
		for idx, k := range p.ring {
			if k == j {
				p.retireLocked(idx)
				break
			}
		}
		j.maybeCompleteLocked()
		p.mu.Unlock()
		<-j.done
	}
	p.jobs.Add(1)
	if j.err != nil {
		return j.err
	}
	return ctx.Err()
}

// Close stops the workers. In-flight tasks finish; jobs with
// undispatched tasks fail with ErrClosed. Close must not be called on
// the Default pool.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for _, j := range p.ring {
		j.failed = true
		if j.err == nil {
			j.err = ErrClosed
		}
		j.maybeCompleteLocked()
	}
	p.ring = nil
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		j, task, ok := p.take()
		if !ok {
			return
		}
		err := p.runTask(j, task)
		p.tasks.Add(1)
		p.finish(j, err)
	}
}

// runTask executes one morsel inside a recover barrier: a panicking
// task fails its own job with a PanicError instead of crashing the
// worker (which would kill every in-flight query and, once all workers
// died, the whole service). The stack is logged once at recovery.
func (p *Pool) runTask(j *job, task int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			p.panics.Add(1)
			perr := &PanicError{Value: r, Stack: debug.Stack()}
			slog.Error("recovered panic in task",
				"component", "sched", "task", task, "panic", fmt.Sprint(r), "stack", string(perr.Stack))
			err = perr
		}
	}()
	if err := faultinject.Hit(faultinject.PoolStall); err != nil {
		return err
	}
	return j.run(task)
}

// take hands out the next task, rotating between active jobs. Jobs whose
// dispatch is over (exhausted, failed or cancelled) are retired from the
// ring on the way; completion fires once their in-flight tasks drain.
func (p *Pool) take() (*job, int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed {
			return nil, 0, false
		}
		for len(p.ring) > 0 {
			idx := p.rr % len(p.ring)
			j := p.ring[idx]
			if j.failed || j.next >= j.n || j.ctx.Err() != nil {
				// Dispatch is over for this job: retire it and re-examine
				// the slot.
				p.retireLocked(idx)
				j.maybeCompleteLocked()
				continue
			}
			task := j.next
			j.next++
			j.inFlight++
			p.rr = idx + 1
			return j, task, true
		}
		p.cond.Wait()
	}
}

// retireLocked removes ring slot idx; the swap keeps the ring compact.
func (p *Pool) retireLocked(idx int) {
	p.ring[idx] = p.ring[len(p.ring)-1]
	p.ring = p.ring[:len(p.ring)-1]
}

// finish retires one executed task and records its error (first error
// wins and stops further dispatch).
func (p *Pool) finish(j *job, err error) {
	p.mu.Lock()
	j.inFlight--
	if err != nil && !j.failed {
		j.failed = true
		j.err = err
	}
	j.maybeCompleteLocked()
	p.mu.Unlock()
}

// maybeCompleteLocked closes the job's done channel once no more tasks
// will be dispatched and none are in flight. Safe to call repeatedly.
func (j *job) maybeCompleteLocked() {
	if j.inFlight != 0 {
		return
	}
	if j.next < j.n && !j.failed && j.ctx.Err() == nil {
		return
	}
	select {
	case <-j.done:
	default:
		close(j.done)
	}
}
