package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sync/atomic"

	"vida/internal/algebra"
	"vida/internal/jit"
	"vida/internal/sched"
	"vida/internal/trace"
	"vida/internal/values"
)

// streamChanCap bounds the chunks buffered between a streaming query's
// producers and its consumer. Resident memory of an open cursor is
// O(streamChanCap × batch size) rows regardless of result cardinality:
// once the channel is full, producers block in emit, which stalls morsel
// dispatch in the scheduler.
const streamChanCap = 4

// Rows is a streaming cursor over one query's result elements. Chunks of
// head values are pulled with NextChunk until it returns (nil, nil);
// Close aborts the producers and releases their pool slots, and must be
// called (it is idempotent and safe after exhaustion). A Rows is not
// safe for concurrent use.
type Rows struct {
	// Streaming state: ch carries chunk ownership from the producer
	// goroutine; err is written by the producer before it closes ch, so
	// the channel close is the synchronization point.
	cancel context.CancelFunc
	ch     chan []values.Value
	err    error

	// Materialized state (non-JIT executors, scalar results): the whole
	// result is already in memory and served as a single chunk.
	static    []values.Value
	staticEOF bool

	// closed is atomic so a double Close — including one racing the
	// producer's terminal error — stays safe; NextChunk itself remains
	// single-consumer.
	closed atomic.Bool
}

// RowsCtx opens a streaming cursor over the prepared query. Collection
// results (list/bag/set) under the JIT executor stream batch-at-a-time:
// morsel-parallel producers feed a bounded channel, and the first chunk
// is available as soon as the first batch clears the pipeline — long
// before a full materialization would finish. Everything else (scalar
// aggregates, the static/reference executors) executes eagerly and is
// served as a one-chunk cursor, so the cursor API is uniform across
// query shapes.
//
// Cancelling ctx aborts the stream mid-scan; abandoning a cursor without
// Close leaks its producer until ctx is cancelled, so callers must
// Close.
func (p *Prepared) RowsCtx(ctx context.Context, params map[string]values.Value) (*Rows, error) {
	plan, err := p.boundPlan(params)
	if err != nil {
		return nil, err
	}
	e := p.engine
	e.mu.RLock()
	mode := e.opts.Mode
	e.mu.RUnlock()
	if mode != ModeJIT || !jit.CanStream(plan) {
		v, err := p.runPlanCtx(ctx, plan)
		if err != nil {
			return nil, err
		}
		return materializedRows(v), nil
	}
	return e.streamRows(ctx, plan)
}

// streamRows starts the producer goroutine for a streamable plan. The
// producer holds a query slot in the engine's close gate for the whole
// stream, so Engine.Close drains open cursors like any other query.
func (e *Engine) streamRows(ctx context.Context, plan *algebra.Reduce) (*Rows, error) {
	if err := e.beginQuery(); err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	r := &Rows{cancel: cancel, ch: make(chan []values.Value, streamChanCap)}
	qm := e.newQueryMem()
	emit := jit.StreamSink(func(chunk []values.Value) error {
		select {
		case r.ch <- chunk:
			return nil
		case <-sctx.Done():
			return sctx.Err()
		}
	})
	if plan.M.Name() == "set" && plan.Order == nil {
		// Ordered and bounded set plans dedup inside the JIT root (before
		// the sort/quota applies); only plain set streams dedup here.
		emit = jit.DedupSink(emit, qm.reserveFunc())
	}
	e.queries.Add(1)
	rawBefore := e.rawScans.Load()
	execSp := trace.FromContext(ctx).Root().Child("execute")
	cat := e.catalogFor(sctx, execSp)
	go func() {
		defer e.endQuery()
		defer qm.release()
		defer execSp.End()
		err := e.runStream(sctx, plan, cat, emit, qm, execSp)
		if err != nil {
			if errors.Is(err, ErrMemoryBudget) {
				e.memKills.Add(1)
			} else if ctxErr := sctx.Err(); ctxErr != nil {
				err = ctxErr
			}
		} else if e.rawScans.Load() == rawBefore {
			e.cacheQueries.Add(1)
		} else {
			e.rawQueries.Add(1)
		}
		// The err write happens-before close(ch): consumers that observe
		// the closed channel read a settled error.
		r.err = err
		close(r.ch)
	}()
	return r, nil
}

// runStream executes a streaming plan inside a recover barrier at the
// producer-goroutine boundary: a panic anywhere in the serial stream
// pipeline becomes the cursor's terminal error instead of crashing the
// process (parallel morsels have their own barrier in the scheduler).
func (e *Engine) runStream(ctx context.Context, plan *algebra.Reduce, cat jit.SchemaCatalog, emit jit.StreamSink, qm *queryMem, sp *trace.Span) (err error) {
	defer func() {
		if r := recover(); r != nil {
			perr, ok := r.(*sched.PanicError)
			if !ok {
				e.panics.Add(1)
				perr = &sched.PanicError{Value: r, Stack: debug.Stack()}
				slog.Error("recovered panic in stream producer",
					"component", "core", "panic", fmt.Sprint(r), "stack", string(perr.Stack))
			}
			err = perr
		}
	}()
	return jit.Executor{Opts: e.jitOptions(qm, sp)}.RunStream(ctx, plan, cat, emit)
}

// materializedRows wraps an already-computed result value as a cursor:
// collections become their element chunk, scalars a single-row chunk.
func materializedRows(v values.Value) *Rows {
	var chunk []values.Value
	if v.IsCollection() || v.Kind() == values.KindArray {
		chunk = v.Elems()
	} else {
		chunk = []values.Value{v}
	}
	return &Rows{static: chunk}
}

// NextChunk returns the next chunk of result elements, blocking until
// one is available. It returns (nil, nil) once the stream is exhausted
// and (nil, err) when the query failed or was cancelled. The returned
// slice is owned by the caller.
func (r *Rows) NextChunk() ([]values.Value, error) {
	if r.closed.Load() {
		return nil, r.err
	}
	if r.static != nil || r.staticEOF {
		chunk := r.static
		r.static, r.staticEOF = nil, true
		return chunk, nil
	}
	if r.ch == nil {
		return nil, nil
	}
	chunk, ok := <-r.ch
	if !ok {
		return nil, r.err
	}
	return chunk, nil
}

// Close aborts the stream and waits for the producer to exit, releasing
// the engine's query slot and the scheduler's workers. Idempotent and
// safe for concurrent calls (every caller drains until the producer's
// channel close, so each returns with the terminal error settled).
func (r *Rows) Close() error {
	r.closed.Store(true)
	if r.cancel != nil {
		r.cancel()
	}
	if r.ch != nil {
		// Drain until the producer closes the channel: its exit is what
		// releases the close-gate slot.
		for range r.ch {
		}
	}
	return nil
}

// Err returns the terminal stream error, if any. Valid after NextChunk
// returned nil or Close was called.
func (r *Rows) Err() error { return r.err }
