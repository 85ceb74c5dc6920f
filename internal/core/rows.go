package core

import (
	"context"
	"sync/atomic"

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
	// ch carries chunk ownership from the producer goroutine; err is
	// written by the producer before it closes ch, so the channel close is
	// the synchronization point.
	cancel context.CancelFunc
	ch     chan []values.Value
	err    error

	// closed is atomic so a double Close — including one racing the
	// producer's terminal error — stays safe; NextChunk itself remains
	// single-consumer.
	closed atomic.Bool
}

// RowsCtx opens a streaming cursor over the prepared query: a producer
// goroutine runs the one execution path (Engine.execute) into a bounded
// channel, holding a slot in the engine's close gate for the stream's
// lifetime, so Engine.Close drains open cursors like any other query.
// Bag and set results stream batch-at-a-time from morsel-parallel
// producers, and the first chunk is available as soon as the first batch
// clears the pipeline; a list over a partitioned scan is emitted in
// morsel order once its fold completes; an ordered result once its top-k
// fold completes; a scalar as one row, an array as its elements.
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
	// Fail a closed engine here rather than from the first NextChunk; the
	// producer takes its own close-gate slot.
	if err := e.Ping(); err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	r := &Rows{cancel: cancel, ch: make(chan []values.Value, streamChanCap)}
	go func() {
		_, err := e.execute(sctx, plan, func(chunk []values.Value) error {
			select {
			case r.ch <- chunk:
				return nil
			case <-sctx.Done():
				return sctx.Err()
			}
		})
		// The err write happens-before close(ch): consumers that observe
		// the closed channel read a settled error.
		r.err = err
		close(r.ch)
	}()
	return r, nil
}

// NextChunk returns the next chunk of result elements, blocking until
// one is available. It returns (nil, nil) once the stream is exhausted
// and (nil, err) when the query failed or was cancelled. The returned
// slice is owned by the caller.
func (r *Rows) NextChunk() ([]values.Value, error) {
	if r.closed.Load() {
		return nil, r.err
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
	r.cancel()
	// Drain until the producer closes the channel: its exit is what
	// releases the close-gate slot.
	for range r.ch {
	}
	return nil
}

// Err returns the terminal stream error, if any. Valid after NextChunk
// returned nil or Close was called.
func (r *Rows) Err() error { return r.err }
