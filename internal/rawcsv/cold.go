package rawcsv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"vida/internal/sched"
	"vida/internal/vec"
)

// This file is the first touch of a file: the scan that tokenizes every
// row, converts the requested columns straight into typed column vectors
// and builds the positional map as a side effect, after which
// openRangeCols serves the same fields with direct jumps.
//
// The dialect has no quoting — nextLine ends a row at every '\n' — so the
// file splits exactly at the first line start at or after each multiple
// of chunkBytes, with none of the quote-state speculation that parallel
// CSV loading needs in general (Mühlbauer et al., "Instant Loading",
// VLDB 2013; Ge et al., "Speculative Distributed CSV Data Parsing",
// SIGMOD 2019). Every chunk runs the same tokenizer, conversions and
// malformed-row rule into its own partials. The scanning goroutine and
// one scheduler job claim chunks in file order: the scanning goroutine
// streams each chunk it claims that is next in file order into the
// caller's batches, and delivers the others' converted rows in order, so
// a consumer that stops in the first chunk costs what a serial scan
// would, and the scan never waits for a pool worker to become free. The
// seal concatenates the partials into exact-length arrays: row starts are
// absolute offsets and spans row-relative, so nothing is rebased.

// chunkBytes is the least size of a first-touch chunk, so a small file
// stays one chunk. Tests lower it to cut files at every line.
var chunkBytes = 1 << 20

// UseScheduler sets where a cold scan finds help: pool (nil: the shared
// sched.Default()) runs its helper job, and workers bounds the goroutines
// tokenizing at once — the scanning one included — as it bounds a
// query's morsel fan-out (<= 0: the pool's size; 1: one chunk, tokenized
// by the scanning goroutine alone). Call it before the first scan.
func (r *Reader) UseScheduler(pool *sched.Pool, workers int) {
	r.pool, r.workers = pool, workers
}

// helpers returns the pool of a cold scan and how many of its workers may
// help the scanning goroutine.
func (r *Reader) helpers() (*sched.Pool, int) {
	if r.workers == 1 {
		return nil, 0
	}
	pool := r.pool
	if pool == nil {
		pool = sched.Default()
	}
	n := pool.Workers()
	if r.workers > 0 {
		n = min(n, r.workers)
	}
	return pool, n - 1
}

// chunk is one byte range of a cold scan and what its rows produced.
type chunk struct {
	lo, hi int64
	// Positional-map partials: the start of every data line, and the span
	// of every requested column in each row long enough to hold it.
	rows         []int64
	starts, ends [][]int32
	committed    int   // rows converted and committed
	skipped      int64 // malformed rows
	err          error // the malformed row that fails the scan (FailOnBadRows)

	// A buffered chunk — any chunk not streamed — keeps its converted rows
	// in out, for delivery in file order. done is closed once it is
	// buffered; ok says it ran to its end or to the row that failed it.
	out  *vec.Batch
	done chan struct{}
	ok   bool
}

// cutChunks splits data at the first line start at or after each multiple
// of size past the previous cut; a line longer than size spans the
// multiples it covers.
func cutChunks(data []byte, size int64) []chunk {
	n := int64(len(data))
	var out []chunk
	lo := int64(0)
	for {
		at := (lo/size + 1) * size
		if at >= n {
			break
		}
		hi := at
		if data[at-1] != '\n' {
			i := bytes.IndexByte(data[at:], '\n')
			if i < 0 || at+int64(i)+1 >= n {
				break
			}
			hi = at + int64(i) + 1
		}
		out = append(out, chunk{lo: lo, hi: hi, done: make(chan struct{})})
		lo = hi
	}
	return append(out, chunk{lo: lo, hi: n, done: make(chan struct{})})
}

// coldScan is one first-touch scan.
type coldScan struct {
	r         *Reader
	data      []byte
	cols      []int
	tags      []vec.Tag
	outPos    []int
	maxCol    int
	batchSize int
	chunks    []chunk
	next      atomic.Int64 // the next chunk to claim
	// stop ends the scan for its helpers: they claim nothing more and
	// abandon the chunk in hand, which nobody will read.
	stop atomic.Bool
}

// errAbandoned ends a helper's chunk once the scan is over.
var errAbandoned = errors.New("rawcsv: chunk abandoned")

// claim hands out the next chunk in file order (len(chunks) when none is
// left).
func (s *coldScan) claim() int {
	return int(min(s.next.Add(1)-1, int64(len(s.chunks))))
}

// iterateFullBatches is the first-touch scan: it yields batches of the
// requested columns in file order, exactly as one goroutine tokenizing
// the file from start to end would cut them, and installs row starts
// plus the requested columns in the positional map once every row is
// through. A scan that ends early — a yield error, a malformed row under
// FailOnBadRows — installs nothing, and returns only after its helpers
// have.
func (r *Reader) iterateFullBatches(cols []int, batchSize int, yield func(*vec.Batch) error) error {
	r.stats.FullScans.Add(1)
	s := &coldScan{r: r, data: r.data, cols: cols, tags: r.colTags(cols), batchSize: batchSize}
	s.outPos, s.maxCol = r.outPositions(cols)
	pool, helpers := r.helpers()
	size := int64(len(s.data)) + 1
	if helpers > 0 {
		size = int64(chunkBytes)
	}
	s.chunks = cutChunks(s.data, size)
	helpers = min(helpers, len(s.chunks)-1)

	b := vec.NewTyped(s.tags, min(batchSize, 128))
	emit := func() error {
		if err := yield(b); err != nil {
			return err
		}
		b.Reset()
		return nil
	}
	mine := s.claim() // chunk 0, before any helper can take it
	wait := func() error { return nil }
	if helpers > 0 {
		wait = s.startHelpers(pool, helpers)
		defer wait()
	}
	for y := range s.chunks {
		c := &s.chunks[y]
		if mine == y {
			err := s.scan(c, b, emit)
			r.stats.RowsSkipped.Add(c.skipped)
			if err != nil {
				return err
			}
			mine = s.claim()
			continue
		}
		// A helper holds chunk y: buffer chunks of our own until it is done.
		for mine < len(s.chunks) && !c.buffered() {
			s.buffer(&s.chunks[mine])
			mine = s.claim()
		}
		<-c.done
		if !c.ok {
			err := wait()
			if err == nil {
				err = errors.New("chunk helper stopped")
			}
			return fmt.Errorf("rawcsv: %s: %w", r.desc.Name, err)
		}
		if err := s.deliver(c, b, emit); err != nil {
			return err
		}
	}
	s.seal(r.pm)
	if b.N > 0 {
		return yield(b)
	}
	return nil
}

// startHelpers submits the scan's helper job: n tasks, each claiming and
// buffering chunks until none is left or the scan is over. The returned
// wait ends the scan for the helpers and returns once the job has — at
// once when no worker ever took a task — with the job's error (a helper's
// panic), never its cancellation.
func (s *coldScan) startHelpers(pool *sched.Pool, n int) (wait func() error) {
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- pool.Run(ctx, n, s.help) }()
	return sync.OnceValue(func() error {
		s.stop.Store(true)
		cancel()
		if err := <-errc; !errors.Is(err, context.Canceled) {
			return err
		}
		return nil
	})
}

// help is one helper task.
func (s *coldScan) help(int) error {
	for !s.stop.Load() {
		k := s.claim()
		if k == len(s.chunks) {
			break
		}
		s.buffer(&s.chunks[k])
	}
	return nil
}

// buffer scans chunk c into a batch of its own, for delivery in file
// order.
func (s *coldScan) buffer(c *chunk) {
	defer close(c.done)
	err := s.scan(c, nil, func() error {
		if s.stop.Load() {
			return errAbandoned
		}
		return nil
	})
	if errors.Is(err, errAbandoned) {
		return
	}
	c.err, c.ok = err, true
}

// buffered reports whether chunk c's buffering has finished.
func (c *chunk) buffered() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// scan tokenizes chunk c into its partials and commits every row that
// holds each requested field, all of them converted, to b (nil: to a
// batch of the chunk's own, c.out), calling flush after every batchSize
// rows b gains. Under FailOnBadRows it stops at the first malformed row
// and returns its error.
func (s *coldScan) scan(c *chunk, b *vec.Batch, flush func() error) error {
	r := s.r
	// Each line holds at most one row: sized for that many, the partials
	// never regrow.
	lines := bytes.Count(s.data[c.lo:c.hi], []byte{'\n'}) + 1
	if b == nil {
		b = vec.NewTyped(s.tags, lines)
		c.out = b
	}
	c.rows = make([]int64, 0, lines)
	c.starts = make([][]int32, len(s.cols))
	c.ends = make([][]int32, len(s.cols))
	for i := range s.cols {
		c.starts[i] = make([]int32, 0, lines)
		c.ends[i] = make([]int32, 0, lines)
	}
	// Per-row scratch: spans plus converted payloads; a row commits to the
	// batch only when it holds every requested field and each converts.
	spanS := make([]int32, len(s.cols))
	spanE := make([]int32, len(s.cols))
	rc := r.newRowConverter(s.cols, s.tags)
	off, pending := c.lo, b.N
	if off == 0 && r.header {
		_, off = nextLine(s.data, 0)
	}
	for off < c.hi {
		line, next := nextLine(s.data, off)
		if len(line) == 0 {
			off = next
			continue
		}
		// The row index covers every data line — a row malformed for this
		// column set is still a row (other columns may parse fine), so it
		// is indexed but not yielded. Spans are positional and recorded
		// whenever tokenization found the field, independent of whether
		// the row's values convert.
		c.rows = append(c.rows, off)
		reached := r.fieldSpans(line, s.outPos, s.maxCol, spanS, spanE)
		for i, j := range s.cols {
			if j < reached {
				c.starts[i] = append(c.starts[i], spanS[i])
				c.ends[i] = append(c.ends[i], spanE[i])
			}
		}
		if reached <= s.maxCol || !rc.fill(line, spanS, spanE) {
			c.skipped++
			if r.policy == FailOnBadRows {
				return fmt.Errorf("rawcsv: %s: malformed row at byte %d", r.desc.Name, off)
			}
			off = next
			continue
		}
		rc.commit(b)
		c.committed++
		if pending++; pending == s.batchSize {
			pending = 0
			if err := flush(); err != nil {
				return err
			}
		}
		off = next
	}
	return nil
}

// deliver hands a buffered chunk's rows on in the batch in progress,
// emitting it wherever a serial scan would have, then returns the
// chunk's own error.
func (s *coldScan) deliver(c *chunk, b *vec.Batch, emit func() error) error {
	for lo := 0; lo < c.out.N; {
		hi := min(c.out.N, lo+s.batchSize-b.N)
		for i := range b.Cols {
			b.Cols[i].AppendRows(&c.out.Cols[i], lo, hi)
		}
		b.N += hi - lo
		lo = hi
		if b.N == s.batchSize {
			if err := emit(); err != nil {
				return err
			}
		}
	}
	c.out = nil
	s.r.stats.RowsSkipped.Add(c.skipped)
	return c.err
}

// seal installs the chunks' partials in the positional map — one row
// index and one span array per requested column, each allocated at its
// exact length — and counts the scan's work. A column some row is too
// short for is refused by SetCol, as ever.
func (s *coldScan) seal(pm *PosMap) {
	n, committed := 0, 0
	for i := range s.chunks {
		n += len(s.chunks[i].rows)
		committed += s.chunks[i].committed
	}
	rows := make([]int64, 0, n)
	for i := range s.chunks {
		rows = append(rows, s.chunks[i].rows...)
	}
	pm.SetRows(rows)
	for k, j := range s.cols {
		starts, ends := make([]int32, 0, n), make([]int32, 0, n)
		for i := range s.chunks {
			starts = append(starts, s.chunks[i].starts[k]...)
			ends = append(ends, s.chunks[i].ends[k]...)
		}
		pm.SetCol(j, starts, ends)
	}
	s.r.stats.BytesRead.Add(int64(len(s.data)))
	s.r.stats.FieldsTokenized.Add(int64(committed * len(s.cols)))
}
