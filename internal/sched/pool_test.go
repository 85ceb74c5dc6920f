package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunExecutesAllTasks(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var hit [100]atomic.Int32
	if err := p.Run(context.Background(), len(hit), func(i int) error {
		hit[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range hit {
		if got := hit[i].Load(); got != 1 {
			t.Fatalf("task %d executed %d times", i, got)
		}
	}
}

func TestRunZeroTasks(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	if err := p.Run(context.Background(), 0, func(int) error { t.Fatal("ran"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestFirstErrorStopsDispatch(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	boom := errors.New("boom")
	var ran atomic.Int32
	err := p.Run(context.Background(), 1000, func(i int) error {
		ran.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("dispatch did not stop: %d tasks ran", n)
	}
}

func TestCancellationStopsDispatch(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := p.Run(ctx, 100000, func(i int) error {
		if ran.Add(1) == 5 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 100000 {
		t.Fatalf("dispatch did not stop: %d tasks ran", n)
	}
}

func TestCancelledBeforeDispatch(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := p.Run(ctx, 10, func(int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCancelledWhileWorkersBusy: a job cancelled before any worker came
// free returns at once, having run nothing, and leaves the ring.
func TestCancelledWhileWorkersBusy(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	held, release := make(chan struct{}), make(chan struct{})
	busy := make(chan error, 1)
	go func() {
		busy <- p.Run(context.Background(), 1, func(int) error {
			close(held)
			<-release
			return nil
		})
	}()
	<-held
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	var ran atomic.Int32
	go func() { done <- p.Run(ctx, 10, func(int) error { ran.Add(1); return nil }) }()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) || ran.Load() != 0 {
			t.Fatalf("err = %v after %d tasks, want context.Canceled after none", err, ran.Load())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a cancelled job waited for a busy worker")
	}
	if n := p.StatsSnapshot().ActiveJobs; n != 1 {
		t.Fatalf("%d jobs in the ring, want the busy one only", n)
	}
	close(release)
	if err := <-busy; err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentJobsInterleave verifies that a short job completes while
// a long job is still running: dispatch must rotate between jobs rather
// than draining one before starting the next.
func TestConcurrentJobsInterleave(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	longDone := make(chan struct{})
	shortDone := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		p.Run(context.Background(), 400, func(int) error {
			select {
			case <-shortDone:
			default:
				time.Sleep(time.Millisecond)
			}
			return nil
		})
		close(longDone)
	}()
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond) // let the long job occupy the pool
		p.Run(context.Background(), 4, func(int) error { return nil })
		close(shortDone)
	}()
	select {
	case <-shortDone:
	case <-longDone:
		t.Fatal("long job finished before the short job was served")
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock")
	}
	wg.Wait()
}

func TestManyConcurrentJobs(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var total atomic.Int64
	var wg sync.WaitGroup
	for q := 0; q < 16; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Run(context.Background(), 50, func(int) error {
				total.Add(1)
				return nil
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := total.Load(); got != 16*50 {
		t.Fatalf("ran %d tasks, want %d", got, 16*50)
	}
	st := p.StatsSnapshot()
	if st.JobsRun != 16 || st.TasksRun < 16*50 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCloseFailsPendingJobs(t *testing.T) {
	p := NewPool(1)
	started := make(chan struct{})
	release := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		errc <- p.Run(context.Background(), 100, func(i int) error {
			if i == 0 {
				close(started)
				<-release
			}
			return nil
		})
	}()
	<-started
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	p.Close()
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := p.Run(context.Background(), 1, func(int) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close = %v, want ErrClosed", err)
	}
}
