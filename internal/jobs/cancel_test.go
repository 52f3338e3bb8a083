package jobs

// Job cancellation, per-job timeout, and graceful-shutdown semantics of
// the Store, with a fake miner that honours its context the way the real
// kernels do.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"fpm/internal/metrics"
)

// ctxMiner blocks until its context trips (or started/release coordination
// says otherwise) and returns ctx.Err(), like a cancelled kernel.
func ctxMiner(started chan<- int) MineFunc {
	return func(ctx context.Context, req JobRequest, rec *metrics.Recorder) (MineResult, error) {
		if started != nil {
			started <- req.MinSupport
		}
		<-ctx.Done()
		return MineResult{}, ctx.Err()
	}
}

// waitState polls until job id reaches state or the deadline passes.
func waitState(t *testing.T, get func(int) (Job, bool), id int, state string) Job {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		j, ok := get(id)
		if !ok {
			t.Fatalf("job %d vanished", id)
		}
		if j.State == state {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d stuck in %q, want %q", id, j.State, state)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStoreCancelRunningJob(t *testing.T) {
	started := make(chan int, 1)
	st := NewStoreWithConfig(ctxMiner(started), nil, StoreConfig{})
	defer st.Close()
	job, err := st.Submit(JobRequest{Path: "x", Algo: "lcm", MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the job is mining and parked on its context
	if _, ok := st.Cancel(job.ID); !ok {
		t.Fatal("Cancel: no such job")
	}
	got := waitState(t, st.Get, job.ID, "cancelled")
	if !strings.Contains(got.Error, context.Canceled.Error()) {
		t.Fatalf("cancelled job error = %q", got.Error)
	}
}

func TestStoreCancelQueuedJob(t *testing.T) {
	started := make(chan int, 1)
	st := NewStoreWithConfig(ctxMiner(started), nil, StoreConfig{})
	first, err := st.Submit(JobRequest{Path: "x", Algo: "lcm", MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	<-started // runner is busy; the next submission stays queued
	queued, err := st.Submit(JobRequest{Path: "y", Algo: "lcm", MinSupport: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := st.Cancel(queued.ID)
	if !ok || got.State != "cancelled" {
		t.Fatalf("queued cancel = %+v, ok %v; want immediate cancelled", got, ok)
	}
	// Unblock the runner; the cancelled job must never transition to
	// running even after the queue drains to it.
	st.Cancel(first.ID)
	st.Close()
	if j, _ := st.Get(queued.ID); j.State != "cancelled" {
		t.Fatalf("cancelled queued job ran anyway: %+v", j)
	}
	if _, ok := st.Cancel(99); ok {
		t.Fatal("Cancel accepted an id that does not exist")
	}
}

func TestStoreJobTimeout(t *testing.T) {
	st := NewStoreWithConfig(ctxMiner(nil), nil, StoreConfig{})
	defer st.Close()
	job, err := st.Submit(JobRequest{Path: "x", Algo: "lcm", MinSupport: 2, TimeoutMS: 20})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, st.Get, job.ID, "failed")
	if !strings.Contains(got.Error, context.DeadlineExceeded.Error()) {
		t.Fatalf("timed-out job error = %q, want deadline exceeded", got.Error)
	}
}

// TestStoreShutdown: the in-flight job is cancelled, queued jobs drain as
// cancelled without running, the runner goroutine joins, and further
// submissions are refused.
func TestStoreShutdown(t *testing.T) {
	started := make(chan int, 1)
	st := NewStoreWithConfig(ctxMiner(started), nil, StoreConfig{})
	running, err := st.Submit(JobRequest{Path: "x", Algo: "lcm", MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := st.Submit(JobRequest{Path: "y", Algo: "lcm", MinSupport: 3})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { st.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not join the runner")
	}
	if j, _ := st.Get(running.ID); j.State != "cancelled" {
		t.Fatalf("in-flight job after shutdown: %+v", j)
	}
	if j, _ := st.Get(queued.ID); j.State != "cancelled" {
		t.Fatalf("queued job after shutdown: %+v", j)
	}
	if _, err := st.Submit(JobRequest{Path: "z", Algo: "lcm", MinSupport: 2}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after shutdown = %v, want ErrClosed", err)
	}
	st.Shutdown() // idempotent
}
