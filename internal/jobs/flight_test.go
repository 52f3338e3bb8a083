package jobs

// Tests for the per-job flight recorder: event timelines and the bounded
// ring.

import (
	"context"
	"strings"
	"testing"

	"fpm/internal/metrics"
)

// The timeline of an ordinary job: submitted → running → the events the
// miner emits through its context → terminal, with strictly increasing
// sequence numbers, and every event forwarded to the sink in the same
// order.
func TestFlightRecorderTimeline(t *testing.T) {
	var sunk []string
	mine := func(ctx context.Context, _ JobRequest, _ *metrics.Recorder) (MineResult, error) {
		Emit(ctx, Event{Type: "mine_start"})
		Emit(ctx, Event{Type: "mine_end", Itemsets: 3})
		return MineResult{Itemsets: 3}, nil
	}
	st := NewStoreWithConfig(mine, nil, StoreConfig{
		QueueCap: 4, MaxConcurrent: 1,
		EventSink: func(ev Event) { sunk = append(sunk, ev.Type) },
	})
	defer st.Close()
	job, err := st.Submit(JobRequest{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, st.Get, job.ID, "done")
	log, ok := st.Events(job.ID)
	if !ok {
		t.Fatal("no event log for the job")
	}
	var types []string
	for i, ev := range log.Events {
		if ev.Job != job.ID {
			t.Fatalf("event %d attributed to job %d, want %d", i, ev.Job, job.ID)
		}
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.TS.IsZero() {
			t.Fatalf("event %d not timestamped: %+v", i, ev)
		}
		if i > 0 && ev.TS.Before(log.Events[i-1].TS) {
			t.Fatalf("timestamps regress at event %d", i)
		}
		types = append(types, ev.Type)
	}
	want := []string{"submitted", "running", "mine_start", "mine_end", "terminal"}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("timeline = %v, want %v", types, want)
	}
	if log.Dropped != 0 {
		t.Fatalf("dropped = %d on a 5-event job", log.Dropped)
	}
	last := log.Events[len(log.Events)-1]
	if last.State != "done" || last.Itemsets != 3 {
		t.Fatalf("terminal event = %+v", last)
	}
	// The sink saw the same stream in the same order. No lock needed:
	// MaxConcurrent=1 and the job is terminal, so nothing emits anymore.
	if strings.Join(sunk, ",") != strings.Join(types, ",") {
		t.Fatalf("sink stream %v != ring %v", sunk, types)
	}
}

// A job cancelled while queued still gets a complete timeline: submitted
// then terminal, no running.
func TestFlightRecorderQueueCancelled(t *testing.T) {
	release := make(chan struct{})
	mine := func(context.Context, JobRequest, *metrics.Recorder) (MineResult, error) {
		<-release
		return MineResult{}, nil
	}
	st := NewStoreWithConfig(mine, nil, StoreConfig{QueueCap: 8, MaxConcurrent: 1})
	blocker, _ := st.Submit(JobRequest{})
	waitState(t, st.Get, blocker.ID, "running")
	victim, _ := st.Submit(JobRequest{})
	if _, ok := st.Cancel(victim.ID); !ok {
		t.Fatal("cancel refused")
	}
	close(release)
	st.Close()
	log, _ := st.Events(victim.ID)
	var types []string
	for _, ev := range log.Events {
		types = append(types, ev.Type)
	}
	if strings.Join(types, ",") != "submitted,terminal" {
		t.Fatalf("queue-cancelled timeline = %v", types)
	}
	if last := log.Events[len(log.Events)-1]; last.State != "cancelled" {
		t.Fatalf("terminal event = %+v", last)
	}
}

// The ring drops oldest-first once past DefaultEventCap, counts what it
// dropped, and keeps the tail contiguous.
func TestFlightRecorderRingBound(t *testing.T) {
	const emits = DefaultEventCap + 20
	mine := func(ctx context.Context, _ JobRequest, _ *metrics.Recorder) (MineResult, error) {
		for i := 0; i < emits; i++ {
			Emit(ctx, Event{Type: "mine_start", Itemsets: i})
		}
		return MineResult{}, nil
	}
	st := NewStoreWithConfig(mine, nil, StoreConfig{QueueCap: 4, MaxConcurrent: 1})
	defer st.Close()
	job, _ := st.Submit(JobRequest{})
	waitState(t, st.Get, job.ID, "done")
	log, _ := st.Events(job.ID)
	// submitted + running + the emits + terminal through the ring.
	const total = emits + 3
	if len(log.Events) != DefaultEventCap {
		t.Fatalf("ring kept %d events, cap is %d", len(log.Events), DefaultEventCap)
	}
	if log.Dropped != total-DefaultEventCap {
		t.Fatalf("dropped = %d, want %d", log.Dropped, total-DefaultEventCap)
	}
	for i, ev := range log.Events {
		if want := uint64(total - DefaultEventCap + i); ev.Seq != want {
			t.Fatalf("survivor %d has seq %d, want %d (most recent events kept)", i, ev.Seq, want)
		}
	}
	if log.Events[len(log.Events)-1].Type != "terminal" {
		t.Fatal("terminal event must survive the ring")
	}
}
