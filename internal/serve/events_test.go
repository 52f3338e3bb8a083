package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"fpm/internal/jobs"
)

// The full serve wiring end to end: the flight recorder captures the
// serve-path cache events. The result cache stays on, so the repeat run
// also exercises the cache-served timeline.
func TestServeEventsTimeline(t *testing.T) {
	path := testDataset(t, 200, 14)
	inst := NewInstance(Config{MaxConcurrent: 1})
	defer inst.Store.Close()
	req := jobs.JobRequest{Path: path, Algo: "lcm", MinSupport: 5, Workers: 1}

	job1, err := inst.Store.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	j1 := waitTerminal(t, inst.Store, job1.ID)
	if j1.State != "done" {
		t.Fatalf("first job ended %s: %s", j1.State, j1.Error)
	}
	log1, _ := inst.Store.Events(job1.ID)
	if !hasEvent(log1, "dataset_cache", "miss") || !hasEvent(log1, "mine_start", "") ||
		!hasEvent(log1, "mine_end", "") || !hasEvent(log1, "result_cache", "store") {
		t.Fatalf("first-run timeline missing serve events: %+v", log1.Events)
	}

	job2, err := inst.Store.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	j2 := waitTerminal(t, inst.Store, job2.ID)
	if !j2.ServedFromCache {
		t.Fatalf("repeat job not served from the result cache: %+v", j2)
	}
	log2, _ := inst.Store.Events(job2.ID)
	if !hasEvent(log2, "result_cache", "hit") {
		t.Fatalf("cache-served timeline missing result_cache hit: %+v", log2.Events)
	}
}

// TestServeEventLogNDJSON: Config.EventLog receives one JSON object per
// line, in emission order, carrying the same events the per-job ring
// retains — the `fpm serve -log-json` wire format.
func TestServeEventLogNDJSON(t *testing.T) {
	path := testDataset(t, 100, 15)
	var buf syncBuffer
	inst := NewInstance(Config{MaxConcurrent: 1, EventLog: &buf})
	req := jobs.JobRequest{Path: path, Algo: "lcm", MinSupport: 5, Workers: 1}
	job, err := inst.Store.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, inst.Store, job.ID)
	inst.Store.Close()

	var types []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev jobs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line is not one JSON event: %v\n%s", err, line)
		}
		if ev.Job != job.ID {
			t.Fatalf("event for job %d in a single-job run: %s", ev.Job, line)
		}
		types = append(types, ev.Type)
	}
	if types[0] != "submitted" || types[len(types)-1] != "terminal" {
		t.Fatalf("stream must run submitted..terminal: %v", types)
	}
	ring, _ := inst.Store.Events(job.ID)
	if len(types) != len(ring.Events) {
		t.Fatalf("stream carried %d events, ring retained %d", len(types), len(ring.Events))
	}
}

// syncBuffer guards a bytes.Buffer; the event sink writes from runner
// goroutines while the test reads after Close.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func hasEvent(log jobs.EventLog, typ, outcome string) bool {
	for _, ev := range log.Events {
		if ev.Type == typ && (outcome == "" || ev.Outcome == outcome) {
			return true
		}
	}
	return false
}
