package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer keeps the spans the benchmark records around its calls into each
// layer and writes them, when the run ends, as a Chrome trace-event JSON
// file in the format `fpm -trace` writes (loadable in Perfetto). A nil
// tracer records nothing.
type tracer struct {
	name   string
	origin time.Time

	mu     sync.Mutex
	spans  []span
	tracks map[int]string
}

// span is one complete event. Spans of one op share its id.
type span struct {
	name       string
	tid        int
	op         int
	start, end time.Time
}

func newTracer(name string) *tracer {
	return &tracer{name: name, origin: time.Now(), tracks: map[int]string{}}
}

// track names the thread a tid's spans are drawn on.
func (t *tracer) track(tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.tracks[tid] = name
	t.mu.Unlock()
}

func (t *tracer) add(name string, tid, op int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, tid: tid, op: op, start: start, end: end})
	t.mu.Unlock()
}

// traceEvent is one trace-event JSON object.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData"`
}

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	usec := func(tm time.Time) float64 { return float64(tm.Sub(t.origin).Nanoseconds()) / 1e3 }
	evs := []traceEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "bench " + t.name}}}
	tids := make([]int, 0, len(t.tracks))
	for tid := range t.tracks {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		evs = append(evs,
			traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": t.tracks[tid]}},
			traceEvent{Name: "thread_sort_index", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"sort_index": tid}})
	}
	spans := append([]span(nil), t.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	for _, s := range spans {
		dur := float64(s.end.Sub(s.start).Nanoseconds()) / 1e3
		evs = append(evs, traceEvent{Name: s.name, Ph: "X", Pid: 1, Tid: s.tid, Ts: usec(s.start),
			Dur: &dur, Cat: "bench", Args: map[string]any{"op": s.op}})
	}
	data, err := json.Marshal(traceFile{TraceEvents: evs, DisplayTimeUnit: "ms",
		OtherData: map[string]any{"tool": "bench", "workload": t.name}})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
