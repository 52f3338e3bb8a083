// Package trace is the timeline counterpart of internal/metrics: where the
// counter layer reports *how much* work a run did, the span recorder
// reports *when* each piece of it happened — scheduler tasks, worker idle
// gaps, steal events, partition passes and chunk boundaries — so questions
// the end-of-run totals cannot answer ("why was this run slow?", "which
// chunk stalled pass 1?", "did the workers starve?") become visible as a
// timeline. The output is Chrome trace-event JSON, loadable directly in
// Perfetto (https://ui.perfetto.dev) or chrome://tracing, with one track
// per scheduler worker and one per partition phase, plus counter series
// sampled from the metrics recorder so spans and counters land in one
// file.
//
// The recording discipline mirrors metrics.Local's two tiers:
//
//   - Track is a per-goroutine span arena. Every hot-path site is a single
//     nil check (a nil *Track is the disabled sink), and an enabled append
//     writes into a preallocated ring buffer — no locks, no allocation, no
//     atomics. When a track overflows its ring the oldest spans are
//     overwritten and counted, so tracing a long run costs bounded memory
//     and keeps the most recent (usually most interesting) window.
//   - Recorder is the shared per-run sink: it owns the clock origin, hands
//     out tracks, samples counter series from a metrics.Recorder on a
//     background ticker while the run is live, and serialises everything
//     into one trace file when the run ends. All Recorder methods are
//     nil-safe, so a nil *Recorder threads through drivers as the disabled
//     recorder.
//
// Tracks are single-goroutine: each scheduler worker, sequential kernel
// state and partition driver owns its own. The Recorder hands them out
// under a lock, and WriteJSON must only run after the goroutines writing
// spans have finished (the mining drivers flush after their pools join).
package trace

import (
	"fmt"
	"io"
	"sync"
	"time"

	"fpm/internal/failpoint"
	"fpm/internal/metrics"
)

// SchemaVersion is the version stamped into the trace file's metadata
// (otherData.schema_version), bumped when the span categories, arg keys or
// counter series change incompatibly. Version 1 is the initial format.
const SchemaVersion = 1

// defaultCapacity is the per-track span ring size. At 48 bytes per span a
// full track costs ~384 KiB; an 8-worker pool tops out around 3 MiB.
const defaultCapacity = 8192

// defaultSampleInterval is the counter-series sampling period. 25ms keeps
// a multi-minute partitioned run under a few thousand points while still
// resolving per-chunk counter slopes.
const defaultSampleInterval = 25 * time.Millisecond

// maxCounterPoints bounds the sampled counter series; beyond it samples
// are dropped (the final Stop sample is always recorded).
const maxCounterPoints = 1 << 13

// Cat classifies a span; it selects the trace-event category string and
// the JSON key the span's numeric payload is rendered under.
type Cat uint8

const (
	// CatTask is one scheduler task execution; payload = subtree weight.
	CatTask Cat = iota
	// CatIdle is a worker's starved interval (inside hunt); payload =
	// failed full victim scans during the interval.
	CatIdle
	// CatSteal is a successful steal (instant event); payload = victim id.
	CatSteal
	// CatKernel is one coarse kernel recursion boundary — a first-level
	// subtree mined sequentially; payload = the subtree's branch item.
	CatKernel
	// CatPhase is one out-of-core pass boundary (sizing scan, pass-2
	// recount); payload = bytes streamed during the phase.
	CatPhase
	// CatChunk is one pass-1 chunk's merge into the candidate union;
	// payload = candidates the chunk added to the union.
	CatChunk
)

// String returns the trace-event category name.
func (c Cat) String() string {
	switch c {
	case CatTask:
		return "task"
	case CatIdle:
		return "idle"
	case CatSteal:
		return "steal"
	case CatKernel:
		return "kernel"
	case CatPhase:
		return "phase"
	case CatChunk:
		return "chunk"
	}
	return "span"
}

// argKey is the JSON args key the span payload is rendered under.
func (c Cat) argKey() string {
	switch c {
	case CatTask:
		return "weight"
	case CatIdle:
		return "steal_failures"
	case CatSteal:
		return "victim"
	case CatKernel:
		return "item"
	case CatPhase:
		return "bytes"
	case CatChunk:
		return "candidates"
	}
	return "value"
}

// span is one recorded event: a complete slice of a track's timeline, or
// an instant (dur < 0).
type span struct {
	name  string
	cat   Cat
	start int64 // ns since the recorder's clock origin
	dur   int64 // ns; negative marks an instant event
	arg   int64 // payload, rendered under cat.argKey()
}

// Track is one timeline row: a single-goroutine span arena. All methods
// are nil-safe; a nil *Track is the disabled sink the hot paths nil-check.
type Track struct {
	rec     *Recorder
	tid     int
	name    string
	spans   []span
	head    int // ring start once len(spans) == cap(spans)
	dropped uint64
}

// Begin returns the current timestamp (ns since the run's clock origin)
// for a span that End will close, or 0 when the track is disabled.
func (t *Track) Begin() int64 {
	if t == nil {
		return 0
	}
	return t.rec.now()
}

// End records a complete span from start (a Begin result) to now. name
// should be a reachable constant or long-lived string — tracks retain it
// until the trace is written. arg is rendered under the category's payload
// key (see Cat).
func (t *Track) End(start int64, name string, cat Cat, arg int64) {
	if t == nil {
		return
	}
	t.add(span{name: name, cat: cat, start: start, dur: t.rec.now() - start, arg: arg})
}

// Instant records a zero-duration marker event.
func (t *Track) Instant(name string, cat Cat, arg int64) {
	if t == nil {
		return
	}
	t.add(span{name: name, cat: cat, start: t.rec.now(), dur: -1, arg: arg})
}

// add appends into the ring, overwriting the oldest span once full.
func (t *Track) add(s span) {
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, s)
		return
	}
	t.spans[t.head] = s
	t.head++
	if t.head == len(t.spans) {
		t.head = 0
	}
	t.dropped++
}

// ordered returns the track's spans oldest-first.
func (t *Track) ordered() []span {
	if t.head == 0 {
		return t.spans
	}
	out := make([]span, 0, len(t.spans))
	out = append(out, t.spans[t.head:]...)
	out = append(out, t.spans[:t.head]...)
	return out
}

// counterPoint is one sampled view of the metrics recorder's live totals.
type counterPoint struct {
	ts         int64 // ns since clock origin
	nodes      uint64
	emitted    uint64
	spawned    uint64
	stolen     uint64
	stealFails uint64
	chunks     uint64
	candidates uint64
	bytes      int64
}

// Recorder owns one run's trace: the clock origin, the tracks, the
// sampled counter series and the output writer. All methods are nil-safe.
type Recorder struct {
	cap    int           // per-track span ring size
	sample time.Duration // counter-series period; <= 0 samples only at Stop
	out    io.Writer

	start  time.Time
	kernel string

	mu       sync.Mutex
	tracks   []*Track
	counters []counterPoint
	src      *metrics.Recorder

	stopC chan struct{}
	doneC chan struct{}

	flushOnce sync.Once
	flushErr  error
}

// NewRecorder returns an enabled span recorder whose Flush writes the
// trace into out; with a nil out, Flush is a no-op and the caller drives
// WriteJSON directly. The clock origin is stamped now and re-stamped by
// Start.
func NewRecorder(out io.Writer) *Recorder {
	return &Recorder{cap: defaultCapacity, sample: defaultSampleInterval, out: out, start: time.Now()}
}

// Enabled reports whether r records anything.
func (r *Recorder) Enabled() bool { return r != nil }

// now is the recorder clock: ns since the run's origin.
func (r *Recorder) now() int64 { return int64(time.Since(r.start)) }

// NewTrack allocates one timeline row. The returned track is nil when the
// recorder is disabled, so call sites keep the one-nil-check discipline.
// Safe to call from any goroutine; the track itself is single-goroutine.
func (r *Recorder) NewTrack(name string) *Track {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &Track{rec: r, tid: len(r.tracks), name: name, spans: make([]span, 0, r.cap)}
	r.tracks = append(r.tracks, t)
	return t
}

// Start stamps the run identity and clock origin and, when src is
// non-nil, begins sampling its counters into the trace's counter series
// on the configured interval until Stop.
func (r *Recorder) Start(kernel string, src *metrics.Recorder) {
	if r == nil {
		return
	}
	r.kernel = kernel
	r.start = time.Now()
	if src == nil || r.sample <= 0 {
		r.mu.Lock()
		r.src = src
		r.mu.Unlock()
		return
	}
	r.mu.Lock()
	r.src = src
	r.mu.Unlock()
	r.stopC = make(chan struct{})
	r.doneC = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		tick := time.NewTicker(r.sample)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				r.samplePoint()
			case <-stop:
				return
			}
		}
	}(r.stopC, r.doneC)
}

// Stop halts counter sampling and records one final sample, so even runs
// shorter than the sampling interval carry a counter series.
func (r *Recorder) Stop() {
	if r == nil {
		return
	}
	if r.stopC != nil {
		close(r.stopC)
		<-r.doneC
		r.stopC, r.doneC = nil, nil
	}
	r.samplePoint()
}

// samplePoint freezes the metrics recorder's current totals into one
// counter point.
func (r *Recorder) samplePoint() {
	r.mu.Lock()
	src := r.src
	r.mu.Unlock()
	if src == nil {
		return
	}
	snap := src.Snapshot() // outside r.mu: Snapshot takes the recorder's own lock
	p := counterPoint{ts: r.now(), nodes: snap.Nodes, emitted: snap.Emitted}
	if ps := snap.Parallel; ps != nil {
		p.spawned, p.stolen, p.stealFails = ps.TasksSpawned, ps.TasksStolen, ps.StealFailures
	}
	if pt := snap.Partition; pt != nil {
		p.chunks, p.candidates = pt.Chunks, pt.CandidatesGenerated
		p.bytes = pt.BytesPass1 + pt.BytesPass2
	}
	r.mu.Lock()
	if len(r.counters) < maxCounterPoints {
		r.counters = append(r.counters, p)
	}
	r.mu.Unlock()
}

// Flush serialises the trace into the writer given to NewRecorder,
// exactly once; later calls return the first outcome. Without an attached
// output it is a no-op. Mining is never interrupted by a failing trace
// sink: drivers flush after the run completes and surface the error once.
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	r.flushOnce.Do(func() {
		if err := failpoint.Hit(failpoint.TraceFlush); err != nil {
			r.flushErr = fmt.Errorf("trace: %w", err)
			return
		}
		if r.out != nil {
			r.flushErr = r.WriteJSON(r.out)
		}
	})
	return r.flushErr
}
