package jobs

import (
	"context"
	"time"
)

// Event is one entry in a job's flight recorder: a timestamped, typed
// record of something that happened to the job on its way through the
// store and the serve path. Events are flat and fully typed — no maps, no
// interface{} — so recording one is a struct copy into a preallocated
// ring, cheap enough to leave on for every job. Which optional fields are
// meaningful depends on Type:
//
//	submitted       — job entered the queue
//	running         — claimed by a runner
//	dataset_cache   — dataset acquire {Outcome: hit|miss|coalesced}
//	result_cache    — result cache {Outcome: hit|store|subsume}
//	mine_start      — kernel execution began (after cache consultation)
//	mine_end        — kernel execution returned
//	retry           — a transient mine failure will be retried after
//	                  backoff {Attempt, Error}
//	terminal        — job reached a final state
//	                  {State, Error, Itemsets}
type Event struct {
	Job int `json:"job"`
	// Seq orders events within one job; gaps after a drop are visible as
	// EventLog.Dropped, not as missing sequence numbers.
	Seq  uint64    `json:"seq"`
	TS   time.Time `json:"ts"`
	Type string    `json:"type"`

	Outcome  string `json:"outcome,omitempty"`
	State    string `json:"state,omitempty"`
	Error    string `json:"error,omitempty"`
	Itemsets int    `json:"itemsets,omitempty"`
	Attempt  int    `json:"attempt,omitempty"`
}

// EventLog is the retrievable view of one job's flight recorder.
type EventLog struct {
	Job int `json:"job"`
	// Dropped counts events lost to the ring bound (oldest first); the
	// surviving Events are always the most recent ones.
	Dropped uint64  `json:"dropped,omitempty"`
	Events  []Event `json:"events"`
}

// DefaultEventCap bounds each job's event ring. A job's store-level
// events are a handful plus one per retry; the rest is headroom for
// serve-path cache events on churny jobs.
const DefaultEventCap = 64

// eventRing is a bounded drop-oldest buffer of one job's events. All
// access is under Store.mu.
type eventRing struct {
	buf     []Event
	start   int
	dropped uint64
	seq     uint64
}

func (r *eventRing) append(ev Event) Event {
	ev.Seq = r.seq
	r.seq++
	if len(r.buf) < DefaultEventCap {
		r.buf = append(r.buf, ev)
		return ev
	}
	r.buf[r.start] = ev
	r.start = (r.start + 1) % DefaultEventCap
	r.dropped++
	return ev
}

// snapshot returns the ring's events oldest-first.
func (r *eventRing) snapshot() []Event {
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.start:]...)
	out = append(out, r.buf[:r.start]...)
	return out
}

// emitterKey carries a per-job emit function through the mining context,
// so the serve layer can record cache and kernel events into the job's
// ring without importing the store's internals (and without the store
// importing serve — the same inversion as MineFunc).
type emitterKey struct{}

// WithEmitter returns a context carrying emit; the store installs it on
// each job's mining context.
func WithEmitter(ctx context.Context, emit func(Event)) context.Context {
	return context.WithValue(ctx, emitterKey{}, emit)
}

// Emit records an event into the flight recorder of the job whose mining
// context is ctx. Only Type and the optional payload fields are read;
// Job, Seq and TS are stamped by the recorder. No-op when ctx carries no
// emitter (direct library use, tests).
func Emit(ctx context.Context, ev Event) {
	if emit, ok := ctx.Value(emitterKey{}).(func(Event)); ok {
		emit(ev)
	}
}

// Events returns a copy of the job's flight-recorder log, oldest first.
// The bool reports whether the id exists.
func (st *Store) Events(id int) (EventLog, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if id < 0 || id >= len(st.jobs) {
		return EventLog{}, false
	}
	r := st.jobs[id].events
	return EventLog{Job: id, Dropped: r.dropped, Events: r.snapshot()}, true
}

// emitLocked stamps ev with the job's identity, sequence number and the
// current time, appends it to the job's ring and forwards it to the
// configured sink. Callers hold st.mu; the sink therefore runs under the
// store lock and must be fast and must not call back into the Store.
func (st *Store) emitLocked(job *Job, ev Event) {
	ev.Job = job.ID
	ev.TS = time.Now()
	ev = job.events.append(ev)
	if st.eventSink != nil {
		st.eventSink(ev)
	}
}

// emitJob is emitLocked behind the lock, for emissions originating
// outside the store's critical sections (the context emitter used by the
// serve path while mining).
func (st *Store) emitJob(id int, ev Event) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.emitLocked(st.jobs[id], ev)
}
