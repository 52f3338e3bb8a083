// Package cancel bridges context.Context cancellation onto the one-check
// discipline the mining hot paths already follow for metrics and trace: a
// Flag is a single atomic bool the kernels poll at recursion boundaries
// (one predictable load per node, nil-safe so the disabled path costs one
// branch), and FromContext arms it from a context's Done channel without
// making any kernel, scheduler or partition loop select on a channel.
//
// The split matters because ctx.Done() is a channel receive — too heavy to
// poll inside a recursion that expands millions of nodes — while an atomic
// load is effectively free next to the work one node performs. A
// context.AfterFunc callback converts the channel edge into the flag
// exactly once, without a goroutine of its own while the run is live.
package cancel

import (
	"context"
	"sync"
	"sync/atomic"
)

// Flag is a one-way cancellation latch. All methods are nil-safe: a nil
// *Flag is the disabled flag every call site nil-checks, so plumbing it
// through kernels and drivers costs nothing when no context is attached.
type Flag struct {
	fired atomic.Bool
	mu    sync.Mutex
	err   error
}

// New returns an armed-able flag not bound to any context; Set trips it.
// Drivers that already have a context should use FromContext instead.
func New() *Flag { return &Flag{} }

// Cancelled reports whether the flag has been tripped. This is the hot-path
// check: one nil test plus one atomic load.
func (f *Flag) Cancelled() bool { return f != nil && f.fired.Load() }

// Err returns the cancellation cause once the flag is tripped, else nil.
// For context-armed flags this is ctx.Err() — context.Canceled or
// context.DeadlineExceeded.
func (f *Flag) Err() error {
	if f == nil || !f.fired.Load() {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Set trips the flag with the given cause; the first cause wins and later
// calls are no-ops. Safe for concurrent use and a nil receiver.
func (f *Flag) Set(err error) {
	if f == nil {
		return
	}
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
	f.fired.Store(true)
}

// FromContext returns a flag that trips when ctx is cancelled or times
// out, plus a stop function the caller must invoke when the run ends. stop
// is idempotent and, if the flag's callback has started, returns only once
// it has finished, so nothing of the run outlives stop. A nil context, or
// one that can never be cancelled (ctx.Done() == nil, e.g.
// context.Background()), yields a nil flag and a no-op stop — the
// zero-cost disabled path.
func FromContext(ctx context.Context) (*Flag, func()) {
	if ctx == nil || ctx.Done() == nil {
		return nil, func() {}
	}
	f := &Flag{}
	// An already-cancelled context trips the flag synchronously, so a run
	// submitted after its deadline deterministically does not start.
	if err := ctx.Err(); err != nil {
		f.Set(err)
		return f, func() {}
	}
	fired := make(chan struct{})
	stopCallback := context.AfterFunc(ctx, func() {
		defer close(fired)
		f.Set(ctx.Err())
	})
	var once sync.Once
	return f, func() {
		once.Do(func() {
			if !stopCallback() {
				<-fired
			}
		})
	}
}
