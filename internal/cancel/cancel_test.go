package cancel

import (
	"context"
	"errors"
	"runtime"
	"testing"
)

// A flag armed on a live context costs the run no goroutine: the context
// trips it through a callback, and stop releases that callback.
func TestFromContextStartsNoGoroutine(t *testing.T) {
	ctx, cancelCtx := context.WithCancel(context.Background())
	defer cancelCtx()
	before := runtime.NumGoroutine()
	f, stop := FromContext(ctx)
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("FromContext on a live context: %d goroutines, want %d", n, before)
	}
	stop()
	stop() // idempotent
	cancelCtx()
	if f.Cancelled() {
		t.Fatal("a flag whose stop ran tripped on a later cancel")
	}
}

// Cancelling the context trips the flag with the context's error; stop
// after the trip returns once the callback has finished, so the cause is
// visible to the caller.
func TestFromContextTripsOnCancel(t *testing.T) {
	ctx, cancelCtx := context.WithCancel(context.Background())
	f, stop := FromContext(ctx)
	cancelCtx()
	stop()
	stop()
	if !f.Cancelled() || !errors.Is(f.Err(), context.Canceled) {
		t.Fatalf("after cancel and stop: Cancelled=%v Err=%v, want true, context.Canceled", f.Cancelled(), f.Err())
	}
}

// A context that is already done trips the flag before FromContext
// returns; one that can never be cancelled yields the nil flag.
func TestFromContextDoneAndBackground(t *testing.T) {
	ctx, cancelCtx := context.WithCancel(context.Background())
	cancelCtx()
	f, stop := FromContext(ctx)
	defer stop()
	if !errors.Is(f.Err(), context.Canceled) {
		t.Fatalf("already-cancelled context: Err=%v, want context.Canceled", f.Err())
	}
	g, stopBg := FromContext(context.Background())
	defer stopBg()
	if g != nil || g.Cancelled() {
		t.Fatalf("background context: flag %v, want nil", g)
	}
}
