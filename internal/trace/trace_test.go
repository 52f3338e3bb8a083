package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"fpm/internal/metrics"
)

// traceFile mirrors the trace-event JSON object format for decoding.
type traceFile struct {
	TraceEvents []traceEvent   `json:"traceEvents"`
	DisplayUnit string         `json:"displayTimeUnit"`
	OtherData   map[string]any `json:"otherData"`
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  *int           `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur"`
	Cat  string         `json:"cat"`
	S    string         `json:"s"`
	Args map[string]any `json:"args"`
}

func decodeTrace(t *testing.T, b []byte) traceFile {
	t.Helper()
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, b)
	}
	return tf
}

func TestNilRecorderAndTrackAreNoOps(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	tk := r.NewTrack("x")
	if tk != nil {
		t.Fatal("nil recorder returned a non-nil track")
	}
	// None of these may panic.
	ts := tk.Begin()
	tk.End(ts, "a", CatTask, 1)
	tk.Instant("b", CatSteal, 2)
	r.Start("lcm", nil)
	r.Stop()
	if err := r.Flush(); err != nil {
		t.Fatalf("nil recorder Flush returned %v", err)
	}
	if err := r.WriteJSON(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil recorder WriteJSON returned %v", err)
	}
}

// Every event must carry the fields Perfetto requires; "X" events must
// have a non-negative duration; each track must be named by an "M" event.
func TestWriteJSONEventFormat(t *testing.T) {
	r := NewRecorder(nil)
	r.sample = 0
	r.Start("eclat(Lex)", nil)
	w0 := r.NewTrack("worker 0")
	w1 := r.NewTrack("worker 1")
	ts := w0.Begin()
	time.Sleep(time.Millisecond)
	w0.End(ts, "task", CatTask, 17)
	w1.Instant("steal", CatSteal, 0)
	r.Stop()

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	tf := decodeTrace(t, buf.Bytes())
	if tf.DisplayUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", tf.DisplayUnit)
	}
	if got := tf.OtherData["schema_version"]; got != float64(SchemaVersion) {
		t.Fatalf("otherData.schema_version = %v, want %d", got, SchemaVersion)
	}
	if got := tf.OtherData["kernel"]; got != "eclat(Lex)" {
		t.Fatalf("otherData.kernel = %v", got)
	}

	named := map[int]string{}
	var sawX, sawI bool
	for _, e := range tf.TraceEvents {
		if e.Name == "" || e.Ph == "" || e.Pid == nil {
			t.Fatalf("event missing name/ph/pid: %+v", e)
		}
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				named[e.Tid] = e.Args["name"].(string)
			}
		case "X":
			sawX = true
			if e.Dur == nil || *e.Dur < 0 {
				t.Fatalf("X event without non-negative dur: %+v", e)
			}
			if e.Cat != "task" || e.Args["weight"] != float64(17) {
				t.Fatalf("task span lost category or payload: %+v", e)
			}
		case "i":
			sawI = true
			if e.S != "t" {
				t.Fatalf("instant event scope = %q, want t", e.S)
			}
		}
	}
	if !sawX || !sawI {
		t.Fatalf("missing span kinds: X=%v i=%v", sawX, sawI)
	}
	if named[w0.tid] != "worker 0" || named[w1.tid] != "worker 1" {
		t.Fatalf("thread_name metadata wrong: %v", named)
	}
}

// Overflowing a track's ring must keep the newest spans, count the
// overwritten ones and surface a spans_dropped marker in the output.
func TestRingOverflowKeepsNewestAndReportsDropped(t *testing.T) {
	r := NewRecorder(nil)
	r.cap, r.sample = 4, 0
	tk := r.NewTrack("w")
	for i := 0; i < 10; i++ {
		tk.End(tk.Begin(), "s", CatTask, int64(i))
	}
	if tk.dropped != 6 {
		t.Fatalf("dropped = %d, want 6", tk.dropped)
	}
	got := tk.ordered()
	if len(got) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(got))
	}
	for i, s := range got {
		if want := int64(6 + i); s.arg != want {
			t.Fatalf("ordered()[%d].arg = %d, want %d (oldest-first newest window)", i, s.arg, want)
		}
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	tf := decodeTrace(t, buf.Bytes())
	found := false
	for _, e := range tf.TraceEvents {
		if e.Name == "spans_dropped" {
			found = true
			if e.Args["count"] != float64(6) {
				t.Fatalf("spans_dropped count = %v, want 6", e.Args["count"])
			}
		}
	}
	if !found {
		t.Fatal("no spans_dropped marker in output")
	}
}

// Counter sampling must pull live totals from the metrics recorder and
// always record a final point at Stop, even for sub-interval runs.
func TestCounterSeriesSampledFromMetrics(t *testing.T) {
	src := metrics.NewRecorder()
	src.Start("lcm", 0)
	l := src.NewLocal()
	l.Node()
	l.Emit()
	src.Flush(l)

	r := NewRecorder(nil)
	r.sample = 0 // periodic sampling off; Stop still samples
	r.Start("lcm", src)
	r.Stop()
	src.Stop()

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	tf := decodeTrace(t, buf.Bytes())
	var sawItemsets, sawNodes bool
	for _, e := range tf.TraceEvents {
		if e.Ph != "C" {
			continue
		}
		switch e.Name {
		case "itemsets":
			sawItemsets = true
			if e.Args["emitted"] != float64(1) {
				t.Fatalf("itemsets counter = %v, want 1", e.Args["emitted"])
			}
		case "nodes":
			sawNodes = true
		}
	}
	if !sawItemsets || !sawNodes {
		t.Fatalf("counter series missing: itemsets=%v nodes=%v", sawItemsets, sawNodes)
	}
}

// failAfter fails every write once n bytes have gone through, simulating
// a full disk mid-serialisation.
type failAfter struct {
	n       int
	written int
	errs    int
}

var errSinkFull = errors.New("sink full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.n {
		f.errs++
		return 0, errSinkFull
	}
	f.written += len(p)
	return len(p), nil
}

// A failing trace sink must surface its first error from Flush exactly
// once; repeated Flush calls return the same latched outcome without
// re-writing.
func TestFlushSurfacesWriterErrorOnce(t *testing.T) {
	w := &failAfter{n: 64}
	r := NewRecorder(w)
	r.sample = 0
	tk := r.NewTrack("w")
	for i := 0; i < 20; i++ {
		tk.End(tk.Begin(), "s", CatTask, int64(i))
	}
	err := r.Flush()
	if err == nil || !errors.Is(err, errSinkFull) {
		t.Fatalf("Flush error = %v, want wrapped sink error", err)
	}
	if !strings.Contains(err.Error(), "trace:") {
		t.Fatalf("Flush error not namespaced: %v", err)
	}
	errsAfterFirst := w.errs
	if err2 := r.Flush(); err2 != err {
		t.Fatalf("second Flush = %v, want latched %v", err2, err)
	}
	if w.errs != errsAfterFirst {
		t.Fatal("second Flush wrote to the sink again")
	}
}

// A short write (n < len(p), nil error) must also fail the flush.
type shortWriter struct{ wrote bool }

func (s *shortWriter) Write(p []byte) (int, error) {
	if s.wrote && len(p) > 1 {
		return len(p) - 1, nil
	}
	s.wrote = true
	return len(p), nil
}

func TestFlushDetectsShortWrite(t *testing.T) {
	r := NewRecorder(&shortWriter{})
	r.sample = 0
	tk := r.NewTrack("w")
	tk.End(tk.Begin(), "s", CatTask, 1)
	if err := r.Flush(); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("Flush = %v, want io.ErrShortWrite", err)
	}
}

// Flush without an attached output is a no-op, not an error.
func TestFlushWithoutOutputIsNoOp(t *testing.T) {
	r := NewRecorder(nil)
	r.sample = 0
	r.NewTrack("w").Instant("x", CatSteal, 0)
	if err := r.Flush(); err != nil {
		t.Fatalf("Flush without output = %v", err)
	}
}

func TestCatNames(t *testing.T) {
	cases := []struct {
		c        Cat
		name, ak string
	}{
		{CatTask, "task", "weight"},
		{CatIdle, "idle", "steal_failures"},
		{CatSteal, "steal", "victim"},
		{CatKernel, "kernel", "item"},
		{CatPhase, "phase", "bytes"},
		{CatChunk, "chunk", "candidates"},
		{Cat(99), "span", "value"},
	}
	for _, c := range cases {
		if c.c.String() != c.name || c.c.argKey() != c.ak {
			t.Fatalf("Cat(%d) = %q/%q, want %q/%q", c.c, c.c.String(), c.c.argKey(), c.name, c.ak)
		}
	}
}
