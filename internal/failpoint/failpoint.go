// Package failpoint is a zero-dependency, build-tag-free fault-injection
// registry for the robustness tests: named sites in the I/O, scheduler,
// checkpoint and telemetry layers call Hit (or wrap a reader) and, when a
// test has armed the site, receive an injected error, a panic, or a
// truncated read. In production nothing is ever armed and every site costs
// one atomic pointer load plus a nil check — the same one-check discipline
// internal/metrics and internal/trace follow, with no build tags to fork
// the binary.
//
// The registry is process-global (sites live in packages that take no
// options, e.g. the fimi readers), so tests that arm it must not run in
// parallel with each other; Disable restores the zero-cost path.
package failpoint

import (
	"io"
	"sync"
	"sync/atomic"
)

// Well-known site names. Constants so call sites and tests cannot drift.
const (
	// FimiRead wraps the byte stream under every fimi reader: an armed
	// error surfaces as a read failure, an armed short-read truncates the
	// stream mid-transaction.
	FimiRead = "fimi.read"
	// PartitionCheckpointWrite fires inside the checkpoint writer, before
	// the temp file is renamed into place — an armed error simulates a
	// full disk / failed flush without leaving a torn sidecar.
	PartitionCheckpointWrite = "partition.checkpoint.write"
	// PartitionChunkMine fires as each pass-1 chunk is handed to the pool;
	// arm an error to abort the run between checkpoints (a crash the
	// resume path must survive). Panics inside a chunk's mining are the
	// pool's, under ParallelWorkerTask.
	PartitionChunkMine = "partition.chunk.mine"
	// PartitionRecountChunk fires at the top of each pass-2 recount chunk;
	// arm an error to crash the run between pass-2 checkpoints and
	// exercise the phase-2 resume path.
	PartitionRecountChunk = "partition.recount.chunk"
	// ParallelWorkerTask fires at the top of every scheduler task
	// execution; arm a panic to exercise worker panic recovery.
	ParallelWorkerTask = "parallel.worker.task"
	// TraceFlush fires inside trace.Recorder.Flush; an armed error
	// simulates a failing telemetry/trace sink after a completed mine.
	TraceFlush = "trace.flush"
	// ServecacheDatasetParse fires in the dataset cache just before a
	// cache-miss parse runs; an armed error surfaces as a parse failure —
	// a transient I/O fault the serve layer's retry policy must absorb.
	ServecacheDatasetParse = "servecache.dataset.parse"
	// JobsMine fires at the top of every mine attempt in the job store
	// (including retries); arm FailAfter to fail the first N attempts and
	// let a retry succeed.
	JobsMine = "jobs.mine"
	// ServecachePersistWrite fires in the result-cache snapshot writer
	// before any byte is written — an injected failure simulates a full
	// disk and must leave the previous snapshot intact.
	ServecachePersistWrite = "servecache.persist.write"
)

// arm is one armed site: after skip more hits, trigger (err, panic or
// short-read) up to count times (count < 0 means every hit).
type arm struct {
	skip     int
	count    int
	err      error
	panicMsg string
	shortAt  int64 // >0: reader truncates after this many bytes
}

// Registry holds armed failpoints. Arm it with the Fail/Panic/ShortRead
// builders and install it with Enable; the zero value is valid and empty.
type Registry struct {
	mu   sync.Mutex
	arms map[string]*arm
	hits map[string]int
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

func (r *Registry) armSite(site string, a *arm) {
	r.mu.Lock()
	if r.arms == nil {
		r.arms = make(map[string]*arm)
	}
	r.arms[site] = a
	r.mu.Unlock()
}

// Fail arms site to return err on every subsequent hit.
func (r *Registry) Fail(site string, err error) { r.armSite(site, &arm{count: -1, err: err}) }

// FailAfter arms site to return err once, on the (skip+1)th hit after
// arming; earlier and later hits pass through. This is how the chaos tests
// crash a run "mid-flight": let N chunks succeed, fail the next.
func (r *Registry) FailAfter(site string, skip int, err error) {
	r.armSite(site, &arm{skip: skip, count: 1, err: err})
}

// Panic arms site to panic(msg) once, after skip clean hits.
func (r *Registry) Panic(site string, skip int, msg string) {
	r.armSite(site, &arm{skip: skip, count: 1, panicMsg: msg})
}

// ShortRead arms site so the next wrapped reader truncates cleanly (io.EOF)
// after n bytes — a short read mid-stream, as a kill -9 between appends or
// a truncated download would produce.
func (r *Registry) ShortRead(site string, n int64) {
	r.armSite(site, &arm{count: -1, shortAt: n})
}

// Hits reports how many times site has been evaluated since arming
// (trigger or pass-through), for test assertions.
func (r *Registry) Hits(site string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits[site]
}

// hit evaluates one site visit: returns the armed error, panics, or passes.
func (r *Registry) hit(site string) error {
	r.mu.Lock()
	if r.hits == nil {
		r.hits = make(map[string]int)
	}
	r.hits[site]++
	a := r.arms[site]
	if a == nil || a.shortAt > 0 {
		r.mu.Unlock()
		return nil
	}
	if a.skip > 0 {
		a.skip--
		r.mu.Unlock()
		return nil
	}
	if a.count == 0 {
		r.mu.Unlock()
		return nil
	}
	if a.count > 0 {
		a.count--
	}
	err, msg := a.err, a.panicMsg
	r.mu.Unlock()
	if msg != "" {
		panic("failpoint " + site + ": " + msg)
	}
	return err
}

// active is the installed registry; nil (the default) disables every site.
var active atomic.Pointer[Registry]

// Enable installs r as the process-wide registry. Tests must pair it with
// Disable (typically via t.Cleanup) and must not run in parallel.
func Enable(r *Registry) { active.Store(r) }

// Disable restores the zero-cost disabled state.
func Disable() { active.Store(nil) }

// Hit evaluates the named site against the installed registry: nil when
// disabled or unarmed (the production path — one atomic load, one branch),
// the armed error when a fault is due, or a panic for panic-armed sites.
func Hit(site string) error {
	r := active.Load()
	if r == nil {
		return nil
	}
	return r.hit(site)
}

// WrapReader routes a byte stream through the named site: when the site is
// armed with an error the first Read returns it; when armed with a short
// read the stream ends (io.EOF) after the armed byte count. Disabled or
// unarmed, it returns r unchanged — zero wrapping cost on the production
// path (the check happens once per wrap, not per Read).
func WrapReader(site string, r io.Reader) io.Reader {
	reg := active.Load()
	if reg == nil {
		return r
	}
	reg.mu.Lock()
	if reg.hits == nil {
		reg.hits = make(map[string]int)
	}
	reg.hits[site]++
	a := reg.arms[site]
	reg.mu.Unlock()
	if a == nil {
		return r
	}
	return &faultReader{site: site, r: r, a: a, reg: reg}
}

// faultReader injects the armed fault into a wrapped stream.
type faultReader struct {
	site string
	r    io.Reader
	a    *arm
	reg  *Registry
	n    int64
}

func (f *faultReader) Read(p []byte) (int, error) {
	f.reg.mu.Lock()
	shortAt, err, count := f.a.shortAt, f.a.err, f.a.count
	f.reg.mu.Unlock()
	if err != nil && count != 0 {
		f.reg.mu.Lock()
		if f.a.count > 0 {
			f.a.count--
		}
		f.reg.mu.Unlock()
		return 0, err
	}
	if shortAt > 0 {
		if f.n >= shortAt {
			return 0, io.EOF
		}
		if max := shortAt - f.n; int64(len(p)) > max {
			p = p[:max]
		}
	}
	n, rerr := f.r.Read(p)
	f.n += int64(n)
	return n, rerr
}
