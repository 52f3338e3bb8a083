package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"fpm"
	"fpm/internal/jobs"
)

// World is the on-disk corpus set a load run mines against: three Quest
// datasets spanning the job-size spectrum. Built once per run (BuildWorld)
// so every workload and every PR measures the same inputs.
type World struct {
	Dir string
	// Small mines in ~a millisecond: the queue/admission overhead
	// dominates, which is exactly what T1 measures.
	Small string
	// Medium mines in tens of milliseconds: the T2/T3/T5 mixed workhorse.
	Medium string
	// Slow mines long enough (hundreds of ms at SlowSup) for T4's
	// cancellations to land mid-run rather than in the queue.
	Slow string

	SmallSup, MediumSup, SlowSup int
}

// BuildWorld generates the corpus set under dir (created if needed).
// Generation is seeded: the same seed reproduces the same bytes. A file
// that already holds exactly the bytes we would write is left untouched
// (mtime preserved), so a server's input identities — and therefore its
// durable result-cache snapshot — survive a rebuild of the same world:
// the kill-restart smoke depends on the restored cache still matching.
func BuildWorld(dir string, seed int64) (World, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return World{}, err
	}
	w := World{
		Dir:      dir,
		Small:    filepath.Join(dir, "small.dat"),
		Medium:   filepath.Join(dir, "medium.dat"),
		Slow:     filepath.Join(dir, "slow.dat"),
		SmallSup: 5, MediumSup: 12, SlowSup: 6,
	}
	gens := []struct {
		path string
		cfg  fpm.QuestConfig
	}{
		{w.Small, fpm.QuestConfig{Transactions: 600, AvgLen: 6, AvgPatternLen: 3, Items: 200, Patterns: 400, Seed: seed}},
		{w.Medium, fpm.QuestConfig{Transactions: 4000, AvgLen: 10, AvgPatternLen: 4, Items: 400, Patterns: 800, Seed: seed + 1}},
		{w.Slow, fpm.QuestConfig{Transactions: 12000, AvgLen: 14, AvgPatternLen: 6, Items: 500, Patterns: 1000, Seed: seed + 2}},
	}
	for _, g := range gens {
		var buf bytes.Buffer
		if err := fpm.WriteFIMI(&buf, fpm.GenerateQuest(g.cfg)); err != nil {
			return World{}, fmt.Errorf("loadgen: generating %s: %w", g.path, err)
		}
		if old, err := os.ReadFile(g.path); err == nil && bytes.Equal(old, buf.Bytes()) {
			continue // identical content: keep the existing file (and its identity)
		}
		if err := os.WriteFile(g.path, buf.Bytes(), 0o644); err != nil {
			return World{}, fmt.Errorf("loadgen: generating %s: %w", g.path, err)
		}
	}
	return w, nil
}

// Outcome classifies one operation.
const (
	OutcomeDone        = "done"        // job finished successfully
	OutcomeFailed      = "failed"      // job failed unexpectedly
	OutcomeDeadline    = "deadline"    // job overran its per-job timeout_ms (expected in T4)
	OutcomeCancelled   = "cancelled"   // job cancelled (expected in T4)
	OutcomeRejected    = "rejected"    // POST /jobs returned 429 (backpressure)
	OutcomeError       = "error"       // transport/protocol error: a dropped result
	OutcomeInterrupted = "interrupted" // run context cancelled mid-wait (drain)
)

// Sample is one operation's measurement.
type Sample struct {
	Outcome string
	// AdmitNS is the POST /jobs round-trip (queue-admission latency).
	AdmitNS int64
	// E2ENS is submission (or scheduled arrival, open loop) → terminal state.
	E2ENS int64
	// QueueNS/MineNS split the server-side lifetime from the job record's
	// submitted/started/finished timestamps.
	QueueNS, MineNS int64
	// Itemsets and Hot feed the T3 result-consistency check.
	Itemsets int
	Hot      bool
	// FromCache marks a job the server answered from its result cache
	// (job record's served_from_cache); such jobs report mine time ≈ 0,
	// and the latency split must attribute that honestly.
	FromCache bool
}

// Op issues one operation against the server and reports its sample.
// The error return is reserved for harness bugs; service-level failures
// are outcomes.
type Op func(ctx context.Context, c *Client, rng *rand.Rand) Sample

// Spec is one workload in the taxonomy.
type Spec struct {
	Name  string // "T1".."T6"
	Title string
	Desc  string
	// Loop selects the arrival process: "open" (fixed QPS arrivals,
	// latency measured from scheduled arrival — coordinated-omission
	// safe) or "closed" (workers issue the next op when the previous
	// completes, optionally capped at QPS).
	Loop string
	// NewOp builds the workload's operation against a world.
	NewOp func(w World) Op
	// SLO is the workload's default latency/error budget.
	SLO SLO
}

// classify maps a terminal job record to an outcome.
func classify(job jobs.Job) string {
	switch job.State {
	case "done":
		return OutcomeDone
	case "cancelled":
		return OutcomeCancelled
	case "failed":
		if strings.Contains(job.Error, "deadline") {
			return OutcomeDeadline
		}
		return OutcomeFailed
	}
	return OutcomeError
}

// finishSample fills the server-side split from a terminal job record.
func finishSample(s *Sample, job jobs.Job) {
	s.Outcome = classify(job)
	s.Itemsets = job.Itemsets
	s.FromCache = job.ServedFromCache
	if !job.Started.IsZero() {
		s.QueueNS = job.Started.Sub(job.Submitted).Nanoseconds()
		if !job.Finished.IsZero() {
			s.MineNS = job.Finished.Sub(job.Started).Nanoseconds()
		}
	} else if !job.Finished.IsZero() { // cancelled straight out of the queue
		s.QueueNS = job.Finished.Sub(job.Submitted).Nanoseconds()
	}
}

// submitAndWait is the common op body: POST, classify the admission, then
// poll to a terminal state. after, when non-nil, runs between admission
// and the wait (T4 uses it to fire the DELETE).
func submitAndWait(ctx context.Context, c *Client, req jobs.JobRequest, hot bool, after func(id int)) Sample {
	start := time.Now()
	job, code, err := c.Submit(ctx, req)
	s := Sample{AdmitNS: time.Since(start).Nanoseconds(), Hot: hot}
	if err != nil {
		if ctx.Err() != nil {
			s.Outcome = OutcomeInterrupted
		} else {
			s.Outcome = OutcomeError
		}
		return s
	}
	if code != 202 {
		s.Outcome = OutcomeRejected
		return s
	}
	if after != nil {
		after(job.ID)
	}
	final, err := c.WaitTerminal(ctx, job.ID)
	s.E2ENS = time.Since(start).Nanoseconds()
	if err != nil {
		if ctx.Err() != nil {
			s.Outcome = OutcomeInterrupted
		} else {
			s.Outcome = OutcomeError // admitted but lost: a dropped result
		}
		return s
	}
	finishSample(&s, final)
	return s
}

// Taxonomy is the T1–T6 workload set, in the NikolasRummel bench style:
// each row isolates one service behaviour so a regression pins to a cause.
var Taxonomy = []Spec{
	{
		Name:  "T1",
		Title: "uniform-small",
		Desc:  "Open-loop stream of identical small jobs: queue-admission and scheduling overhead, undiluted by mining time.",
		Loop:  "open",
		NewOp: func(w World) Op {
			return func(ctx context.Context, c *Client, rng *rand.Rand) Sample {
				return submitAndWait(ctx, c, jobs.JobRequest{
					Path: w.Small, Algo: "lcm", MinSupport: w.SmallSup, Workers: 1,
				}, false, nil)
			}
		},
		SLO: SLO{AdmitP99MS: 250, E2EP99MS: 5000, MaxFailRate: 0, MaxRejectRate: 0.5, RequireZeroDropped: true, MinOps: 1},
	},
	{
		Name:  "T2",
		Title: "mixed-sizes",
		Desc:  "Closed-loop mix of small/medium/slow jobs across kernels: head-of-line blocking of short jobs behind long ones.",
		Loop:  "closed",
		NewOp: func(w World) Op {
			kernels := []string{"lcm", "eclat", "fpgrowth"}
			return func(ctx context.Context, c *Client, rng *rand.Rand) Sample {
				req := jobs.JobRequest{Algo: kernels[rng.Intn(len(kernels))], Workers: 1}
				switch p := rng.Float64(); {
				case p < 0.60:
					req.Path, req.MinSupport = w.Small, w.SmallSup
				case p < 0.90:
					req.Path, req.MinSupport = w.Medium, w.MediumSup
				default:
					req.Path, req.MinSupport = w.Slow, w.SlowSup*3
				}
				return submitAndWait(ctx, c, req, false, nil)
			}
		},
		SLO: SLO{AdmitP99MS: 250, E2EP99MS: 20000, MaxFailRate: 0, MaxRejectRate: 0.5, RequireZeroDropped: true, MinOps: 1},
	},
	{
		Name:  "T3",
		Title: "hot-key",
		Desc:  "90% repetitions of one medium request, 10% cold variants: the dataset/result-reuse opportunity, plus a result-consistency check (every hot run must report the same itemset count).",
		Loop:  "closed",
		NewOp: func(w World) Op {
			return func(ctx context.Context, c *Client, rng *rand.Rand) Sample {
				if rng.Float64() < 0.90 {
					return submitAndWait(ctx, c, jobs.JobRequest{
						Path: w.Medium, Algo: "lcm", MinSupport: w.MediumSup, Workers: 1,
					}, true, nil)
				}
				return submitAndWait(ctx, c, jobs.JobRequest{
					Path: w.Medium, Algo: "eclat", MinSupport: w.MediumSup + rng.Intn(20), Workers: 1,
				}, false, nil)
			}
		},
		SLO: SLO{AdmitP99MS: 250, E2EP99MS: 20000, MaxFailRate: 0, MaxRejectRate: 0.5, RequireZeroDropped: true, RequireZeroDivergence: true, MinOps: 1},
	},
	{
		Name:  "T4",
		Title: "cancel-storm",
		Desc:  "Slow jobs cancelled mid-flight: 50% DELETE after a random beat, 25% tiny timeout_ms, 25% run to completion. Exercises cooperative unwind under churn; cancelled/deadline outcomes are expected, dropped results are not.",
		Loop:  "closed",
		NewOp: func(w World) Op {
			return func(ctx context.Context, c *Client, rng *rand.Rand) Sample {
				req := jobs.JobRequest{Path: w.Slow, Algo: "lcm", MinSupport: w.SlowSup, Workers: 1}
				switch p := rng.Float64(); {
				case p < 0.50:
					delay := time.Duration(rng.Intn(15)+1) * time.Millisecond
					return submitAndWait(ctx, c, req, false, func(id int) {
						time.Sleep(delay)
						_, _ = c.Cancel(ctx, id)
					})
				case p < 0.75:
					req.TimeoutMS = int64(rng.Intn(15) + 5)
					return submitAndWait(ctx, c, req, false, nil)
				default:
					req.MinSupport = w.SlowSup * 4 // completable quickly
					return submitAndWait(ctx, c, req, false, nil)
				}
			}
		},
		SLO: SLO{AdmitP99MS: 250, E2EP99MS: 30000, MaxFailRate: 0, MaxRejectRate: 0.5, RequireZeroDropped: true, MinOps: 1, MinCancelled: 1},
	},
	{
		Name:  "T5",
		Title: "sustained",
		Desc:  "Closed-loop sustained concurrency on the small/medium mix: steady-state saturation throughput and tail latency.",
		Loop:  "closed",
		NewOp: func(w World) Op {
			return func(ctx context.Context, c *Client, rng *rand.Rand) Sample {
				req := jobs.JobRequest{Algo: "lcm", Workers: 1}
				if rng.Float64() < 0.75 {
					req.Path, req.MinSupport = w.Small, w.SmallSup
				} else {
					req.Path, req.MinSupport = w.Medium, w.MediumSup
				}
				return submitAndWait(ctx, c, req, false, nil)
			}
		},
		SLO: SLO{AdmitP99MS: 250, E2EP99MS: 20000, MaxFailRate: 0, MaxRejectRate: 0.5, RequireZeroDropped: true, MinOps: 1},
	},
	{
		Name:  "T6",
		Title: "cache-miss",
		Desc:  "Closed-loop stream of freshly generated small datasets: every submission is a new input identity, so the dataset cache misses (full FIMI parse) and the result cache cannot answer — the cache-miss floor under the same checkout whose hot-key ceiling T3 measures. Any hot-path regression the caches would otherwise mask shows up here.",
		Loop:  "closed",
		NewOp: func(w World) Op {
			// A shared counter keeps per-op filenames unique across workers;
			// the per-op seed makes each dataset's content (and so its input
			// identity: size + content-prefix hash) distinct.
			var n atomic.Int64
			kernels := []string{"lcm", "eclat", "fpgrowth"}
			return func(ctx context.Context, c *Client, rng *rand.Rand) Sample {
				path := filepath.Join(w.Dir, fmt.Sprintf("cold-%06d.dat", n.Add(1)))
				db := fpm.GenerateQuest(fpm.QuestConfig{
					Transactions: 500 + rng.Intn(700), AvgLen: 6, AvgPatternLen: 3,
					Items: 200, Patterns: 400, Seed: rng.Int63(),
				})
				if err := fpm.WriteFIMIFile(path, db); err != nil {
					return Sample{Outcome: OutcomeError}
				}
				defer os.Remove(path) // bound disk: the identity is dead after the job
				return submitAndWait(ctx, c, jobs.JobRequest{
					Path:       path,
					Algo:       kernels[rng.Intn(len(kernels))],
					MinSupport: w.SmallSup + rng.Intn(4),
					Workers:    1,
				}, false, nil)
			}
		},
		SLO: SLO{AdmitP99MS: 250, E2EP99MS: 20000, MaxFailRate: 0, MaxRejectRate: 0.5, RequireZeroDropped: true, MinOps: 1},
	},
}

// SpecByName returns the taxonomy entry named name ("T1".."T6").
func SpecByName(name string) (Spec, bool) {
	for _, s := range Taxonomy {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}
