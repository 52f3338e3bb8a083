package serve

// In-process durability tests: restart pre-warm from the result-cache
// snapshot, journal recovery of lost jobs, the graceful requeue-on-restart
// drain, and corrupt-state degradation to a cold start. The kill -9
// subprocess battery lives in chaos_test.go.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"fpm"
	"fpm/internal/jobs"
)

// closeInstance shuts an instance down the way runServe does.
func closeInstance(t *testing.T, inst *Instance) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := inst.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// durableConfig returns a config pinned to stateDir with a fast persist
// cadence.
func durableConfig(stateDir string) Config {
	return Config{QueueCap: 16, MaxConcurrent: 1, StateDir: stateDir,
		PersistInterval: 10 * time.Millisecond}
}

// TestServeDurableRestartPrewarmsCache is the tentpole's first leg end to
// end: mine once, shut down gracefully, restart against the same state
// dir — the restarted server answers the same request from its restored
// result cache without mining.
func TestServeDurableRestartPrewarmsCache(t *testing.T) {
	path := testDataset(t, 3000, 21)
	stateDir := t.TempDir()
	before := runtime.NumGoroutine()

	inst := NewInstance(durableConfig(stateDir))
	if inst.DurabilityErr != nil {
		t.Fatal(inst.DurabilityErr)
	}
	req := jobs.JobRequest{Path: path, Algo: "lcm", MinSupport: 5, Workers: 1}
	job, err := inst.Store.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	first := waitTerminal(t, inst.Store, job.ID)
	if first.State != "done" || first.ServedFromCache {
		t.Fatalf("cold mine: %+v", first)
	}
	closeInstance(t, inst)
	if _, err := os.Stat(filepath.Join(stateDir, snapshotFileName)); err != nil {
		t.Fatalf("graceful close left no snapshot: %v", err)
	}

	inst2 := NewInstance(durableConfig(stateDir))
	if inst2.DurabilityErr != nil {
		t.Fatal(inst2.DurabilityErr)
	}
	if ps := inst2.Persister.Stats(); ps.Restored != 1 || ps.Corrupt != 0 {
		t.Fatalf("restore stats = %+v, want 1 restored", ps)
	}
	job2, err := inst2.Store.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	warm := waitTerminal(t, inst2.Store, job2.ID)
	if warm.State != "done" || !warm.ServedFromCache {
		t.Fatalf("post-restart job not served from the restored cache: %+v", warm)
	}
	if warm.Itemsets != first.Itemsets {
		t.Fatalf("restored listing has %d itemsets, original mine had %d", warm.Itemsets, first.Itemsets)
	}
	// Subsumption must survive the restart too.
	req.MinSupport = 9
	job3, err := inst2.Store.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if sub := waitTerminal(t, inst2.Store, job3.ID); !sub.ServedFromCache {
		t.Fatalf("higher-minsup query not subsumed by the restored listing: %+v", sub)
	}
	closeInstance(t, inst2)
	waitNoGoroutineGrowth(t, before)
}

// A journal left behind by a crash (submitted and running records, no
// terminal) is replayed at startup: the lost jobs are resubmitted with
// recovered:true, run to completion, and the old journal generation is
// retired once the new one takes over — so the next boot replays nothing.
func TestServeJournalRecoveryAfterCrash(t *testing.T) {
	path := testDataset(t, 2000, 22)
	stateDir := t.TempDir()
	before := runtime.NumGoroutine()

	// Forge the crash artifact: a previous process's generation with one
	// job mid-flight, two queued, one finished (must NOT be replayed). One
	// queued job names "hmine", a kernel the table no longer has: it must
	// fail on its own without holding up the others.
	req := jobs.JobRequest{Path: path, Algo: "lcm", MinSupport: 5, Workers: 1}
	queued := jobs.JobRequest{Path: path, Algo: "eclat", MinSupport: 4, Workers: 1}
	removed := jobs.JobRequest{Path: path, Algo: "hmine", MinSupport: 7, Workers: 1}
	finished := jobs.JobRequest{Path: path, Algo: "fpgrowth", MinSupport: 6, Workers: 1}
	jnl, _, err := jobs.OpenJournalDir(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	jnl.Append(jobs.JournalRecord{Op: jobs.JournalOpSubmitted, Job: 0, Req: &finished})
	jnl.Append(jobs.JournalRecord{Op: jobs.JournalOpSubmitted, Job: 1, Req: &req})
	jnl.Append(jobs.JournalRecord{Op: jobs.JournalOpSubmitted, Job: 2, Req: &removed})
	jnl.Append(jobs.JournalRecord{Op: jobs.JournalOpSubmitted, Job: 3, Req: &queued})
	jnl.Append(jobs.JournalRecord{Op: "running", Job: 1}) // as older journals hold
	jnl.Append(jobs.JournalRecord{Op: jobs.JournalOpTerminal, Job: 0, State: "done"})
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	inst := NewInstance(durableConfig(stateDir))
	if inst.DurabilityErr != nil {
		t.Fatal(inst.DurabilityErr)
	}
	if len(inst.Recovered) != 3 {
		t.Fatalf("recovered %d jobs, want the 3 non-terminal ones: %+v", len(inst.Recovered), inst.Recovered)
	}
	for _, rj := range inst.Recovered {
		if !rj.Recovered {
			t.Fatalf("recovered job not marked: %+v", rj)
		}
		got := waitTerminal(t, inst.Store, rj.ID)
		if rj.Request.Algo == removed.Algo {
			if got.State != "failed" || !strings.Contains(got.Error, `unknown algorithm "hmine"`) {
				t.Fatalf("recovered job under a removed kernel: %+v", got)
			}
		} else if got.State != "done" || !got.Recovered {
			t.Fatalf("recovered job did not complete: %+v", got)
		}
	}
	if got := inst.Store.Stats().Recovered; got != 3 {
		t.Fatalf("stats.Recovered = %d, want 3", got)
	}
	closeInstance(t, inst)
	// The crash generation was retired: had it survived, its three lost
	// jobs would replay again on this boot.
	inst2 := NewInstance(durableConfig(stateDir))
	if len(inst2.Recovered) != 0 {
		t.Fatalf("next boot replayed %d jobs; the crash generation was not retired", len(inst2.Recovered))
	}
	closeInstance(t, inst2)
	waitNoGoroutineGrowth(t, before)
}

// The graceful drain: queued jobs at Close are journaled as
// requeue-on-restart and the next boot runs them — a rolling restart
// keeps its backlog.
func TestServeGracefulRequeueAcrossRestart(t *testing.T) {
	slow := testDataset(t, 9000, 23)
	stateDir := t.TempDir()

	inst := NewInstance(durableConfig(stateDir))
	if inst.DurabilityErr != nil {
		t.Fatal(inst.DurabilityErr)
	}
	// One slow job occupies the single runner; the rest stay queued.
	running, err := inst.Store.Submit(jobs.JobRequest{Path: slow, Algo: "lcm", MinSupport: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if j, _ := inst.Store.Get(running.ID); j.State == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	var queued []jobs.Job
	for i := 0; i < 3; i++ {
		j, err := inst.Store.Submit(jobs.JobRequest{Path: slow, Algo: "eclat", MinSupport: 4 + i, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}
	closeInstance(t, inst)

	requeued := 0
	for _, q := range queued {
		j, ok := inst.Store.Get(q.ID)
		if !ok {
			t.Fatalf("queued job %d vanished", q.ID)
		}
		if j.State == "requeued" {
			requeued++
		}
	}
	if requeued == 0 {
		t.Fatal("no queued job was drained as requeue-on-restart")
	}
	if j, _ := inst.Store.Get(running.ID); j.State == "requeued" {
		t.Fatalf("the running job must be cancelled, not requeued: %+v", j)
	}

	inst2 := NewInstance(durableConfig(stateDir))
	if inst2.DurabilityErr != nil {
		t.Fatal(inst2.DurabilityErr)
	}
	if len(inst2.Recovered) != requeued {
		t.Fatalf("restart recovered %d jobs, want the %d requeued", len(inst2.Recovered), requeued)
	}
	for _, rj := range inst2.Recovered {
		if got := waitTerminal(t, inst2.Store, rj.ID); got.State != "done" {
			t.Fatalf("requeued job did not complete after restart: %+v", got)
		}
	}
	closeInstance(t, inst2)
}

// Corrupt durable state — a garbage snapshot and a garbage journal — must
// degrade to a cold start: no panic, no DurabilityErr, no stale listing,
// and the corruption is visible in the persist stats.
func TestServeCorruptStateColdStart(t *testing.T) {
	path := testDataset(t, 1500, 24)
	stateDir := t.TempDir()
	// Let an instance lay out its state files, then overwrite every one of
	// them — the job journal included — with garbage.
	closeInstance(t, NewInstance(durableConfig(stateDir)))
	entries, err := os.ReadDir(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 2 {
		t.Fatalf("state dir holds %d files, want the snapshot and a journal", len(entries))
	}
	for _, e := range entries {
		garbage := "{not json\nat all"
		if e.Name() == snapshotFileName {
			garbage = "FPRS\x01garbage-not-a-snapshot"
		}
		if err := os.WriteFile(filepath.Join(stateDir, e.Name()), []byte(garbage), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	inst := NewInstance(durableConfig(stateDir))
	if inst.DurabilityErr != nil {
		t.Fatalf("corrupt state must not fail the boot: %v", inst.DurabilityErr)
	}
	if len(inst.Recovered) != 0 {
		t.Fatalf("corrupt journal recovered jobs: %+v", inst.Recovered)
	}
	ps := inst.Persister.Stats()
	if ps.Corrupt != 1 || ps.Restored != 0 {
		t.Fatalf("persist stats = %+v, want the corrupt cold start counted", ps)
	}
	// The server still serves.
	job, err := inst.Store.Submit(jobs.JobRequest{Path: path, Algo: "lcm", MinSupport: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, inst.Store, job.ID); got.State != "done" || got.ServedFromCache {
		t.Fatalf("post-corruption mine: %+v", got)
	}
	closeInstance(t, inst)

	// The graceful close rewrote a valid snapshot over the garbage: the
	// next boot is warm again.
	inst2 := NewInstance(durableConfig(stateDir))
	if ps := inst2.Persister.Stats(); ps.Restored != 1 || ps.Corrupt != 0 {
		t.Fatalf("second boot stats = %+v, want the rewritten snapshot restored", ps)
	}
	closeInstance(t, inst2)
}

// The persist metric family is wired through /metrics only on durable
// instances, and DurabilityErr stays nil on the happy path.
func TestServeDurableMetricsExposed(t *testing.T) {
	stateDir := t.TempDir()
	inst := NewInstance(durableConfig(stateDir))
	if inst.DurabilityErr != nil {
		t.Fatal(inst.DurabilityErr)
	}
	defer closeInstance(t, inst)
	rr := httptest.NewRecorder()
	inst.Server.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rr.Body.String(), "fpm_cache_persist_writes_total") {
		t.Fatalf("/metrics on a durable instance misses the persist family:\n%s", rr.Body.String())
	}

	// A non-durable instance must not render the family at all.
	plain := NewInstance(Config{})
	defer plain.Store.Shutdown()
	rr2 := httptest.NewRecorder()
	plain.Server.Handler().ServeHTTP(rr2, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if strings.Contains(rr2.Body.String(), "fpm_cache_persist") {
		t.Fatal("non-durable /metrics renders the persist family")
	}
}

// TestServeDurabilityWithoutResultCache: -result-cache 0 plus a state dir
// still journals jobs (recovery works) but has no persister.
func TestServeDurabilityWithoutResultCache(t *testing.T) {
	path := testDataset(t, 1200, 25)
	stateDir := t.TempDir()
	cfg := durableConfig(stateDir)
	cfg.DisableResultCache = true
	inst := NewInstance(cfg)
	if inst.DurabilityErr != nil {
		t.Fatal(inst.DurabilityErr)
	}
	if inst.Persister != nil {
		t.Fatal("persister exists with the result cache disabled")
	}
	if inst.Journal == nil {
		t.Fatal("journal missing on a durable instance")
	}
	job, err := inst.Store.Submit(jobs.JobRequest{Path: path, Algo: "lcm", MinSupport: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, inst.Store, job.ID)
	closeInstance(t, inst)
}

// Itemset listings served after a restart must be identical to an
// uninterrupted direct mine — the cache restore path must not change
// answers, only latency.
func TestServeRestoredListingMatchesDirectMine(t *testing.T) {
	path := testDataset(t, 2500, 26)
	stateDir := t.TempDir()

	inst := NewInstance(durableConfig(stateDir))
	req := jobs.JobRequest{Path: path, Algo: "eclat", MinSupport: 6, Workers: 1}
	job, err := inst.Store.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, inst.Store, job.ID)
	closeInstance(t, inst)

	inst2 := NewInstance(durableConfig(stateDir))
	job2, err := inst2.Store.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	warm := waitTerminal(t, inst2.Store, job2.ID)
	if !warm.ServedFromCache {
		t.Fatal("restored cache did not answer the repeat")
	}
	db, err := fpm.ReadFIMIFile(path)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := fpm.Mine(db, "eclat", fpm.Applicable("eclat"), 6)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Itemsets != len(direct) {
		t.Fatalf("restored listing has %d itemsets, direct mine has %d", warm.Itemsets, len(direct))
	}
	closeInstance(t, inst2)
}

// marshalJob keeps the json import earning its place (and pins that a
// recovered job record round-trips its provenance through the API shape).
func TestRecoveredFlagSurvivesJSON(t *testing.T) {
	j := jobs.Job{ID: 3, State: "done", Recovered: true, Retries: 2}
	b, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	var back jobs.Job
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Recovered || back.Retries != 2 {
		t.Fatalf("provenance lost over JSON: %+v", back)
	}
}
