package jobs

// Job-journal and retry-policy tests: WAL round trips with torn tails,
// pending-job recovery folding, multi-generation recovery and retirement,
// the Shutdown drain's requeue-vs-cancel split, and transparent retry
// with backoff under injected transient faults.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"fpm/internal/failpoint"
	"fpm/internal/metrics"
)

func TestJournalAppendReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal.1")
	j, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	req := JobRequest{Path: "a.dat", Algo: "lcm", MinSupport: 3}
	j.Append(JournalRecord{Op: JournalOpSubmitted, Job: 0, TS: time.Now(), Req: &req})
	j.Append(JournalRecord{Op: "running", Job: 0, TS: time.Now()}) // as older journals hold
	j.Append(JournalRecord{Op: JournalOpTerminal, Job: 0, TS: time.Now(), State: "done"})
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("read %d records, want 3", len(recs))
	}
	if recs[0].Op != JournalOpSubmitted || recs[0].Req == nil || recs[0].Req.Path != "a.dat" {
		t.Fatalf("submitted record lost its request: %+v", recs[0])
	}
	if recs[2].State != "done" {
		t.Fatalf("terminal record state = %q", recs[2].State)
	}
}

// A torn tail — the record being appended at the instant of a kill -9 —
// must end the parse at the last whole line, not fail recovery.
func TestJournalTornTailKeepsPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal.1")
	j, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	req := JobRequest{Path: "a.dat", Algo: "lcm", MinSupport: 3}
	j.Append(JournalRecord{Op: JournalOpSubmitted, Job: 0, Req: &req})
	j.Append(JournalRecord{Op: "running", Job: 0}) // as older journals hold
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"terminal","job":0,"sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("torn tail: read %d records, want the 2-record prefix", len(recs))
	}
	// The torn terminal never landed, so recovery still sees job 0 pending.
	pend := pendingRequests(recs)
	if len(pend) != 1 || pend[0].Path != "a.dat" {
		t.Fatalf("pending after torn tail = %+v", pend)
	}
}

// A nil journal is the non-durable store's no-op; every method must be
// safe on it (the store calls them unconditionally).
func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Append(JournalRecord{Op: JournalOpSubmitted})
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	j.retire()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPendingRequests(t *testing.T) {
	req := func(p string) *JobRequest { return &JobRequest{Path: p, Algo: "lcm", MinSupport: 2} }
	recs := []JournalRecord{
		{Op: JournalOpSubmitted, Job: 0, Req: req("done.dat")},
		{Op: JournalOpSubmitted, Job: 1, Req: req("crashed.dat")},
		{Op: JournalOpSubmitted, Job: 2, Req: req("requeued.dat")},
		{Op: JournalOpSubmitted, Job: 3}, // torn: no replayable request
		{Op: "running", Job: 1},          // older journals hold these; recovery skips them
		{Op: JournalOpTerminal, Job: 0, State: "done"},
		{Op: JournalOpRequeue, Job: 2, State: "requeued"},
	}
	pend := pendingRequests(recs)
	if len(pend) != 2 {
		t.Fatalf("pending = %+v, want crashed.dat and requeued.dat", pend)
	}
	// FIFO by original submission order.
	if pend[0].Path != "crashed.dat" {
		t.Fatalf("pend[0] = %+v", pend[0])
	}
	if pend[1].Path != "requeued.dat" {
		t.Fatalf("pend[1] = %+v", pend[1])
	}
	if got := pendingRequests(nil); len(got) != 0 {
		t.Fatalf("empty journal pends %+v", got)
	}
}

// The Shutdown drain's split: with a journal, queued jobs become
// "requeued" (journaled as such, so the next boot replays them); without
// one, the pre-journal semantics hold and they are cancelled.
func TestShutdownDrainRequeueVsCancel(t *testing.T) {
	for _, withJournal := range []bool{true, false} {
		name := "without-journal"
		if withJournal {
			name = "with-journal"
		}
		t.Run(name, func(t *testing.T) {
			var jnl *Journal
			var jnlPath string
			if withJournal {
				jnlPath = filepath.Join(t.TempDir(), "jobs.journal.1")
				var err error
				if jnl, err = openJournal(jnlPath); err != nil {
					t.Fatal(err)
				}
			}
			started := make(chan int, 1)
			st := NewStoreWithConfig(ctxMiner(started), nil, StoreConfig{Journal: jnl})
			running, err := st.Submit(JobRequest{Path: "x.dat", Algo: "lcm", MinSupport: 2})
			if err != nil {
				t.Fatal(err)
			}
			<-started
			queued, err := st.Submit(JobRequest{Path: "y.dat", Algo: "lcm", MinSupport: 3})
			if err != nil {
				t.Fatal(err)
			}
			st.Shutdown()

			// The in-flight job is cancelled either way — only a crash (no
			// terminal record) makes a running job recoverable.
			if j, _ := st.Get(running.ID); j.State != "cancelled" {
				t.Fatalf("in-flight job after shutdown: %+v", j)
			}
			j, _ := st.Get(queued.ID)
			stats := st.Stats()
			if withJournal {
				if j.State != "requeued" {
					t.Fatalf("queued job drained as %q, want requeued", j.State)
				}
				if stats.Requeued != 1 || stats.Cancelled != 1 {
					t.Fatalf("stats = %+v, want 1 requeued + 1 cancelled", stats)
				}
				if err := jnl.Close(); err != nil {
					t.Fatal(err)
				}
				recs, err := readJournal(jnlPath)
				if err != nil {
					t.Fatal(err)
				}
				// The cancelled runner got a terminal record (a graceful
				// cancel is final); only the drained queued job is pending,
				// and it carries the explicit requeue intent.
				pend := pendingRequests(recs)
				if len(pend) != 1 || pend[0].Path != "y.dat" {
					t.Fatalf("journal pends %+v, want exactly the requeued job", pend)
				}
				requeued := false
				for _, rec := range recs {
					requeued = requeued || (rec.Op == JournalOpRequeue && rec.Job == queued.ID)
				}
				if !requeued {
					t.Fatalf("journal %+v has no requeue record for job %d", recs, queued.ID)
				}
			} else {
				if j.State != "cancelled" {
					t.Fatalf("queued job drained as %q, want cancelled", j.State)
				}
				if stats.Requeued != 0 || stats.Cancelled != 2 {
					t.Fatalf("stats = %+v, want 2 cancelled", stats)
				}
			}
		})
	}
}

// Resubmit stamps the provenance: recovered:true on the record, the
// counter, the flight-recorder outcome, and the journal trail.
func TestSubmitRecoveredProvenance(t *testing.T) {
	st := NewStoreWithConfig(func(ctx context.Context, req JobRequest, rec *metrics.Recorder) (MineResult, error) {
		return MineResult{Itemsets: 1}, nil
	}, nil, StoreConfig{})
	defer st.Close()
	resubmitted := st.Resubmit([]JobRequest{{Path: "x.dat", Algo: "lcm", MinSupport: 2}})
	if len(resubmitted) != 1 {
		t.Fatalf("resubmitted %d jobs, want 1", len(resubmitted))
	}
	job := resubmitted[0]
	if !job.Recovered {
		t.Fatal("recovered submission not marked")
	}
	got := waitState(t, st.Get, job.ID, "done")
	if !got.Recovered {
		t.Fatal("recovered flag lost by the terminal transition")
	}
	if st.Stats().Recovered != 1 {
		t.Fatalf("stats = %+v, want Recovered 1", st.Stats())
	}
	ev, _ := st.Events(job.ID)
	if len(ev.Events) == 0 || ev.Events[0].Outcome != "recovered" {
		t.Fatalf("submitted event = %+v, want outcome recovered", ev.Events)
	}
}

// A job that runs to completion journals two records, its submission and
// its terminal: recovery reads nothing else.
func TestJournalFinishedJobWritesTwoRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal.1")
	jnl, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStoreWithConfig(instantMine, nil, StoreConfig{Journal: jnl})
	job, err := st.Submit(JobRequest{Path: "x.dat", Algo: "lcm", MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, st.Get, job.ID, "done")
	st.Close()
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, rec := range recs {
		ops = append(ops, rec.Op)
	}
	if want := []string{JournalOpSubmitted, JournalOpTerminal}; !reflect.DeepEqual(ops, want) {
		t.Fatalf("journal ops = %v, want %v", ops, want)
	}
}

// retryStore builds a single-runner store that retries up to maxRetries
// times.
func retryStore(mine MineFunc, maxRetries int) *Store {
	return NewStoreWithConfig(mine, nil, StoreConfig{MaxRetries: maxRetries})
}

// A transient fault on the first attempt is absorbed: the retry succeeds,
// the job finishes done, and the retry is visible on the record, the
// counter and the flight recorder.
func TestRetryTransientFaultSucceeds(t *testing.T) {
	reg := failpoint.New()
	reg.FailAfter(failpoint.JobsMine, 0, errors.New("transient io fault"))
	failpoint.Enable(reg)
	defer failpoint.Disable()

	st := retryStore(func(ctx context.Context, req JobRequest, rec *metrics.Recorder) (MineResult, error) {
		return MineResult{Itemsets: 7}, nil
	}, 2)
	defer st.Close()
	job, err := st.Submit(JobRequest{Path: "x.dat", Algo: "lcm", MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, st.Get, job.ID, "done")
	if got.Retries != 1 || got.Itemsets != 7 {
		t.Fatalf("job = %+v, want 1 retry and the mined answer", got)
	}
	if st.Stats().Retried != 1 {
		t.Fatalf("stats = %+v, want Retried 1", st.Stats())
	}
	ev, _ := st.Events(job.ID)
	var retry *Event
	for i := range ev.Events {
		if ev.Events[i].Type == "retry" {
			retry = &ev.Events[i]
		}
	}
	if retry == nil || retry.Attempt != 1 || !strings.Contains(retry.Error, "transient") {
		t.Fatalf("retry event = %+v", retry)
	}
}

// A persistent fault exhausts the cap and the job fails with the last
// error after exactly MaxRetries extra attempts.
func TestRetryExhaustsCap(t *testing.T) {
	reg := failpoint.New()
	reg.Fail(failpoint.JobsMine, errors.New("disk on fire"))
	failpoint.Enable(reg)
	defer failpoint.Disable()

	st := retryStore(func(ctx context.Context, req JobRequest, rec *metrics.Recorder) (MineResult, error) {
		t.Error("mine ran behind an always-armed failpoint")
		return MineResult{}, nil
	}, 2)
	defer st.Close()
	job, err := st.Submit(JobRequest{Path: "x.dat", Algo: "lcm", MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, st.Get, job.ID, "failed")
	if got.Retries != 2 || !strings.Contains(got.Error, "disk on fire") {
		t.Fatalf("job = %+v, want 2 retries then the fault", got)
	}
	if hits := reg.Hits(failpoint.JobsMine); hits != 3 {
		t.Fatalf("mine attempted %d times, want 1 + 2 retries", hits)
	}
}

// Cancellation and deadline are never retried: the job must reach its
// terminal state, not burn its deadline re-attempting.
func TestRetryNotOnCancelOrDeadline(t *testing.T) {
	t.Run("cancel", func(t *testing.T) {
		started := make(chan int, 1)
		st := retryStore(ctxMiner(started), 5)
		defer st.Close()
		job, err := st.Submit(JobRequest{Path: "x.dat", Algo: "lcm", MinSupport: 2})
		if err != nil {
			t.Fatal(err)
		}
		<-started
		st.Cancel(job.ID)
		got := waitState(t, st.Get, job.ID, "cancelled")
		if got.Retries != 0 {
			t.Fatalf("cancelled job retried %d times", got.Retries)
		}
	})
	t.Run("deadline", func(t *testing.T) {
		st := retryStore(ctxMiner(nil), 5)
		defer st.Close()
		job, err := st.Submit(JobRequest{Path: "x.dat", Algo: "lcm", MinSupport: 2, TimeoutMS: 20})
		if err != nil {
			t.Fatal(err)
		}
		got := waitState(t, st.Get, job.ID, "failed")
		if got.Retries != 0 || !strings.Contains(got.Error, context.DeadlineExceeded.Error()) {
			t.Fatalf("deadlined job = %+v, want no retries", got)
		}
	})
}

// retryDelay must grow exponentially from the base, stay within the cap,
// and jitter inside the upper half of the window.
func TestRetryDelayShape(t *testing.T) {
	for attempt, window := range []time.Duration{25, 50, 100, 200, 400, 800, 1000, 1000} {
		window *= time.Millisecond
		for i := 0; i < 50; i++ {
			d := retryDelay(attempt)
			if d < window/2 || d > window {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, window/2, window)
			}
		}
	}
}

// Recovery folds a journal in time linear in its length and resubmits in
// first-seen (submission) order, not job-ID order: a long-lived server's
// journal reaches hundreds of thousands of records.
func TestPendingRequestsLargeJournalFIFO(t *testing.T) {
	const n = 200000
	recs := make([]JournalRecord, n)
	for i := range recs {
		// Job IDs deliberately out of order: FIFO must follow the records.
		recs[i] = JournalRecord{Op: JournalOpSubmitted, Job: (i * 7919) % n,
			Req: &JobRequest{Path: strconv.Itoa(i), Algo: "lcm", MinSupport: 2}}
	}
	start := time.Now()
	pend := pendingRequests(recs)
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("folding %d records took %v", n, d)
	}
	if len(pend) != n {
		t.Fatalf("pending = %d, want %d", len(pend), n)
	}
	for i, p := range pend {
		if p.Path != strconv.Itoa(i) {
			t.Fatalf("pend[%d] = %s, want %d: not FIFO", i, p.Path, i)
		}
	}
}

// fixturePending is what recovery resubmits from testdata/journal, a
// state directory journaled before recovery moved into this package:
// generation 1 (a crashed runner, a finished job, a graceful requeue, a
// queued job, a submission with no request, a cancelled job), generation
// 3 (a replay duplicating generation 1's a.dat, a running job whose
// terminal record is torn, a failed job) and generation 10 (ordered
// numerically after 3, a requeue and a running job), plus a file that is
// not a generation. The order is oldest generation first, FIFO within
// one, with a.dat deduped across generations.
var fixturePending = []JobRequest{
	{Path: "a.dat", Algo: "lcm", MinSupport: 5, Workers: 1},
	{Path: "c.dat", Algo: "fpgrowth", MinSupport: 6, Workers: 1},
	{Path: "d.dat", Algo: "lcm", MinSupport: 3, Workers: 1},
	{Path: "f.dat", Algo: "hmine", MinSupport: 7, Workers: 1},
	{Path: "c.dat", Algo: "fpgrowth", MinSupport: 8, Workers: 1},
	{Path: "g.dat", Algo: "apriori", MinSupport: 2, Workers: 1},
}

// fixtureDir copies testdata/journal into a fresh state directory.
func fixtureDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	names, err := filepath.Glob("testdata/journal/*")
	if err != nil || len(names) == 0 {
		t.Fatalf("fixture missing: %v", err)
	}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// stateFiles lists the file names in dir.
func stateFiles(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return strings.Join(names, ",")
}

func instantMine(context.Context, JobRequest, *metrics.Recorder) (MineResult, error) {
	return MineResult{Itemsets: 1}, nil
}

// Recovery from the multi-generation fixture resubmits exactly the pinned
// requests, opens the generation after the highest one, and — once the
// resubmissions are synced — retires every generation it read while
// leaving files that are not generations alone. A restart after the
// recovered jobs finished replays nothing.
func TestJournalDirFixtureRecovery(t *testing.T) {
	dir := fixtureDir(t)
	jnl, pending, err := OpenJournalDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pending, fixturePending) {
		t.Fatalf("recovered %+v\nwant %+v", pending, fixturePending)
	}
	if got := stateFiles(t, dir); got != "jobs.journal.1,jobs.journal.10,jobs.journal.11,jobs.journal.3,jobs.journal.bak" {
		t.Fatalf("state dir before retirement = %s", got)
	}
	st := NewStoreWithConfig(instantMine, nil, StoreConfig{Journal: jnl})
	recovered := st.Resubmit(pending)
	if len(recovered) != len(pending) {
		t.Fatalf("resubmitted %d of %d", len(recovered), len(pending))
	}
	if got := stateFiles(t, dir); got != "jobs.journal.11,jobs.journal.bak" {
		t.Fatalf("state dir after retirement = %s", got)
	}
	st.Close()
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	jnl2, again, err := OpenJournalDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	if len(again) != 0 {
		t.Fatalf("finished recoveries replayed again: %+v", again)
	}
	if got := stateFiles(t, dir); got != "jobs.journal.11,jobs.journal.12,jobs.journal.bak" {
		t.Fatalf("state dir on the next boot = %s", got)
	}
}

// Old generations are the only durable record of the jobs recovery
// replayed until the new generation is synced: when that sync fails they
// must stay on disk, and the next boot replays them again.
func TestJournalRetireNeedsDurableSync(t *testing.T) {
	dir := fixtureDir(t)
	jnl, pending, err := OpenJournalDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	jnl.f.Close() // every later write and fsync of the new generation fails
	st := NewStoreWithConfig(instantMine, nil, StoreConfig{Journal: jnl})
	st.Resubmit(pending)
	st.Close()
	if got := stateFiles(t, dir); got != "jobs.journal.1,jobs.journal.10,jobs.journal.11,jobs.journal.3,jobs.journal.bak" {
		t.Fatalf("a failed sync retired generations: state dir = %s", got)
	}

	jnl2, again, err := OpenJournalDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	if !reflect.DeepEqual(again, fixturePending) {
		t.Fatalf("next boot recovered %+v\nwant %+v", again, fixturePending)
	}
}

// A crash with a full queue and busy runners leaves more pending requests
// than the queue holds. Recovery must resubmit every one of them — they
// were admitted before the crash, and the generations that recorded them
// are retired once Resubmit returns — while new submissions still see a
// full queue. The recovered jobs stay durable: a requeue-on-restart drain
// hands every one still queued to the next boot.
func TestJournalRecoveredBeyondQueueCap(t *testing.T) {
	dir := fixtureDir(t)
	jnl, pending, err := OpenJournalDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, len(pending))
	mine := func(ctx context.Context, _ JobRequest, _ *metrics.Recorder) (MineResult, error) {
		started <- struct{}{}
		<-ctx.Done()
		return MineResult{}, ctx.Err()
	}
	st := NewStoreWithConfig(mine, nil, StoreConfig{QueueCap: 2, MaxConcurrent: 1, Journal: jnl})
	recovered := st.Resubmit(pending)
	if len(recovered) != len(pending) {
		t.Fatalf("resubmitted %d of %d recovered requests into a 2-slot queue", len(recovered), len(pending))
	}
	<-started // the runner holds the first job; the other five stay queued
	if _, err := st.Submit(JobRequest{Path: "new.dat", Algo: "lcm", MinSupport: 1}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit with the queue over its cap = %v, want ErrQueueFull", err)
	}
	if s := st.Stats(); s.Recovered != uint64(len(pending)) || s.Queued != len(pending)-1 || s.Running != 1 || s.Rejected != 1 {
		t.Fatalf("stats after recovery = %+v", s)
	}
	st.Shutdown()
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	jnl2, again, err := OpenJournalDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	if !reflect.DeepEqual(again, fixturePending[1:]) {
		t.Fatalf("next boot recovered %+v\nwant %+v", again, fixturePending[1:])
	}
}
