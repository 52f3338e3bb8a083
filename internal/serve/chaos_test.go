package serve

// The serve-layer chaos battery: a real `fpm serve`-shaped process (this
// test binary re-executed) is SIGKILLed mid-storm and restarted against
// the same state directory. The restarted server must pre-warm its result
// cache from the snapshot, requeue the jobs the kill lost, and produce
// listings identical to an uninterrupted run. The graceful half (SIGTERM)
// must flush a final snapshot and exit cleanly.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"fpm"
	"fpm/internal/hdr"
	"fpm/internal/jobs"
	"fpm/internal/servecache"
)

// TestServeChaosChild is not a test: it is the server process the chaos
// battery kills. It only runs when re-executed by the parent with the
// marker env set; a plain `go test` run skips it.
func TestServeChaosChild(t *testing.T) {
	if os.Getenv("FPM_SERVE_CHAOS_CHILD") == "" {
		t.Skip("not a chaos child")
	}
	inst := NewInstance(Config{
		QueueCap:        64,
		MaxConcurrent:   1,
		StateDir:        os.Getenv("FPM_CHAOS_STATE"),
		PersistInterval: 25 * time.Millisecond,
	})
	if inst.DurabilityErr != nil {
		t.Fatalf("chaos child durability: %v", inst.DurabilityErr)
	}
	lnAddr, err := inst.Server.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("chaos child listen: %v", err)
	}
	// Publish the address atomically so the parent never reads a torn file.
	addrFile := os.Getenv("FPM_CHAOS_ADDRFILE")
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte("http://"+lnAddr.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		t.Fatal(err)
	}
	// Serve until SIGTERM (the graceful path) — or until the parent's
	// SIGKILL, which this code never sees.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	<-sig
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := inst.Close(ctx); err != nil {
		t.Fatalf("chaos child close: %v", err)
	}
}

// chaosChild manages one server subprocess.
type chaosChild struct {
	cmd *exec.Cmd
	url string
	out *bytes.Buffer
}

// startChaosChild re-executes this test binary as a serve process bound to
// stateDir and waits for it to publish its address.
func startChaosChild(t *testing.T, stateDir string) *chaosChild {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(os.Args[0], "-test.run=^TestServeChaosChild$", "-test.v")
	cmd.Env = append(os.Environ(),
		"FPM_SERVE_CHAOS_CHILD=1",
		"FPM_CHAOS_STATE="+stateDir,
		"FPM_CHAOS_ADDRFILE="+addrFile,
	)
	out := &bytes.Buffer{}
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil {
			return &chaosChild{cmd: cmd, url: string(data), out: out}
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill() //nolint:errcheck
			t.Fatalf("chaos child never published its address; output:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// jobs fetches the child's full job listing.
func (c *chaosChild) jobs(t *testing.T) []jobs.Job {
	t.Helper()
	resp, err := http.Get(c.url + "/jobs")
	if err != nil {
		t.Fatalf("GET /jobs: %v", err)
	}
	defer resp.Body.Close()
	var jobs []jobs.Job
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatalf("decode /jobs: %v", err)
	}
	return jobs
}

// waitJob polls the child until job id is terminal.
func (c *chaosChild) waitJob(t *testing.T, id int) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(fmt.Sprintf("%s/jobs/%d", c.url, id))
		if err != nil {
			t.Fatalf("GET /jobs/%d: %v", id, err)
		}
		var j jobs.Job
		err = json.NewDecoder(resp.Body).Decode(&j)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode job %d: %v", id, err)
		}
		switch j.State {
		case "done", "failed", "cancelled":
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d stuck in %q", id, j.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServeKillRestartRecovery is the chaos battery's main sequence:
// warm a key, SIGKILL the server mid-storm, restart it on the same state
// dir, and assert the three durability promises — the hot key is hot
// again, the lost jobs requeue and complete, and every listing matches an
// uninterrupted mine. Serve gate (d) then requires the restored hot key
// to beat the cold-identity floor on e2e p99. Finally the graceful
// SIGTERM path must exit 0 with a flushed snapshot.
func TestServeKillRestartRecovery(t *testing.T) {
	if testing.Short() && os.Getenv("CI") == "" {
		// The battery forks, kills and restarts subprocesses: a second or
		// two of wall clock. CI always runs it (the chaos-serve job passes
		// -short for the rest of the suite); locally -short skips it.
		t.Skip("chaos battery skipped in -short outside CI")
	}
	dataDir := t.TempDir()
	stateDir := t.TempDir()
	hot := chaosDataset(t, dataDir, "hot.dat", 3000, 31)
	slow := chaosDataset(t, dataDir, "slow.dat", 9000, 32)

	child := startChaosChild(t, stateDir)
	defer func() {
		if child.cmd.ProcessState == nil {
			child.cmd.Process.Kill() //nolint:errcheck
			child.cmd.Wait()         //nolint:errcheck
		}
	}()

	// Warm the hot key and let the persister write it out.
	hotReq := jobs.JobRequest{Path: hot, Algo: "lcm", MinSupport: 5, Workers: 1}
	hotJob, code := postJob(t, child.url, hotReq)
	if code != http.StatusAccepted {
		t.Fatalf("hot submit = %d", code)
	}
	first := child.waitJob(t, hotJob.ID)
	if first.State != "done" || first.ServedFromCache {
		t.Fatalf("hot warmup: %+v", first)
	}
	snapPath := filepath.Join(stateDir, snapshotFileName)
	waitSnapshotEntries(t, snapPath, 1)

	// Storm: six distinct slow jobs through the single runner, then
	// SIGKILL while at least one is running and at least one is queued.
	var storm []jobs.Job
	for i := 0; i < 6; i++ {
		j, code := postJob(t, child.url, jobs.JobRequest{
			Path: slow, Algo: "lcm", MinSupport: 3 + i, Workers: 1})
		if code != http.StatusAccepted {
			t.Fatalf("storm submit %d = %d", i, code)
		}
		storm = append(storm, j)
	}
	stormID := map[int]bool{}
	for _, j := range storm {
		stormID[j.ID] = true
	}
	killDeadline := time.Now().Add(30 * time.Second)
	for {
		var running, queued int
		for _, j := range child.jobs(t) {
			if !stormID[j.ID] {
				continue
			}
			switch j.State {
			case "running":
				running++
			case "queued":
				queued++
			}
		}
		if running >= 1 && queued >= 1 {
			break
		}
		if time.Now().After(killDeadline) {
			t.Fatal("storm never reached the running+queued kill window")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := child.cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup runs
		t.Fatal(err)
	}
	child.cmd.Wait() //nolint:errcheck

	// Restart against the same state dir.
	child2 := startChaosChild(t, stateDir)
	defer func() {
		if child2.cmd.ProcessState == nil {
			child2.cmd.Process.Kill() //nolint:errcheck
			child2.cmd.Wait()         //nolint:errcheck
		}
	}()

	// Promise 1: the hot key is hot again — served from the restored
	// snapshot without re-mining, with the original answer.
	rewarm, code := postJob(t, child2.url, hotReq)
	if code != http.StatusAccepted {
		t.Fatalf("post-restart hot submit = %d", code)
	}
	warm := child2.waitJob(t, rewarm.ID)
	if warm.State != "done" || !warm.ServedFromCache {
		t.Fatalf("post-restart hot job not served from the restored cache: %+v", warm)
	}
	if warm.Itemsets != first.Itemsets {
		t.Fatalf("restored hot listing has %d itemsets, pre-kill mine had %d", warm.Itemsets, first.Itemsets)
	}

	// Promise 2: the jobs the kill lost were requeued (recovered:true)
	// and complete.
	var recovered []jobs.Job
	for _, j := range child2.jobs(t) {
		if j.Recovered {
			recovered = append(recovered, j)
		}
	}
	if len(recovered) == 0 {
		t.Fatal("restart recovered no jobs from the journal")
	}
	// Promise 3: recovered answers are identical to uninterrupted mines.
	db, err := fpm.ReadFIMIFile(slow)
	if err != nil {
		t.Fatal(err)
	}
	directCount := map[int]int{}
	for _, rj := range recovered {
		final := child2.waitJob(t, rj.ID)
		if final.State != "done" {
			t.Fatalf("recovered job %d ended %q: %+v", rj.ID, final.State, final)
		}
		ms := final.Request.MinSupport
		if _, ok := directCount[ms]; !ok {
			direct, err := fpm.Mine(db, "lcm", fpm.Applicable("lcm"), ms)
			if err != nil {
				t.Fatal(err)
			}
			directCount[ms] = len(direct)
		}
		if final.Itemsets != directCount[ms] {
			t.Fatalf("recovered job at minsup %d reported %d itemsets, direct mine has %d",
				ms, final.Itemsets, directCount[ms])
		}
	}

	// Gate (d): with the queue idle again, the restored hot key's e2e p99
	// must beat the floor set by fresh input identities, which no cache
	// can answer.
	var hotE2E, coldE2E hdr.Hist
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 8; i++ {
		for _, cold := range []bool{false, true} {
			req, e2e := hotReq, &hotE2E
			if cold {
				req, e2e = jobs.JobRequest{Path: coldDataset(t, dataDir, rng), Algo: "lcm", MinSupport: 5, Workers: 1}, &coldE2E
			}
			start := time.Now()
			j, code := postJob(t, child2.url, req)
			if code != http.StatusAccepted {
				t.Fatalf("post-restart submit = %d", code)
			}
			final := child2.waitJob(t, j.ID)
			if final.State != "done" || final.ServedFromCache == cold {
				t.Fatalf("post-restart job (cold=%v): %+v", cold, final)
			}
			e2e.Record(time.Since(start).Nanoseconds())
		}
	}
	if err := p99Below(&hotE2E, &coldE2E); err != nil {
		t.Fatalf("post-restart hot key against the cold floor: %v", err)
	}
	t.Logf("post-restart e2e p99: hot %v, cold floor %v",
		time.Duration(hotE2E.Quantile(0.99)), time.Duration(coldE2E.Quantile(0.99)))

	// Graceful half: SIGTERM flushes a final snapshot and exits 0.
	if err := child2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := child2.cmd.Wait(); err != nil {
		t.Fatalf("graceful shutdown exit: %v; output:\n%s", err, child2.out.String())
	}
	if !strings.Contains(child2.out.String(), "PASS") {
		t.Fatalf("chaos child did not pass cleanly:\n%s", child2.out.String())
	}

	// The flushed snapshot holds the hot listing byte-identically to a
	// direct canonical mine — the strongest form of "listings identical
	// to an uninterrupted run".
	snap, err := servecache.ReadSnapshotFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	hotDB, err := fpm.ReadFIMIFile(hot)
	if err != nil {
		t.Fatal(err)
	}
	hotDirect, err := fpm.Mine(hotDB, "lcm", fpm.Applicable("lcm"), 5)
	if err != nil {
		t.Fatal(err)
	}
	wantSets := servecache.Canonicalize(hotDirect)
	var found bool
	for _, e := range snap.Entries {
		if e.Path != hot || e.MinSupport != 5 {
			continue
		}
		found = true
		if len(e.Sets) != len(wantSets) {
			t.Fatalf("snapshot hot listing has %d sets, direct mine %d", len(e.Sets), len(wantSets))
		}
		for i := range wantSets {
			if e.Sets[i].Support != wantSets[i].Support ||
				!equalItems(e.Sets[i].Items, wantSets[i].Items) {
				t.Fatalf("snapshot listing diverges from the direct mine at set %d: %+v vs %+v",
					i, e.Sets[i], wantSets[i])
			}
		}
	}
	if !found {
		t.Fatalf("final snapshot lost the hot listing; entries: %d", len(snap.Entries))
	}
}

func equalItems(a, b []fpm.Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// chaosDataset writes a Quest corpus at a stable path (the same bytes on
// every call with the same seed — both child generations must see one
// identity).
func chaosDataset(t *testing.T, dir, name string, tx int, seed int64) string {
	t.Helper()
	path := filepath.Join(dir, name)
	db := fpm.GenerateQuest(fpm.QuestConfig{
		Transactions: tx, AvgLen: 8, AvgPatternLen: 4, Items: 200, Patterns: 400, Seed: seed,
	})
	if err := fpm.WriteFIMIFile(path, db); err != nil {
		t.Fatal(err)
	}
	return path
}

// waitSnapshotEntries polls until the snapshot file decodes with at least
// n entries.
func waitSnapshotEntries(t *testing.T, path string, n int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if snap, err := servecache.ReadSnapshotFile(path); err == nil && len(snap.Entries) >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("snapshot at %s never reached %d entries", path, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
