package main

// Golden-file tests for the CLI: each case drives run() — the same code
// path main() uses — with in-memory writers and compares stdout against a
// checked-in fixture under testdata/golden. Regenerate with
//
//	go test ./cmd/fpm -run TestGolden -update
//
// Timing fields are nondeterministic and are normalized before comparison;
// every mining case uses -workers 1 because scheduler counters (steals,
// per-worker task counts) are scheduling-dependent by design.

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"fpm"
	"fpm/internal/failpoint"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runCLI invokes the CLI core and returns its stdout.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, stderr.String())
	}
	return stdout.String()
}

// checkGolden compares got with the named fixture, rewriting it under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- want\n%s--- got\n%s", path, want, got)
	}
}

// timingLine matches table rows whose value is a wall-clock measurement.
var timingLine = regexp.MustCompile(`(?m)^(wall time|shard merge|pass 1 time|pass 2 time)(\s+)\S+$`)

func TestGoldenListing(t *testing.T) {
	out := runCLI(t, "-in", filepath.Join("testdata", "small.dat"), "-support", "2", "-algo", "lcm")
	checkGolden(t, "listing.txt", out)
}

func TestGoldenCount(t *testing.T) {
	out := runCLI(t, "-in", filepath.Join("testdata", "small.dat"), "-support", "2", "-algo", "eclat", "-count")
	checkGolden(t, "count.txt", out)
}

func TestGoldenDescribe(t *testing.T) {
	out := runCLI(t, "-in", filepath.Join("testdata", "small.dat"), "-support", "2", "-describe")
	checkGolden(t, "describe.txt", out)
}

func TestGoldenStatsTable(t *testing.T) {
	for _, algo := range []string{"lcm", "eclat", "fpgrowth"} {
		t.Run(algo, func(t *testing.T) {
			out := runCLI(t, "-in", filepath.Join("testdata", "small.dat"),
				"-support", "2", "-algo", algo, "-stats", "table")
			out = timingLine.ReplaceAllString(out, "$1$2<timing>")
			checkGolden(t, "stats-table-"+algo+".txt", out)
		})
	}
}

// TestGoldenStatsJSON checks the machine-readable path end to end: the CLI
// JSON must decode into fpm.Snapshot (the acceptance round-trip through
// encoding/json), and — with timing zeroed — re-encode to the golden form.
func TestGoldenStatsJSON(t *testing.T) {
	out := runCLI(t, "-in", filepath.Join("testdata", "small.dat"),
		"-support", "2", "-algo", "lcm", "-patterns", "all", "-stats", "json")

	var snap fpm.Snapshot
	if err := json.Unmarshal([]byte(out), &snap); err != nil {
		t.Fatalf("-stats json output does not decode into fpm.Snapshot: %v\n%s", err, out)
	}
	if snap.Kernel == "" || snap.Nodes == 0 || snap.Emitted == 0 {
		t.Fatalf("decoded snapshot is missing counters: %+v", snap)
	}
	if snap.WallNanos == 0 {
		t.Fatalf("decoded snapshot has zero wall time — timing was not recorded")
	}
	snap.WallNanos = 0

	canon, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "stats-json-lcm.json", string(canon)+"\n")
}

// TestGoldenStatsWithOut checks the split-destination contract: with -stats
// the listing goes to the -out file, counters to stdout.
func TestGoldenStatsWithOut(t *testing.T) {
	outFile := filepath.Join(t.TempDir(), "results.txt")
	out := runCLI(t, "-in", filepath.Join("testdata", "small.dat"),
		"-support", "2", "-algo", "lcm", "-stats", "table", "-out", outFile)
	out = timingLine.ReplaceAllString(out, "$1$2<timing>")
	checkGolden(t, "stats-table-lcm.txt", out)

	listing, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	wantListing, err := os.ReadFile(filepath.Join("testdata", "golden", "listing.txt"))
	if err != nil && !*update {
		t.Fatal(err)
	}
	if !*update && string(listing) != string(wantListing) {
		t.Errorf("-out listing differs from plain listing:\n%s", listing)
	}
}

// TestGoldenPartitionListing pins the out-of-core acceptance property at
// the CLI layer: -partition with a budget that forces one-transaction
// chunks must produce the byte-identical listing to the in-memory run —
// the SAME golden file as TestGoldenListing, not a separate fixture.
func TestGoldenPartitionListing(t *testing.T) {
	for _, budget := range []string{"256", "1K", "64M"} {
		out := runCLI(t, "-in", filepath.Join("testdata", "small.dat"),
			"-support", "2", "-algo", "lcm", "-partition", "-mem-budget", budget)
		checkGolden(t, "listing.txt", out)
	}
}

// TestGoldenPartitionStatsTable pins the two-pass counter table. Chunking
// is deterministic (streaming order × budget), so everything except the
// pass timings is stable: -mem-budget 1K (128-byte chunks) splits
// small.dat into three two-transaction chunks.
func TestGoldenPartitionStatsTable(t *testing.T) {
	out := runCLI(t, "-in", filepath.Join("testdata", "small.dat"),
		"-support", "2", "-algo", "eclat", "-partition", "-mem-budget", "1K",
		"-workers", "1", "-stats", "table")
	out = timingLine.ReplaceAllString(out, "$1$2<timing>")
	checkGolden(t, "stats-table-partition.txt", out)
}

// TestGoldenPartitionStatsJSON checks the machine-readable two-pass
// snapshot end to end: decode into fpm.Snapshot, verify the partition
// section is live, zero the timings, and compare the re-encoding.
func TestGoldenPartitionStatsJSON(t *testing.T) {
	out := runCLI(t, "-in", filepath.Join("testdata", "small.dat"),
		"-support", "2", "-algo", "lcm", "-partition", "-mem-budget", "1K",
		"-workers", "1", "-stats", "json")

	var snap fpm.Snapshot
	if err := json.Unmarshal([]byte(out), &snap); err != nil {
		t.Fatalf("-stats json output does not decode into fpm.Snapshot: %v\n%s", err, out)
	}
	if snap.Partition == nil {
		t.Fatalf("no partition section in snapshot: %s", out)
	}
	if snap.Partition.Chunks == 0 || snap.Partition.BytesPass2 == 0 {
		t.Fatalf("partition counters not recorded: %+v", *snap.Partition)
	}
	if snap.WallNanos == 0 || snap.Partition.Pass1Nanos == 0 || snap.Partition.Pass2Nanos == 0 {
		t.Fatalf("timings not recorded: wall=%d pass1=%d pass2=%d",
			snap.WallNanos, snap.Partition.Pass1Nanos, snap.Partition.Pass2Nanos)
	}
	snap.WallNanos = 0
	snap.Partition.Pass1Nanos = 0
	snap.Partition.Pass2Nanos = 0

	canon, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "stats-json-partition.json", string(canon)+"\n")
}

func TestCLIErrors(t *testing.T) {
	small := filepath.Join("testdata", "small.dat")
	cases := [][]string{
		{"-in", small, "-support", "2", "-stats", "xml"},
		{"-support", "2"}, // missing -in
		// Out-of-core constraints: -partition streams the file and cannot
		// serve paths that need the loaded database, nor an unknown algo.
		{"-in", small, "-support", "2", "-partition"}, // -algo auto default
		{"-in", small, "-support", "2", "-partition", "-algo", "nope"},
		{"-in", small, "-support", "2", "-partition", "-algo", "lcm", "-describe"},
		{"-in", small, "-support", "2", "-partition", "-algo", "lcm", "-mem-budget", "zzz"},
		{"-in", small, "-support", "2", "-partition", "-algo", "lcm", "-mem-budget", "-4K"},
		{"-in", small, "-support", "2", "-partition", "-algo", "lcm", "-mem-budget", "0"},
		// Checkpointing is an out-of-core feature: reject it without -partition.
		{"-in", small, "-support", "2", "-algo", "lcm", "-checkpoint", "x.fpmck"},
		{"-in", small, "-support", "2", "-algo", "lcm", "-resume"},
		// The spawn cutoff is the pool's constant, not a flag.
		{"-in", small, "-support", "2", "-algo", "lcm", "-workers", "2", "-cutoff", "1"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestStatsParallelSmoke exercises -stats with workers > 1 (not golden:
// scheduler counters are nondeterministic) and checks the parallel section
// is present and self-consistent.
func TestStatsParallelSmoke(t *testing.T) {
	out := runCLI(t, "-in", filepath.Join("testdata", "small.dat"),
		"-support", "2", "-algo", "eclat", "-workers", "4", "-stats", "json")
	var snap fpm.Snapshot
	if err := json.Unmarshal([]byte(out), &snap); err != nil {
		t.Fatalf("decode: %v\n%s", err, out)
	}
	if snap.Workers != 4 {
		t.Fatalf("workers = %d, want 4", snap.Workers)
	}
	if snap.Parallel == nil {
		t.Fatalf("no parallel section: %s", out)
	}
	if snap.Parallel.TasksSpawned == 0 {
		t.Errorf("tasks spawned = 0, want > 0")
	}
	if len(snap.Parallel.Workers) != 4 {
		t.Errorf("worker stats = %d entries, want 4", len(snap.Parallel.Workers))
	}
	if !strings.Contains(snap.Kernel, "parallel(") {
		t.Errorf("kernel = %q, want parallel(...)", snap.Kernel)
	}
}

// TestCLIPartitionEveryKernel: -partition accepts the kernel without
// internal instrumentation, not only the three instrumented ones, and
// counts what the in-memory run counts.
func TestCLIPartitionEveryKernel(t *testing.T) {
	small := filepath.Join("testdata", "small.dat")
	want := runCLI(t, "-in", small, "-support", "2", "-algo", "apriori", "-count")
	got := runCLI(t, "-in", small, "-support", "2", "-algo", "apriori", "-count", "-partition", "-mem-budget", "1K")
	if got != want {
		t.Errorf("apriori: -partition counted %q, in-memory %q", got, want)
	}
}

// TestCLIUnknownAlgorithm: an -algo outside the kernel table fails with
// the library's error, which lists the valid names, in memory and
// out-of-core alike.
func TestCLIUnknownAlgorithm(t *testing.T) {
	small := filepath.Join("testdata", "small.dat")
	const want = `fpm: unknown algorithm "hmine" (valid: apriori, eclat, fpgrowth, lcm)`
	for _, args := range [][]string{
		{"-in", small, "-support", "2", "-algo", "hmine"},
		{"-in", small, "-support", "2", "-algo", "hmine", "-partition"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil || err.Error() != want {
			t.Errorf("run(%v) = %v, want %s", args, err, want)
		}
	}
}

// TestCLIAutoTimeout: the default -algo auto honours -timeout like an
// explicit kernel does, without any observability flag set.
func TestCLIAutoTimeout(t *testing.T) {
	args := []string{"-in", filepath.Join("testdata", "small.dat"), "-support", "2", "-timeout", "1ns"}
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("run(%v) = %v, want deadline error", args, err)
	}
	if stdout.Len() != 0 {
		t.Fatalf("cancelled run printed results:\n%s", stdout.String())
	}
}

// heavyCorpusFile writes a corpus heavy enough that mining at support 2
// far outlives any test timeout used against it.
func heavyCorpusFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "heavy.dat")
	db := fpm.GenerateCorpus(fpm.CorpusConfig{
		Docs: 4000, Vocab: 1500, AvgLen: 20, ZipfS: 1.3,
		Topics: 6, TopicShare: 0.7, TopicPool: 40, Seed: 34,
	})
	if err := fpm.WriteFIMIFile(path, db); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCLITimeout: -timeout bounds the run's wall time and surfaces the
// deadline as the run error, for both the in-memory and partitioned paths.
func TestCLITimeout(t *testing.T) {
	heavy := heavyCorpusFile(t)
	for _, args := range [][]string{
		{"-in", heavy, "-support", "2", "-algo", "lcm", "-timeout", "50ms"},
		{"-in", heavy, "-support", "2", "-algo", "lcm", "-partition", "-mem-budget", "64M", "-timeout", "50ms"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if err == nil {
			t.Fatalf("run(%v) beat a 50ms deadline on a heavy corpus", args)
		}
		if !strings.Contains(err.Error(), "deadline") {
			t.Fatalf("run(%v) = %v, want deadline error", args, err)
		}
	}
}

// TestCLICheckpointResume: crash a partitioned CLI run via the chunk-mine
// failpoint, then -resume must finish it and print exactly what an
// uninterrupted run prints.
func TestCLICheckpointResume(t *testing.T) {
	defer failpoint.Disable()
	in := filepath.Join(t.TempDir(), "db.dat")
	db := fpm.GenerateQuest(fpm.QuestConfig{Transactions: 400, AvgLen: 5,
		AvgPatternLen: 3, Items: 60, Patterns: 25, Seed: 11})
	if err := fpm.WriteFIMIFile(in, db); err != nil {
		t.Fatal(err)
	}
	base := []string{"-in", in, "-support", "8", "-algo", "lcm", "-partition", "-mem-budget", "4K"}
	want := runCLI(t, base...)

	ckpt := in + ".fpmck"
	reg := failpoint.New()
	reg.FailAfter(failpoint.PartitionChunkMine, 1, errors.New("injected crash"))
	failpoint.Enable(reg)
	var stdout, stderr bytes.Buffer
	if err := run(append(base, "-checkpoint", ckpt), &stdout, &stderr); err == nil {
		t.Fatal("crashed run reported success")
	}
	failpoint.Disable()
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("crashed run left no sidecar: %v", err)
	}

	got := runCLI(t, append(base, "-resume")...) // sidecar defaults to <in>.fpmck
	if got != want {
		t.Fatal("resumed CLI output differs from uninterrupted run")
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("sidecar not removed after successful resume: %v", err)
	}
}
