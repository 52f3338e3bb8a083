package telemetry

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"fpm/internal/jobs"
	"fpm/internal/metrics"
	"fpm/internal/servecache"
)

// renderAllMetricFamilies produces a /metrics exposition with every family
// this package can emit, by rendering each writer with inputs that enable
// its conditional sections (parallel + partitioned run snapshot, a memory
// budget, caches attached).
func renderAllMetricFamilies() string {
	var b bytes.Buffer
	snap := metrics.Snapshot{
		SchemaVersion: metrics.SnapshotSchemaVersion, Kernel: "lcm",
		Workers: 2, WallNanos: 1e9, Nodes: 1, Supports: 1, Emitted: 1, Prunes: 1,
		Parallel: &metrics.ParallelStats{
			TasksSpawned: 1, TasksOffered: 1, TasksStolen: 1, StealFailures: 1, MergeNanos: 1,
			Workers: []metrics.WorkerStat{{ID: 0, Tasks: 1, BusyNanos: 1}},
		},
		Partition: &metrics.PartitionStats{
			Chunks: 1, CandidatesGenerated: 1, CandidatesSurviving: 1,
			BytesPass1: 1, BytesPass2: 1, Pass1Nanos: 1, Pass2Nanos: 1,
			MemBudget: 1, InputBytes: 1,
		},
	}
	_ = WritePrometheus(&b, snap, true)
	_ = WriteJobMetrics(&b, jobs.StoreStats{})
	_ = WriteJobHistograms(&b, jobs.JobHists{})
	_ = WriteCacheMetrics(&b, servecache.Stats{}, &servecache.PersistStats{})
	return b.String()
}

// TestEveryMetricFamilyDocumented is the doc-lint gate: every family the
// server can expose on /metrics must carry a HELP line in the exposition
// and a row in README.md's metrics table. The per-family p50/p99 quantile
// gauges are documented on their parent histogram's row, so the lint maps
// them back to the parent name.
func TestEveryMetricFamilyDocumented(t *testing.T) {
	text := renderAllMetricFamilies()
	families := map[string]bool{}
	helps := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(rest, " ")
			families[name] = true
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			helps[name] = true
		}
	}
	if len(families) < 30 {
		t.Fatalf("only %d families rendered; the fixture lost coverage", len(families))
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for name := range families {
		if !helps[name] {
			t.Errorf("family %s has a TYPE line but no HELP line", name)
		}
		doc := name
		if base, ok := strings.CutSuffix(doc, "_p50_seconds"); ok {
			doc = base
		} else if base, ok := strings.CutSuffix(doc, "_p99_seconds"); ok {
			doc = base
		}
		if !bytes.Contains(readme, []byte(doc)) {
			t.Errorf("family %s is not documented in README.md (expected the name %q in the metrics table)", name, doc)
		}
	}

	// Every sample line must belong to a declared family (catches a writer
	// emitting a series whose TYPE/HELP block was forgotten).
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if s, ok := strings.CutSuffix(name, suf); ok && families[s] {
				base = s
				break
			}
		}
		if !families[base] {
			t.Errorf("sample %q belongs to no TYPE-declared family", name)
		}
	}
}

// TestDesignDocumentsFlightRecorder pins the DESIGN.md section the PR's
// observability machinery is specified in.
func TestDesignDocumentsFlightRecorder(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := strings.ToLower(string(design))
	for _, want := range []string{"## 15", "flight recorder", "fpm_job_e2e_seconds", "/jobs/{id}/events"} {
		if !strings.Contains(text, want) {
			t.Errorf("DESIGN.md missing %q (the flight-recorder / histogram section)", want)
		}
	}
}

// TestDesignDocumentsDurability pins the DESIGN.md section specifying the
// durable-serving machinery: the snapshot format, the job journal, the
// requeue-on-restart semantics and the retry/backoff policy.
func TestDesignDocumentsDurability(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := strings.ToLower(string(design))
	for _, want := range []string{"## 16", "durability", "fprs", "journal", "requeue", "backoff"} {
		if !strings.Contains(text, want) {
			t.Errorf("DESIGN.md missing %q (the durability & recovery section)", want)
		}
	}
}
