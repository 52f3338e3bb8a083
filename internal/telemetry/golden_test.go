package telemetry

import (
	"bytes"
	"os"
	"testing"

	"fpm/internal/jobs"
	"fpm/internal/metrics"
	"fpm/internal/servecache"
)

// goldenMetrics renders the full /metrics exposition, in the handler's
// order, from fixed inputs: a parallel partitioned run snapshot, a job
// store census and histograms, the cache census and — when persist is
// set — the persister's census.
func goldenMetrics(persist bool) []byte {
	snap := metrics.Snapshot{
		SchemaVersion: metrics.SnapshotSchemaVersion, Kernel: "lcm",
		Workers: 2, WallNanos: 1_500_000_000, Nodes: 1234, Supports: 5678, Emitted: 91, Prunes: 17,
		Parallel: &metrics.ParallelStats{
			TasksSpawned: 40, TasksOffered: 55, TasksStolen: 12, StealFailures: 3, MergeNanos: 2_500_000,
			Workers: []metrics.WorkerStat{{ID: 0, Tasks: 22, BusyNanos: 700_000_000}, {ID: 1, Tasks: 18, BusyNanos: 650_000_000}},
		},
		Partition: &metrics.PartitionStats{
			Chunks: 4, CandidatesGenerated: 300, CandidatesSurviving: 120,
			BytesPass1: 40960, BytesPass2: 20480, Pass1Nanos: 900_000_000, Pass2Nanos: 300_000_000,
			MemBudget: 1 << 20, InputBytes: 40960,
		},
	}
	store := jobs.StoreStats{
		QueueCap: 64, MaxConcurrent: 4, Queued: 5, Running: 3,
		Submitted: 500, Rejected: 11, Done: 440, Failed: 7, Cancelled: 45, CacheServed: 345,
		Retried: 4, Recovered: 2, Requeued: 1,
	}
	var hists jobs.JobHists
	for _, ns := range []int64{800_000, 3_000_000, 12_000_000, 40_000_000, 260_000_000, 1_700_000_000} {
		hists.QueueWait.Record(ns / 4)
		hists.Mine.Record(ns)
		hists.E2E.Record(ns + ns/4)
	}
	caches := servecache.Stats{
		Dataset: servecache.DatasetStats{Entries: 3, Bytes: 4 << 20, Hits: 120, Misses: 9, Evictions: 2, Skipped: 1},
		Result:  servecache.ResultStats{Entries: 7, Bytes: 512 << 10, HitsExact: 300, HitsSubsumed: 45, Misses: 30, Evictions: 5},
	}
	var ps *servecache.PersistStats
	if persist {
		ps = &servecache.PersistStats{Writes: 14, Errors: 1, Restored: 6, DroppedStale: 2, DroppedUnreadable: 1, LastBytes: 98765}
	}

	var b bytes.Buffer
	_ = WritePrometheus(&b, snap, true)
	_ = WriteJobMetrics(&b, store)
	_ = WriteJobHistograms(&b, hists)
	_ = WriteCacheMetrics(&b, caches, ps)
	return b.Bytes()
}

// TestMetricsGoldenText pins the /metrics exposition byte for byte — every
// family name, HELP line, label and value format — against text rendered
// from the same inputs before the cache census was rendered from
// servecache's own structs. A durable server adds the fpm_cache_persist_*
// family; a non-durable one must not render it at all.
func TestMetricsGoldenText(t *testing.T) {
	for _, tc := range []struct {
		file    string
		persist bool
	}{
		{"testdata/metrics-durable.golden", true},
		{"testdata/metrics-plain.golden", false},
	} {
		want, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		if got := goldenMetrics(tc.persist); !bytes.Equal(got, want) {
			t.Errorf("%s: /metrics text drifted from the golden:\n%s", tc.file, got)
		}
	}
}
