package jobs

import (
	"context"
	"runtime"
	"testing"

	"fpm/internal/metrics"
)

// BenchmarkStoreOverhead measures the store's per-job machinery cost with
// an instant MineFunc: submit one job, spin until it reaches a terminal
// state. Everything the scheduler adds per job — queue handoff, the
// flight-recorder events, the latency-histogram records — lands in this
// number. The 3% e2e budget is gated on a real job (BenchmarkServeOverhead
// in internal/serve); this microbenchmark tracks the absolute scheduler
// cost so a regression here pins to the store, not the miner.
//
// It also reports retained-B/job: the live heap, after a full GC, that
// the store still holds per finished job once the loop ends. The store
// keeps every job record, so this is what its history costs per job.
func BenchmarkStoreOverhead(b *testing.B) {
	mine := func(context.Context, JobRequest, *metrics.Recorder) (MineResult, error) {
		return MineResult{Itemsets: 1}, nil
	}
	st := NewStoreWithConfig(mine, nil, StoreConfig{QueueCap: 4, MaxConcurrent: 1})
	defer st.Close()
	heapBefore := liveHeap()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job, err := st.Submit(JobRequest{MinSupport: 1})
		if err != nil {
			b.Fatal(err)
		}
		for {
			j, ok := st.Get(job.ID)
			if !ok {
				b.Fatal("job vanished")
			}
			if j.State == "done" {
				break
			}
			runtime.Gosched() // single-core boxes: let the runner goroutine in
		}
	}
	b.StopTimer()
	retained := liveHeap() - heapBefore
	runtime.KeepAlive(st)
	b.ReportMetric(float64(retained)/float64(b.N), "retained-B/job")
}

// liveHeap returns the bytes of live heap objects after a full GC.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
