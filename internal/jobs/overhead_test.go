package jobs

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"fpm/internal/metrics"
)

// BenchmarkStoreOverhead measures the store's per-job machinery cost with
// an instant MineFunc: submit one job, spin until it reaches a terminal
// state. Everything the scheduler adds per job — queue handoff, admission,
// the flight-recorder events, the heap sampler's boundary reads, the
// latency-histogram records — lands in this number. The 3% e2e budget is
// gated on a real job (BenchmarkServeOverhead in internal/serve); this
// microbenchmark tracks the absolute scheduler cost so a regression here
// pins to the store, not the miner.
func BenchmarkStoreOverhead(b *testing.B) {
	mine := func(context.Context, JobRequest, *metrics.Recorder) (MineResult, error) {
		return MineResult{Itemsets: 1}, nil
	}
	st := NewStoreWithConfig(mine, nil, StoreConfig{QueueCap: 4, MaxConcurrent: 1})
	defer st.Close()
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
}

// BenchmarkSamplerTick measures one peak-heap sampler tick — the live-heap
// read plus the walk it makes under the store lock — with one job running
// and many finished ones kept for GET /jobs. The tick walks the running
// set, so its cost (and the lock hold it imposes on admission) must stay
// flat as the finished-job history grows.
func BenchmarkSamplerTick(b *testing.B) {
	for _, finished := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("finished=%d", finished), func(b *testing.B) {
			st := NewStoreWithConfig(func(context.Context, JobRequest, *metrics.Recorder) (MineResult, error) {
				return MineResult{}, nil
			}, nil, StoreConfig{})
			defer st.Close()
			st.mu.Lock()
			for i := 0; i < finished; i++ {
				st.jobs = append(st.jobs, &Job{ID: i, State: "done"})
			}
			live := &Job{ID: finished, State: "running"}
			st.jobs = append(st.jobs, live)
			st.running[live.ID] = live
			st.mu.Unlock()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.sampleHeap()
			}
			b.StopTimer()
			st.mu.Lock()
			delete(st.running, live.ID)
			st.mu.Unlock()
		})
	}
}
