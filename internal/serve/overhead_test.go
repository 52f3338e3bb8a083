package serve

import (
	"path/filepath"
	"runtime"
	"testing"

	"fpm"
	"fpm/internal/jobs"
)

// BenchmarkServeOverhead is the serving layer's overhead gate: one small
// real mining job end to end through the production instance (submit →
// mine → terminal), result cache disabled so every iteration actually
// mines. Observability added to the serve path — the flight-recorder
// events, the latency histograms — must keep this number within 3% of the
// pre-change baseline with event streaming off (no Config.EventLog, i.e.
// `fpm serve -log-json` off), per the repo's overhead-budget discipline.
func BenchmarkServeOverhead(b *testing.B) {
	dir := b.TempDir()
	path := filepath.Join(dir, "small.dat")
	db := fpm.GenerateQuest(fpm.QuestConfig{
		Transactions: 600, AvgLen: 6, AvgPatternLen: 3, Items: 200, Patterns: 400, Seed: 7,
	})
	if err := fpm.WriteFIMIFile(path, db); err != nil {
		b.Fatal(err)
	}
	inst := NewInstance(Config{MaxConcurrent: 1, DisableResultCache: true})
	defer inst.Store.Close()
	req := jobs.JobRequest{Path: path, Algo: "lcm", MinSupport: 5, Workers: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job, err := inst.Store.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		for {
			j, ok := inst.Store.Get(job.ID)
			if !ok {
				b.Fatal("job vanished")
			}
			if j.State == "done" {
				break
			}
			if j.State == "failed" || j.State == "cancelled" {
				b.Fatalf("job ended %s: %s", j.State, j.Error)
			}
			runtime.Gosched() // single-core boxes: let the runner goroutine in
		}
	}
}
