package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is BENCHMARK.json as the smoke test checks it.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp benchmarkSpec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

// checkMetrics asserts the result carries exactly the declared metrics,
// each with its declared unit.
func checkMetrics(t *testing.T, what string, got map[string]Metric, want []declared) {
	t.Helper()
	for _, d := range want {
		m, ok := got[d.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("%s: %s unit %q, declared %q", what, d.Name, m.Unit, d.Unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, %d declared", what, len(got), len(want))
	}
}

// TestSmoke runs every workload briefly on tiny corpora, untraced and
// traced, and checks the declared metrics, zero failures, the answer and
// layer-sum checks, and that each trace file decodes as Chrome trace JSON.
func TestSmoke(t *testing.T) {
	sp := readSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	traceDir := t.TempDir()
	for _, wl := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{seed: 7, seconds: 0.5, trace: traced, tiny: true, workDir: t.TempDir(), traceDir: traceDir}
			var report bytes.Buffer
			res, err := runWorkload(wl.Name, cfg, &report)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, traced, err)
			}
			what := wl.Name
			if traced {
				what += " traced"
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s: correct %v, %d of %d ops failed\n%s", what, res.Correct, res.Failed, res.Attempted, report.String())
			}
			if !traced {
				checkMetrics(t, what, res.Metrics, sp.EndToEnd)
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", what, name, m.Value)
					}
				}
				continue
			}
			checkMetrics(t, what, res.Metrics, sp.PerLayer)
			data, err := os.ReadFile(filepath.Join(traceDir, wl.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatalf("%s trace: %v", wl.Name, err)
			}
			spans := 0
			for _, ev := range tf.TraceEvents {
				if ev.Ph == "X" {
					spans++
					if ev.Dur == nil || *ev.Dur < 0 || ev.Name == "" {
						t.Errorf("%s trace: bad complete event %+v", wl.Name, ev)
					}
				}
			}
			if spans == 0 {
				t.Errorf("%s trace: no spans", wl.Name)
			}
		}
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name  string
		b     []float64
		lower bool
		want  string
	}{
		{"same", []float64{102, 101, 103, 102, 101}, true, verdictSame},
		{"worse latency", []float64{120, 121, 119, 120, 122}, true, verdictWorse},
		{"better latency", []float64{80, 81, 79, 80, 80}, true, verdictBetter},
		{"worse throughput", []float64{80, 81, 79, 80, 80}, false, verdictWorse},
		{"better throughput", []float64{120, 121, 119, 120, 122}, false, verdictBetter},
		{"unresolved", []float64{60, 90, 100, 130, 160}, true, verdictUnresolved},
		// Wider than the bound, but every run is worse than every run of A.
		{"worse beyond spread", []float64{110, 125, 140, 150, 170}, true, verdictWorse},
	} {
		if _, _, _, got := judge(steady, tc.b, tc.lower, 0.1); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompare(t *testing.T) {
	var sp spec
	if err := json.Unmarshal([]byte(`{"end_to_end": [
		{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
		{"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.1}]}`), &sp); err != nil {
		t.Fatal(err)
	}
	runs := func(p50, ops float64, failed int) resultsFile {
		var rf resultsFile
		for i := 0; i < 5; i++ {
			jitter := 1 + 0.01*float64(i-2)
			rf.Runs = append(rf.Runs, Run{Workload: "w", Seed: int64(i), Result: Result{
				Correct: true, Attempted: 100, Failed: failed,
				Metrics: map[string]Metric{"p50_ms": {p50 * jitter, "ms"}, "ops_per_s": {ops * jitter, "ops/s"}},
			}})
		}
		// Traced runs carry other metrics and are not compared.
		rf.Runs = append(rf.Runs, Run{Workload: "w", Trace: true, Result: Result{Correct: true, Attempted: 1}})
		return rf
	}
	base := runs(10, 100, 0)
	for _, tc := range []struct {
		name      string
		b         resultsFile
		regressed bool
		verdict   string
	}{
		{"same code", runs(10.2, 99, 0), false, verdictSame},
		{"slower", runs(13, 100, 0), true, verdictWorse},
		{"faster", runs(8, 130, 0), false, verdictBetter},
		{"failed ops", runs(10, 100, 1), true, verdictSame},
	} {
		var out bytes.Buffer
		regressed, err := compare(sp, base, tc.b, &out)
		if err != nil {
			t.Fatal(err)
		}
		if regressed != tc.regressed {
			t.Errorf("%s: regressed %v, want %v\n%s", tc.name, regressed, tc.regressed, out.String())
		}
		if !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: no %q verdict\n%s", tc.name, tc.verdict, out.String())
		}
	}
	if _, err := compare(sp, base, resultsFile{}, &bytes.Buffer{}); err == nil {
		t.Error("compare with no common workload succeeded")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples is not 0")
	}
}
