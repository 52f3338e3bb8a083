package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"fpm"
)

// workload is one benchmark workload: a set-up that builds its inputs,
// reference answers and (for serve) a running server, and a session that
// runs the measured closed loop over them.
type workload struct {
	why string
	// layers are the per-layer metric groups this workload's traced window
	// measures; a traced run of another workload probes them here.
	layers []string
	setup  func(cfg config, dir string) (session, error)
}

// session is one set-up's state.
type session interface {
	// run drives the closed loop for at least d. When traced, ops alternate
	// between traced and untraced, the window reports its layer metrics,
	// and spans go to tr (which may be nil).
	run(d time.Duration, traced bool, tr *tracer) (window, error)
	close() error
}

// window is what one measured closed loop observed.
type window struct {
	attempted, failed int
	// lat holds the latency in ms of every correct untraced op; tracedLat
	// those of correct traced ops.
	lat, tracedLat []float64
	// busy is the window's wall time minus the harness's own time between
	// ops (answer checks, collections), so throughput is not charged for
	// it.
	busy     time.Duration
	layers   map[string]Metric
	problems []string
}

// fail counts one failed op and records why.
func (w *window) fail(format string, args ...any) {
	w.failed++
	w.problem(format, args...)
}

// problem records a failed check without counting an op; at most a few
// are kept so a systematic failure does not flood the report.
func (w *window) problem(format string, args ...any) {
	if len(w.problems) < 8 {
		w.problems = append(w.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]workload{
	"mine-dense": {
		why:    "the three kernels on the Figure-8 corpora in-process: kernel time is >97% of each op",
		layers: []string{"fimi", "lcm", "eclat", "fpgrowth", "bitvec"},
		setup:  setupDense,
	},
	"mine-ooc": {
		why:    "out-of-core LCM over a sparse corpus four times the memory budget, two workers",
		layers: []string{"parallel", "partition"},
		setup:  setupOOC,
	},
	"serve-hot": {
		why:    "fpm serve, 90% reads of one cached request and 10% new keys: HTTP, job store, caches",
		layers: []string{"serve", "telemetry", "servecache"},
		setup:  func(cfg config, dir string) (session, error) { return setupServe(cfg, dir, true) },
	},
	"serve-cold": {
		why:    "the serve-hot request stream with both caches off: every op parses and mines",
		layers: []string{"serve", "telemetry", "servecache"},
		setup:  func(cfg config, dir string) (session, error) { return setupServe(cfg, dir, false) },
	},
}

// probeOrder is the order a traced run visits the other workloads to
// cover the layers its own window does not exercise.
var probeOrder = []string{"mine-dense", "mine-ooc", "serve-hot"}

func workloadNames() []string { return []string{"mine-dense", "mine-ooc", "serve-hot", "serve-cold"} }

// A run builds its workload setupsBefore times before the measured window,
// and measures the last of these, then setupsAfter more times after it;
// setup_s is the median of all of them. Spreading the set-ups around the
// window makes their median follow the machine's speed over the whole
// run, not over one second of it.
const setupsBefore, setupsAfter = 2, 2

// runWorkload runs one workload in this process and reports on report.
func runWorkload(name string, cfg config, report io.Writer) (Result, error) {
	w, ok := workloads[name]
	if !ok {
		return Result{}, fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return Result{}, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, name+"-")
	if err != nil {
		return Result{}, err
	}
	defer os.RemoveAll(dir)
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return runTraced(name, w, cfg, dir, d, report)
	}

	var setups []float64
	// setup builds set-up i and times it; keep leaves it open for the
	// window.
	setup := func(i int, keep bool) (session, error) {
		sub := filepath.Join(dir, "setup-"+strconv.Itoa(i))
		t0 := time.Now()
		s, err := w.setup(cfg, sub)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if keep {
			return s, nil
		}
		if err := s.close(); err != nil {
			return nil, err
		}
		return nil, os.RemoveAll(sub)
	}
	var s session
	for i := 0; i < setupsBefore; i++ {
		if s, err = setup(i, i == setupsBefore-1); err != nil {
			return Result{}, err
		}
	}
	stopRSS := make(chan struct{})
	rssSamples := sampleRSS(10*time.Millisecond, stopRSS)
	win, err := s.run(d, false, nil)
	close(stopRSS)
	rss := sortedCopy(<-rssSamples)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", name, err)
	}
	for i := 0; i < setupsAfter; i++ {
		if _, err := setup(setupsBefore+i, false); err != nil {
			return Result{}, err
		}
	}
	if len(rss) == 0 {
		return Result{}, fmt.Errorf("%s: no resident-set samples from /proc/self/statm", name)
	}
	lat := sortedCopy(win.lat)
	res := Result{
		Correct:   len(win.problems) == 0,
		Attempted: win.attempted,
		Failed:    win.failed,
		Metrics: map[string]Metric{
			"setup_s":     {median(setups), "s"},
			"ops_per_s":   {float64(len(lat)) / win.busy.Seconds(), "ops/s"},
			"p50_ms":      {quantile(lat, 0.50), "ms"},
			"p90_ms":      {quantile(lat, 0.90), "ms"},
			"p99_ms":      {quantile(lat, 0.99), "ms"},
			"rss_p99_mib": {quantile(rss, 0.99), "MiB"},
		},
	}
	printReport(report, name, cfg, res, win.problems, len(lat))
	return res, nil
}

// runTraced measures the workload's own window with tracing, then probes
// the layers it does not exercise in the workloads that do, so a traced
// run of any workload reports every per-layer metric.
func runTraced(name string, w workload, cfg config, dir string, d time.Duration, report io.Writer) (Result, error) {
	s, err := w.setup(cfg, filepath.Join(dir, "own"))
	if err != nil {
		return Result{}, fmt.Errorf("%s setup: %w", name, err)
	}
	tr := newTracer(name)
	win, err := s.run(d, true, tr)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", name, err)
	}
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return Result{}, err
	}
	tracePath := filepath.Join(cfg.traceDir, name+".json")
	if err := tr.writeFile(tracePath); err != nil {
		return Result{}, err
	}
	metrics := map[string]Metric{}
	for k, v := range win.layers {
		metrics[k] = v
	}
	untraced, traced := sortedCopy(win.lat), sortedCopy(win.tracedLat)
	overhead := 0.0
	if len(untraced) > 0 && len(traced) > 0 {
		overhead = quantile(traced, 0.5)/quantile(untraced, 0.5) - 1
	}
	metrics["bench.trace_overhead"] = Metric{overhead, "ratio"}

	covered := map[string]bool{}
	for _, g := range w.layers {
		covered[g] = true
	}
	problems := win.problems
	for _, owner := range probeOrder {
		ow := workloads[owner]
		if covered[ow.layers[0]] {
			continue
		}
		ps, err := ow.setup(cfg, filepath.Join(dir, "probe-"+owner))
		if err != nil {
			return Result{}, fmt.Errorf("%s probe setup: %w", owner, err)
		}
		pw, err := ps.run(d/5, true, nil)
		if cerr := ps.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return Result{}, fmt.Errorf("%s probe: %w", owner, err)
		}
		for k, v := range pw.layers {
			metrics[k] = v
		}
		for _, p := range pw.problems {
			problems = append(problems, owner+" probe: "+p)
		}
		for _, g := range ow.layers {
			covered[g] = true
		}
	}
	res := Result{Correct: len(problems) == 0, Attempted: win.attempted, Failed: win.failed, Metrics: metrics}
	printReport(report, name, cfg, res, problems, len(win.lat)+len(win.tracedLat))
	fmt.Fprintf(report, "  trace written to %s\n", tracePath)
	return res, nil
}

// printReport writes the human-readable form of a result: every metric
// by name with its unit, percentiles with their sample count, and the
// failed checks.
func printReport(w io.Writer, name string, cfg config, res Result, problems []string, samples int) {
	fmt.Fprintf(w, "%s seed=%d trace=%v: attempted %d, failed %d, correct %v\n",
		name, cfg.seed, cfg.trace, res.Attempted, res.Failed, res.Correct)
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := res.Metrics[k]
		n := ""
		if k == "p50_ms" || k == "p90_ms" || k == "p99_ms" {
			n = fmt.Sprintf(" (n=%d)", samples)
		}
		fmt.Fprintf(w, "  %-36s %14.4f %s%s\n", k, m.Value, m.Unit, n)
	}
	for _, p := range problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

// sampleRSS reads this process's resident set size every interval until
// stop is closed, then sends the samples, in MiB, on the returned channel.
// The high percentiles of the samples are steadier than the kernel's
// high-water mark, which one garbage-collection spike sets.
func sampleRSS(interval time.Duration, stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var mib []float64
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				out <- mib
				return
			case <-tick.C:
			}
			data, err := os.ReadFile("/proc/self/statm")
			if err != nil {
				continue
			}
			if f := strings.Fields(string(data)); len(f) > 1 {
				if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
					mib = append(mib, pages*float64(os.Getpagesize())/(1<<20))
				}
			}
		}
	}()
	return out
}

// answer identifies a listing by content: its size and the FNV-64a digest
// of its canonical form.
type answer struct {
	n      int
	digest uint64
}

// digestOf canonicalises a listing (items ascending within each set; sets
// by size, then element-wise) and digests it. It sorts sets in place.
func digestOf(sets []fpm.Itemset) answer {
	for _, s := range sets {
		sort.Slice(s.Items, func(i, j int) bool { return s.Items[i] < s.Items[j] })
	}
	sort.Slice(sets, func(i, j int) bool {
		a, b := sets[i].Items, sets[j].Items
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	h := fnv.New64a()
	var buf []byte
	for _, s := range sets {
		buf = buf[:0]
		for _, it := range s.Items {
			buf = strconv.AppendInt(buf, int64(it), 10)
			buf = append(buf, ' ')
		}
		buf = append(buf, '(')
		buf = strconv.AppendInt(buf, int64(s.Support), 10)
		buf = append(buf, ")\n"...)
		h.Write(buf)
	}
	return answer{n: len(sets), digest: h.Sum64()}
}

// settle collects the garbage earlier ops and their answer checks left,
// so each in-process op starts from a collected heap as a one-shot run
// does, and returns the time it took.
func settle() time.Duration {
	t := time.Now()
	runtime.GC()
	return time.Since(t)
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile of ascending xs, interpolating linearly
// between the closest ranks; 0 for no samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
