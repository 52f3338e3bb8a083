// Command bench is the repository benchmark: four closed-loop workloads
// over the mining kernels, the out-of-core path and `fpm serve`, each run
// in its own child process and timed from outside the library through its
// public entry points. See README.md for the metric glossary and why each
// workload exists.
//
// Usage:
//
//	go run . [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-runs K] [-out FILE]
//	go run . compare A.json B.json
//
// Without -workload every workload runs. The last line of standard output
// of a single run is its result as one JSON object; -out additionally
// collects every run into a results file that compare reads.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one run's outcome, in the shape the last output line carries.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Run is one result together with what produced it, as stored in a
// results file.
type Run struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result
}

// config is what one workload run needs from the command line.
type config struct {
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool // smoke-test sizing: small corpora, same code paths
	workDir  string
	traceDir string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var (
		workload = flag.String("workload", "", "workload to run (default: all of "+strings.Join(workloadNames(), ", ")+")")
		seed     = flag.Int64("seed", 1, "seed the workload inputs and request streams are made from")
		seconds  = flag.Float64("seconds", 30, "length of the measured window of each run")
		traceArg = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
		runs     = flag.Int("runs", 1, "runs per workload, with seeds seed, seed+1, ...")
		out      = flag.String("out", "", "results file every run is added to (read by compare)")
		workDir  = flag.String("workdir", filepath.Join(".bench_build", "work"), "directory for generated inputs and server state")
		traceDir = flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory traced runs write their Chrome trace files to")
		child    = flag.String("child", "", "run one workload in this process (used by the parent)")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*traceArg != 0 && *traceArg != 1) || *seconds <= 0 || *runs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *traceArg == 1, workDir: *workDir, traceDir: *traceDir}

	if *child != "" {
		res, err := runWorkload(*child, cfg, os.Stderr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			os.Exit(1)
		}
		return
	}

	names := workloadNames()
	if *workload != "" {
		if _, ok := workloads[*workload]; !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(names, ", "))
			os.Exit(2)
		}
		names = []string{*workload}
	}
	for i := 0; i < *runs; i++ {
		for _, name := range names {
			c := cfg
			c.seed = cfg.seed + int64(i)
			res, err := runChild(name, c)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", name, c.seed, err)
				os.Exit(1)
			}
			if *out != "" {
				if err := appendRun(*out, Run{Workload: name, Seed: c.seed, Trace: c.trace, Result: res}); err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					os.Exit(1)
				}
			}
			line, err := json.Marshal(res)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			fmt.Println(string(line))
		}
	}
}

// runChild runs one workload in a child process of this executable, so
// each workload's resident set and heap are its own, and returns the result
// the child printed. The child's report on standard error passes through.
func runChild(name string, cfg config) (Result, error) {
	exe, err := os.Executable()
	if err != nil {
		return Result{}, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{"-child", name,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", trace, "-workdir", cfg.workDir, "-trace-dir", cfg.traceDir}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return Result{}, fmt.Errorf("child: %w", err)
	}
	var res Result
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return Result{}, fmt.Errorf("child result: %w", err)
	}
	return res, nil
}

// resultsFile is the on-disk form compare reads.
type resultsFile struct {
	Runs []Run `json:"runs"`
}

func readResults(path string) (resultsFile, error) {
	var rf resultsFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// appendRun adds run to the results file at path, creating it if needed.
func appendRun(path string, run Run) error {
	rf, err := readResults(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	rf.Runs = append(rf.Runs, run)
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
