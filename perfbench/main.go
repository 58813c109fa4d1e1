// Command perfbench is the repository's benchmark: one program that runs
// one workload per process and prints one JSON result line.
//
//	bash perfbench/run.sh --workload solve64-f64 --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md for their make-up and why each was chosen):
//
//	solve64-f64     diffreg.Register on the paper's 64³ synthetic pair, float64
//	incomp64-f32    the same grid, incompressible, float32 hot path
//	cohort32-serve  the regserve daemon fed atlas-style cohort studies at 32³
//
// BENCHMARK.json lists the first two. cohort32-serve is run by hand: its
// CPU time per job follows the host's load too closely for a bound.
//
// With --trace 0 the run times its operations and reports the end-to-end
// metrics. With --trace 1 it replays each layer's public calls at the
// workload's shape, writes a Chrome trace-event file, prints each span's
// self time to stderr, and reports the per-layer metrics instead.
//
// Every run checks the program's outputs (checks.go); a failed check marks
// the operation failed and the run incorrect. All progress goes to stderr;
// the last line of stdout is the result object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workload is one named benchmark workload.
type workload struct {
	run    func(o opts, rep *report) error // end-to-end metrics
	traced func(o opts, rep *report) error // per-layer metrics
}

var workloads = map[string]workload{
	"solve64-f64":    solveWorkload{n: 64, precision: "float64", cohortN: 32}.workload(),
	"incomp64-f32":   solveWorkload{n: 64, precision: "float32", incompressible: true, cohortN: 32}.workload(),
	"cohort32-serve": cohortWorkload{n: 32}.workload(),
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, " | ")
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line the benchmark prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		// Nothing was measured (every operation of the kind failed); the
		// failures already mark the run incorrect.
		value = 0
	}
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// fail records an operation that returned an error instead of a result.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	logf("FAILED: "+format, args...)
}

// wrong records an operation whose output failed a check: it counts as
// failed, and the run is no longer correct.
func (r *report) wrong(format string, args ...any) {
	r.Failed++
	r.Correct = false
	logf("WRONG: "+format, args...)
}

// opts is the parsed command line.
type opts struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	regserve string // path of the regserve binary (cohort32-serve and traced runs)
	workDir  string // scratch space inside the checkout
	traceDir string // where traced runs write their trace files
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	var o opts
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "input seed (same seed, same inputs)")
	flag.IntVar(&seconds, "seconds", 30, "measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced per-layer run, 0 = untraced end-to-end run")
	flag.StringVar(&o.regserve, "regserve", "", "path of the regserve binary")
	flag.StringVar(&o.workDir, "workdir", ".bench_build/run", "scratch directory for journals and daemon logs")
	flag.StringVar(&o.traceDir, "tracedir", ".bench_build/traces", "directory for the trace files of traced runs")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		logf("--seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	o.window = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	w, ok := workloads[o.workload]
	if !ok {
		logf("unknown workload %q (want %s)", o.workload, workloadNames())
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(mustMkdir(o.workDir), o.workload+"-")
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	o.workDir = dir
	defer os.RemoveAll(dir)

	rep := &report{Correct: true}
	if o.trace {
		err = w.traced(o, rep)
	} else {
		err = w.run(o, rep)
	}
	if err != nil {
		// An error is a broken run (the daemon did not start, a solve
		// returned an error before any output existed): no result line.
		logf("%v", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return dir
	}
	return abs
}
