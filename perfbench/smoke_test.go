package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"testing"
)

// The smoke tests run every workload's code path, untraced and traced, on
// a 16³ grid with a zero-length window (one operation each), and check
// that each report is correct and carries exactly the metrics
// BENCHMARK.json declares, with their units.

var smokeWorkloads = map[string]workload{
	"solve64-f64":    solveWorkload{n: 24, precision: "float64", cohortN: 16}.workload(),
	"incomp64-f32":   solveWorkload{n: 16, precision: "float32", incompressible: true, cohortN: 16}.workload(),
	"cohort32-serve": cohortWorkload{n: 16}.workload(),
}

var (
	regserveOnce sync.Once
	regserveBin  string
	regserveErr  error
)

// buildRegserve builds the daemon once per test binary.
func buildRegserve(t *testing.T) string {
	t.Helper()
	regserveOnce.Do(func() {
		dir, err := os.MkdirTemp("", "perfbench-regserve-")
		if err != nil {
			regserveErr = err
			return
		}
		regserveBin = filepath.Join(dir, "regserve")
		out, err := exec.Command("go", "build", "-o", regserveBin, "diffreg/cmd/regserve").CombinedOutput()
		if err != nil {
			regserveErr = err
			t.Logf("%s", out)
		}
	})
	if regserveErr != nil {
		t.Fatalf("building regserve: %v", regserveErr)
	}
	return regserveBin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if regserveBin != "" {
		os.RemoveAll(filepath.Dir(regserveBin))
	}
	os.Exit(code)
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func requireMetrics(t *testing.T, rep *report, want map[string]string) {
	t.Helper()
	var missing, extra []string
	for name, unit := range want {
		m, ok := rep.Metrics[name]
		switch {
		case !ok:
			missing = append(missing, name)
		case m.Unit != unit:
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	for name := range rep.Metrics {
		if _, ok := want[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing) > 0 || len(extra) > 0 {
		t.Errorf("metrics missing %v, undeclared %v", missing, extra)
	}
}

func TestSmokeWorkloads(t *testing.T) {
	endToEnd, perLayer := declared(t)
	bin := buildRegserve(t)
	for _, name := range []string{"solve64-f64", "incomp64-f32", "cohort32-serve"} {
		w := smokeWorkloads[name]
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				o := opts{workload: name, seed: 3, regserve: bin, workDir: t.TempDir(), traceDir: t.TempDir()}
				rep := &report{Correct: true}
				run, want := w.run, endToEnd
				if traced {
					run, want = w.traced, perLayer
				}
				if err := run(o, rep); err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
				}
				requireMetrics(t, rep, want)
				if !traced {
					for name, m := range rep.Metrics {
						if !(m.Value > 0) {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
						}
					}
				}
				if traced {
					traces, _ := filepath.Glob(filepath.Join(o.traceDir, "*.json"))
					if len(traces) != 1 {
						t.Fatalf("traced run wrote %d trace files, want 1", len(traces))
					}
				}
			})
		}
	}
}

// TestCheckerRejectsCorruptedSolve corrupts a real solve's output and
// requires the checker to reject it.
func TestCheckerRejectsCorruptedSolve(t *testing.T) {
	w := solveWorkload{n: 24, precision: "float64"}
	p, err := w.setupOnce()
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := solveOnce(p, w.config())
	if err != nil {
		t.Fatal(err)
	}
	good := outcomeOf(p, res, false, false)
	if _, err := good.verify(defaultLimits); err != nil {
		t.Fatalf("clean solve rejected: %v", err)
	}
	corrupt := map[string]func(o *outcome){
		"flipped voxel block": func(o *outcome) { flipBlock(o.Warped, o.N, 4) },
		"negative det": func(o *outcome) {
			o.Det[5] = -o.Det[5]
			o.DetMin = o.Det[5]
		},
		"misfit not matching its volumes": func(o *outcome) { o.MisfitInit *= 1.001 },
	}
	for name, c := range corrupt {
		o := good.clone()
		c(&o)
		if _, err := o.verify(defaultLimits); err == nil {
			t.Errorf("%s: corrupted solve accepted", name)
		}
	}
}

// TestServedMatchesSolo: the bit-identity check the cohort workload makes
// after its window holds on a served 16³ job and fails on a perturbed one.
func TestServedMatchesSolo(t *testing.T) {
	d, _, err := startDaemon(buildRegserve(t), t.TempDir(), steadyWindow, servingWorkers)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	pairs, err := cohortWorkload{n: 16}.cohort()
	if err != nil {
		t.Fatal(err)
	}
	job, err := newServedJob(5, pairs[5], subjectPrecision(5), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.runBatch([]*servedJob{job}, 1, nil); err != nil {
		t.Fatal(err)
	}
	rep := &report{Correct: true}
	studies := [][]*servedJob{{job}}
	resolve(rep, studies)
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("served job differs from its solo re-solve")
	}
	job.status.Result.Warped[3] = math.Nextafter(job.status.Result.Warped[3], 2)
	resolve(rep, studies)
	if rep.Correct || rep.Failed != 1 {
		t.Fatalf("a one-ulp change in the served warped image was not caught")
	}
}
