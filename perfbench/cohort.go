package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"diffreg"
)

// The cohort: eight brain-phantom subjects registered to one atlas. The
// seeds are fixed so every run solves the same registrations; --seed
// picks each study's periodic shift.
const atlasSeed = 100

var subjectSeeds = [8]int64{101, 102, 103, 104, 105, 106, 107, 108}

// subjectPrecision: the first half of the cohort runs float64, the
// second half float32.
func subjectPrecision(i int) string {
	if i < len(subjectSeeds)/2 {
		return "float64"
	}
	return "float32"
}

// cohortWorkload feeds the regserve daemon atlas-style cohort studies:
// each study is the whole cohort submitted as one burst, and the client
// waits for the study to finish before it sends the next.
type cohortWorkload struct{ n int }

func (w cohortWorkload) workload() workload { return workload{run: w.run, traced: w.traced} }

// cohort makes the subject/atlas pairs.
func (w cohortWorkload) cohort() ([]pair, error) {
	out := make([]pair, len(subjectSeeds))
	for i, s := range subjectSeeds {
		subj, atlas, err := diffreg.BrainPhantomPair(w.n, w.n, w.n, s, atlasSeed)
		if err != nil {
			return nil, err
		}
		out[i] = pair{template: subj, reference: atlas}
	}
	return out, nil
}

// setup makes the cohort and starts the daemon setupReps times (all but
// the last daemon are stopped again) and returns the median time from
// input generation to /readyz.
func (w cohortWorkload) setup(o opts) ([]pair, *daemon, float64, error) {
	var pairs []pair
	var d *daemon
	var times []float64
	for i := 0; i < setupReps; i++ {
		if d != nil {
			if _, err := d.stop(); err != nil {
				return nil, nil, 0, err
			}
		}
		t0 := time.Now()
		var err error
		if pairs, err = w.cohort(); err != nil {
			return nil, nil, 0, err
		}
		if d, _, err = startDaemon(o.regserve, filepath.Join(o.workDir, "daemon"+strconv.Itoa(i)), steadyWindow, servingWorkers); err != nil {
			return nil, nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return pairs, d, median(times), nil
}

// study builds one study's jobs: the cohort rolled by one seeded shift,
// submitted in subject order. maxIters > 0 makes it a warm-up study.
//
// The order is fixed because the fusion dispatcher groups only runs of
// same-shape jobs: a job of the other precision arriving while a group is
// open ships solo. A seeded order would change the batch make-up, and with
// it every timing, from seed to seed.
func study(pairs []pair, rng *rand.Rand, maxIters int) ([]*servedJob, error) {
	s := randShift(rng, pairs[0].template.N)
	var jobs []*servedJob
	for i := range pairs {
		j, err := newServedJob(i, pairs[i].shifted(s), subjectPrecision(i), false, maxIters)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// runStudies runs studies for the window (at least one) and checks every
// job. It returns the studies and their elapsed times.
func runStudies(o opts, rep *report, d *daemon, pairs []pair, rng *rand.Rand, tr *tracer) ([][]*servedJob, []float64, []float64, error) {
	var studies [][]*servedJob
	var elapsed, ratios []float64
	t0 := time.Now()
	for len(studies) == 0 || time.Since(t0) < o.window {
		jobs, err := study(pairs, rng, 0)
		if err != nil {
			return nil, nil, nil, err
		}
		cpu0, err := processCPUSeconds(d.cmd.Process.Pid)
		if err != nil {
			return nil, nil, nil, err
		}
		sec, err := d.runBatch(jobs, 1, tr)
		if err != nil {
			return nil, nil, nil, err
		}
		cpu1, err := processCPUSeconds(d.cmd.Process.Pid)
		if err != nil {
			return nil, nil, nil, err
		}
		ratios = append(ratios, checkJobs(rep, jobs)...)
		var lat []string
		for _, j := range jobs {
			it := 0
			if r := j.status.Result; r != nil {
				it = r.NewtonIters
			}
			lat = append(lat, fmt.Sprintf("%d:%.2fs/%dit", j.subject, j.latencyS, it))
		}
		logf("study %d: %d jobs in %.3fs, daemon CPU %.2fs, latency/Newton iterations by subject %s",
			len(studies), len(jobs), sec, cpu1-cpu0, strings.Join(lat, " "))
		studies = append(studies, jobs)
		elapsed = append(elapsed, sec)
	}
	return studies, elapsed, ratios, nil
}

// resolve re-solves one subject of each study in this process with a
// solo diffreg.Register and requires the served result to match it bit
// for bit: serving, plan caching and fusion must not change the float
// trajectory. Study k re-solves subject 5k mod 8, so both precisions are
// covered from the second study on. It returns the heap bytes each solo
// solve allocated.
func resolve(rep *report, studies [][]*servedJob) []float64 {
	var allocs []float64
	for k, jobs := range studies {
		j := jobs[5*k%len(jobs)]
		if j.status.Result == nil {
			continue // already counted as failed
		}
		res, cost, err := solveOnce(j.p, diffreg.Config{Tasks: tasks, Precision: j.precision})
		if err != nil {
			rep.fail("study %d subject %d: solo re-solve: %v", k, j.subject, err)
			continue
		}
		if err := sameBits(j.summary(), solveSummary{
			NewtonIters: res.NewtonIters, HessianMatvecs: res.HessianMatvecs,
			MisfitInit: res.MisfitInit, MisfitFinal: res.MisfitFinal,
			DetMin: res.DetMin, DetMax: res.DetMax, DetMean: res.DetMean, Warped: res.Warped.Data,
		}); err != nil {
			rep.wrong("study %d subject %d: served result differs from the solo re-solve: %v", k, j.subject, err)
			continue
		}
		allocs = append(allocs, cost.allocBytes)
	}
	return allocs
}

func (w cohortWorkload) run(o opts, rep *report) error {
	pairs, d, setupS, err := w.setup(o)
	if err != nil {
		return err
	}
	defer d.stop()
	rng := rand.New(rand.NewSource(o.seed))
	warm, err := study(pairs, rng, warmIters)
	if err != nil {
		return err
	}
	if _, err := d.runBatch(warm, 1, nil); err != nil {
		return err
	}
	cpu0, err := processCPUSeconds(d.cmd.Process.Pid)
	if err != nil {
		return err
	}
	studies, elapsed, ratios, err := runStudies(o, rep, d, pairs, rng, nil)
	if err != nil {
		return err
	}
	cpu1, err := processCPUSeconds(d.cmd.Process.Pid)
	if err != nil {
		return err
	}
	rss, err := d.stop()
	if err != nil {
		return err
	}
	allocs := resolve(rep, studies)

	var latency []float64
	jobs := 0
	for _, s := range studies {
		for _, j := range s {
			jobs++
			latency = append(latency, j.latencyS)
		}
	}
	logf("%d jobs: %.2f jobs/min, median latency %.3f s, daemon CPU %.3f s per job",
		jobs, 60*float64(jobs)/sum(elapsed), median(latency), (cpu1-cpu0)/float64(jobs))
	// The daemon's CPU time per job over the timed studies: the serving
	// cost of one registration (HTTP, journal, fusion, solve). It follows
	// the host's load closely, which keeps this workload out of
	// BENCHMARK.json (see README.md).
	rep.set("solve_cpu_s", (cpu1-cpu0)/float64(jobs), "s")
	rep.set("setup_s", setupS, "s")
	rep.set("peak_rss_bytes", rss, "bytes")
	// The first study's re-solve is always subject 0, so the figure is
	// comparable between runs however many studies fit the window.
	first := math.NaN()
	if len(allocs) > 0 {
		first = allocs[0]
	}
	rep.set("alloc_bytes", first, "bytes")
	rep.set("misfit_ratio", mean(ratios), "ratio")
	return nil
}
