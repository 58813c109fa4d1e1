package main

import (
	"math/rand"
	"path/filepath"
	"time"
)

// The traced runs report the per-layer metrics. Every workload measures
// the same layer set: the solver layers from an instrumented solve of one
// of its problems plus replays at the solved velocity, and the serve
// layer from the daemon. The solo workloads serve their own problem as a
// single job, then run the mixed-arrival probe on the 32³ cohort; the
// cohort workload serves its studies and runs the same probe.

func (w solveWorkload) traced(o opts, rep *report) error {
	tr := newTracer()
	tr.begin("setup.inputs")
	base, err := w.setupOnce()
	tr.end()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(o.seed))
	p := base.shifted(randShift(rng, base.template.N))
	if err := traceSolveLayers(tr, rep, layerProblem{p: p, precision: w.precision, incompressible: w.incompressible}); err != nil {
		return err
	}

	tr.begin("setup.daemon")
	d, _, err := startDaemon(o.regserve, filepath.Join(o.workDir, "daemon"), steadyWindow, servingWorkers)
	tr.end()
	if err != nil {
		return err
	}
	defer d.stop()
	job, err := newServedJob(0, p, w.precision, w.incompressible, 0)
	if err != nil {
		return err
	}
	jobs := []*servedJob{job}
	if err := serveTraced(rep, d, func() ([]*servedJob, error) {
		if _, err := d.runBatch(jobs, 1, tr); err != nil {
			return nil, err
		}
		checkJobs(rep, jobs)
		return jobs, nil
	}); err != nil {
		return err
	}
	if _, err := d.stop(); err != nil {
		return err
	}
	tr.begin("setup.cohort")
	pairs, err := cohortWorkload{n: w.cohortN}.cohort()
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("serve.mixed_arrivals")
	err = mixedArrivals(o, rep, pairs, rng)
	tr.end()
	if err != nil {
		return err
	}
	return finishTrace(tr, o)
}

func (w cohortWorkload) traced(o opts, rep *report) error {
	tr := newTracer()
	tr.begin("setup.cohort")
	pairs, d, _, err := w.setup(o)
	tr.end()
	if err != nil {
		return err
	}
	defer d.stop()
	rng := rand.New(rand.NewSource(o.seed))
	warm, err := study(pairs, rng, warmIters)
	if err != nil {
		return err
	}
	tr.begin("setup.warmup")
	_, err = d.runBatch(warm, 1, nil)
	tr.end()
	if err != nil {
		return err
	}
	var first *servedJob
	if err := serveTraced(rep, d, func() ([]*servedJob, error) {
		studies, _, _, err := runStudies(o, rep, d, pairs, rng, tr)
		if err != nil {
			return nil, err
		}
		first = studies[0][0]
		var all []*servedJob
		for _, s := range studies {
			all = append(all, s...)
		}
		return all, nil
	}); err != nil {
		return err
	}
	if _, err := d.stop(); err != nil {
		return err
	}
	tr.begin("serve.mixed_arrivals")
	err = mixedArrivals(o, rep, pairs, rng)
	tr.end()
	if err != nil {
		return err
	}
	if err := traceSolveLayers(tr, rep, layerProblem{p: first.p, precision: first.precision}); err != nil {
		return err
	}
	return finishTrace(tr, o)
}

// mixedStudies is how many studies mixedArrivals submits.
const mixedStudies = 2

// mixedArrivals measures the plan cache under timing-dependent fusion
// groups: a fresh daemon at the default batch window, fed studies in a
// seeded order over two concurrent connections, so the groups split at
// arrival-dependent points and fused entries, keyed per slot count, come
// in many widths. It reports the cache misses and evictions, cold fills
// included, and the fused batches.
func mixedArrivals(o opts, rep *report, pairs []pair, rng *rand.Rand) error {
	d, _, err := startDaemon(o.regserve, filepath.Join(o.workDir, "mixed"), defaultWindow, mixedWorkers)
	if err != nil {
		return err
	}
	defer d.stop()
	for k := 0; k < mixedStudies; k++ {
		jobs, err := study(pairs, rng, 0)
		if err != nil {
			return err
		}
		rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
		if _, err := d.runBatch(jobs, 2, nil); err != nil {
			return err
		}
		checkJobs(rep, jobs)
	}
	st, err := d.stats()
	if err != nil {
		return err
	}
	rep.set("serve.mixed.cache_misses", float64(st.Cache.Misses), "count")
	rep.set("serve.mixed.cache_evictions", float64(st.Cache.Evictions), "count")
	rep.set("serve.mixed.fused_batches", float64(st.Fusion.Batches), "count")
	logf("mixed arrivals: %d misses, %d evictions, %d fused batches over %d studies",
		st.Cache.Misses, st.Cache.Evictions, st.Fusion.Batches, mixedStudies)
	return nil
}

// serveTraced runs and checks the served jobs between two /stats
// snapshots and reports the serve.* metrics.
func serveTraced(rep *report, d *daemon, runJobs func() ([]*servedJob, error)) error {
	before, err := d.snapshot()
	if err != nil {
		return err
	}
	t0 := time.Now()
	jobs, err := runJobs()
	if err != nil {
		return err
	}
	elapsed := time.Since(t0).Seconds()
	after, err := d.snapshot()
	if err != nil {
		return err
	}
	reportServeLayer(rep, jobs, elapsed, before, after)
	logf("served %d jobs in %.3fs", len(jobs), elapsed)
	return nil
}
