package main

import (
	"math/rand"
	"runtime"
	"time"

	"diffreg"
	"diffreg/internal/grid"
	"diffreg/internal/mpi"
	"diffreg/internal/pfft"
	"diffreg/internal/prec"
	"diffreg/internal/spectral"
)

// tasks is the rank count of every solve: the benchmark is sized for a
// 2-CPU host.
const tasks = 2

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// warmIters bounds the Newton iterations of warm-up solves: one iteration
// runs every kernel and builds every plan a full solve does, at a fraction
// of its cost, so the window keeps more of the run.
const warmIters = 1

// solveWorkload is an in-process diffreg.Register on the paper's
// synthetic pair (§IV-A1) at n³ with the paper's defaults (H2, nt = 4,
// Gauss-Newton, gtol 1e-2).
type solveWorkload struct {
	n              int
	precision      string
	incompressible bool
	cohortN        int // grid of the cohort the traced run's mixed-arrival probe serves
}

func (w solveWorkload) workload() workload { return workload{run: w.run, traced: w.traced} }

func (w solveWorkload) config() diffreg.Config {
	return diffreg.Config{Tasks: tasks, Incompressible: w.incompressible, Precision: w.precision}
}

// pair is one template/reference input.
type pair struct{ template, reference diffreg.Volume }

// setupOnce makes the inputs and builds the per-rank operator sets a cold
// solve constructs before its first iteration (FFT plans, spectral symbol
// tables and workspaces at the workload's precision).
func (w solveWorkload) setupOnce() (pair, error) {
	t, r, err := diffreg.SyntheticProblem(w.n, w.n, w.n, 4, w.incompressible)
	if err != nil {
		return pair{}, err
	}
	return pair{t, r}, buildOps(t.N, w.precision)
}

func buildOps(n [3]int, precision string) error {
	pr, err := prec.Parse(precision)
	if err != nil {
		return err
	}
	g, err := grid.New(n[0], n[1], n[2])
	if err != nil {
		return err
	}
	_, err = mpi.Run(tasks, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		spectral.New(pfft.NewPlanPrec(pe, pr))
		return nil
	})
	return err
}

// timedSetup runs setupOnce after a GC and returns the inputs and its
// seconds.
func (w solveWorkload) timedSetup() (pair, float64, error) {
	var p pair
	var err error
	runtime.GC()
	sec := stopwatch(func() { p, err = w.setupOnce() })
	return p, sec, err
}

// shiftVolume rolls a volume periodically by s grid points. Both images
// of a pair are rolled alike, which gives an equivalent registration
// problem on the periodic domain: the seed picks the shifts, so inputs
// differ between seeds while the work per solve stays the same.
func shiftVolume(v diffreg.Volume, s [3]int) diffreg.Volume {
	out := diffreg.NewVolume(v.N[0], v.N[1], v.N[2])
	for i := 0; i < v.N[0]; i++ {
		for j := 0; j < v.N[1]; j++ {
			src := v.Data[(i*v.N[1]+j)*v.N[2] : (i*v.N[1]+j+1)*v.N[2]]
			di, dj := (i+s[0])%v.N[0], (j+s[1])%v.N[1]
			dst := out.Data[(di*v.N[1]+dj)*v.N[2] : (di*v.N[1]+dj+1)*v.N[2]]
			k := s[2] % v.N[2]
			copy(dst[k:], src[:v.N[2]-k])
			copy(dst[:k], src[v.N[2]-k:])
		}
	}
	return out
}

func randShift(rng *rand.Rand, n [3]int) [3]int {
	return [3]int{rng.Intn(n[0]), rng.Intn(n[1]), rng.Intn(n[2])}
}

func (p pair) shifted(s [3]int) pair {
	return pair{shiftVolume(p.template, s), shiftVolume(p.reference, s)}
}

// solveCost is what one Register call cost.
type solveCost struct {
	wallS      float64 // wall-clock seconds
	cpuS       float64 // user+system CPU seconds of this process, all ranks
	allocBytes float64 // heap bytes allocated
}

// solveOnce runs one Register call and measures its cost.
func solveOnce(p pair, cfg diffreg.Config) (res *diffreg.Result, cost solveCost, err error) {
	runtime.GC()
	h0, cpu0 := readHeap(), cpuSeconds()
	cost.wallS = stopwatch(func() { res, err = diffreg.Register(p.template, p.reference, cfg) })
	h1, cpu1 := readHeap(), cpuSeconds()
	cost.cpuS = cpu1 - cpu0
	cost.allocBytes = float64(h1.totalAlloc - h0.totalAlloc)
	return res, cost, err
}

// outcomeOf is the checker's view of an in-process result.
func outcomeOf(p pair, res *diffreg.Result, isochoric, narrow bool) outcome {
	return outcome{
		N: p.template.N, Template: p.template.Data, Reference: p.reference.Data,
		Warped: res.Warped.Data, Det: res.DetGrad.Data,
		MisfitInit: res.MisfitInit, MisfitFinal: res.MisfitFinal, DetMin: res.DetMin,
		Isochoric: isochoric, Narrow: narrow,
	}
}

// run repeats Register on seed-shifted copies of the pair for the
// window after one warm-up solve, checking every result.
//
// solve_cpu_s is the median CPU time of one solve, summed over the ranks.
// The host lends its CPUs to other tenants for seconds at a time, which
// stretches a solve's wall time but not its CPU time; the wall times go
// to the log, and the traced run reports one.
//
// setup_s is the median of setupReps set-ups. The first makes the inputs;
// the others run between the timed solves, so the figure samples the
// host over the whole run rather than over its first seconds.
func (w solveWorkload) run(o opts, rep *report) error {
	base, sec, err := w.timedSetup()
	if err != nil {
		return err
	}
	setups := []float64{sec}
	moreSetup := func() error {
		_, sec, err := w.timedSetup()
		setups = append(setups, sec)
		return err
	}
	rng := rand.New(rand.NewSource(o.seed))
	cfg := w.config()
	warm := cfg
	warm.MaxNewtonIters = warmIters
	if _, _, err := solveOnce(base.shifted(randShift(rng, base.template.N)), warm); err != nil {
		return err
	}
	var walls, cpus, allocs, ratios []float64
	t0 := time.Now()
	for rep.Attempted == 0 || time.Since(t0) < o.window {
		p := base.shifted(randShift(rng, base.template.N))
		res, cost, err := solveOnce(p, cfg)
		rep.Attempted++
		if err != nil {
			rep.fail("solve %d: %v", rep.Attempted, err)
			continue
		}
		ratio, err := outcomeOf(p, res, w.incompressible, w.precision == "float32").verify(defaultLimits)
		if err != nil {
			rep.wrong("solve %d: %v", rep.Attempted, err)
			continue
		}
		logf("solve %d: %.3fs wall, %.3fs CPU, %d Newton iterations, misfit ratio %.6f (reported %.6f)",
			rep.Attempted, cost.wallS, cost.cpuS, res.NewtonIters, ratio, res.MisfitFinal/res.MisfitInit)
		walls = append(walls, cost.wallS)
		cpus = append(cpus, cost.cpuS)
		allocs = append(allocs, cost.allocBytes)
		ratios = append(ratios, ratio)
		if len(setups) < setupReps {
			if err := moreSetup(); err != nil {
				return err
			}
			// The window measures solves; set-ups extend it.
			t0 = t0.Add(time.Duration(setups[len(setups)-1] * float64(time.Second)))
		}
	}
	for len(setups) < setupReps {
		if err := moreSetup(); err != nil {
			return err
		}
	}
	logf("set-up times %.3f s; median solve %.3f s wall, %.3f s CPU", setups, median(walls), median(cpus))
	rep.set("solve_cpu_s", median(cpus), "s")
	rep.set("setup_s", median(setups), "s")
	rep.set("peak_rss_bytes", peakRSSBytes(), "bytes")
	rep.set("alloc_bytes", median(allocs), "bytes")
	rep.set("misfit_ratio", median(ratios), "ratio")
	return nil
}
