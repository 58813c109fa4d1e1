package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"diffreg"
	"diffreg/internal/core"
	"diffreg/internal/field"
	"diffreg/internal/grid"
	"diffreg/internal/mpi"
	"diffreg/internal/optim"
	"diffreg/internal/pfft"
	"diffreg/internal/prec"
	"diffreg/internal/regopt"
	"diffreg/internal/semilag"
	"diffreg/internal/transport"
)

// replayReps is how many times the traced run replays each layer call;
// the per-layer times are medians.
const replayReps = 3

// layerProblem is a solve the traced run instruments: the inputs and the
// configuration diffreg.Register would run them with.
type layerProblem struct {
	p              pair
	precision      string
	incompressible bool
}

func (lp layerProblem) config() diffreg.Config {
	return diffreg.Config{Tasks: tasks, Precision: lp.precision, Incompressible: lp.incompressible}
}

// coreConfig is the core.Config diffreg.Register builds for the paper's
// defaults (H2, beta 1e-2, nt = 4, Gauss-Newton, gtol 1e-2).
func (lp layerProblem) coreConfig(pr prec.Precision) core.Config {
	cfg := core.Config{
		Precision: pr,
		Intervals: 1,
		Opt: regopt.Options{
			Beta: 1e-2, Reg: regopt.RegH2, Incompressible: lp.incompressible,
			Nt: 4, GaussNewton: true,
		},
		Newton: optim.DefaultNewtonOptions(),
	}
	cfg.Newton.GradTol = 1e-2
	cfg.Newton.MaxIters = 50
	return cfg
}

// traceSolveLayers runs one plain diffreg.Register and one instrumented
// solve of the same problem, then replays each layer's public calls at
// the solved velocity, and sets the solver-side per-layer metrics.
//
// The instrumented solve is core.Register inside the benchmark's own
// mpi.RunWith world — the path diffreg.Register takes — so the world's
// mpi.Stats, the phase breakdown and the work counts are available. Its
// final misfit must equal the plain solve's bit for bit, which shows the
// instrumentation did not change the solve.
func traceSolveLayers(tr *tracer, rep *report, lp layerProblem) error {
	pr, err := prec.Parse(lp.precision)
	if err != nil {
		return err
	}
	g, err := grid.New(lp.p.template.N[0], lp.p.template.N[1], lp.p.template.N[2])
	if err != nil {
		return err
	}

	tr.begin("solve.plain")
	plain, plainCost, err := solveOnce(lp.p, lp.config())
	tr.end()
	rep.Attempted++
	if err != nil {
		rep.fail("plain solve: %v", err)
		return nil
	}
	if _, err := outcomeOf(lp.p, plain, lp.incompressible, lp.precision == "float32").verify(defaultLimits); err != nil {
		rep.wrong("plain solve: %v", err)
	}

	var (
		out          *core.Outcome
		before       = make([]mpi.Stats, tasks)
		after        = make([]mpi.Stats, tasks)
		tracedS      float64
		h0, h1       heapCounters
		cpu0, cpu1   float64
		pb0, pb1     int64
		ag0, ag1     int64
		replay       = map[string][]float64{}
		allocs       = map[string][]float64{}
		interpPoints float64
	)
	// timed runs fn on every rank between barriers; rank 0 records the
	// span and the seconds, and optionally the heap bytes allocated.
	timed := func(c *mpi.Comm, name string, withAlloc bool, fn func()) {
		c.Barrier()
		var m0 heapCounters
		if withAlloc && c.Rank() == 0 {
			m0 = readHeap()
		}
		c.Barrier()
		t0 := time.Now()
		fn()
		c.Barrier()
		t1 := time.Now()
		if c.Rank() == 0 {
			tr.add(name, t0, t1)
			replay[name] = append(replay[name], t1.Sub(t0).Seconds())
			if withAlloc {
				allocs[name] = append(allocs[name], float64(readHeap().totalAlloc-m0.totalAlloc))
			}
		}
	}

	depth := len(tr.stack)
	tr.begin("solve.traced")
	_, err = mpi.RunWith(tasks, mpi.RunOpts{Cost: mpi.DefaultCostModel()}, func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		rhoT, rhoR := field.NewScalar(pe), field.NewScalar(pe)
		var tData, rData []float64
		if c.Rank() == 0 {
			tData, rData = lp.p.template.Data, lp.p.reference.Data
		}
		rhoT.Scatter(tData)
		rhoR.Scatter(rData)
		cfg := lp.coreConfig(pr)
		if c.Rank() == 0 {
			last := time.Now()
			cfg.OnProgress = func(ev core.ProgressEvent) {
				if ev.Kind == "iteration" {
					now := time.Now()
					tr.add("optim.newton_iter", last, now)
					last = now
				}
			}
		}
		c.Barrier()
		if c.Rank() == 0 {
			h0, cpu0, pb0, ag0 = readHeap(), cpuSeconds(), pfft.PlanBuilds(), pfft.ArenaGrows()
		}
		before[c.Rank()] = *c.Stats()
		c.Barrier()
		t0 := time.Now()
		o, err := core.Register(pe, rhoT, rhoR, cfg)
		if err != nil {
			return err
		}
		c.Barrier()
		after[c.Rank()] = *c.Stats()
		if c.Rank() == 0 {
			tracedS = time.Since(t0).Seconds()
			h1, cpu1, pb1, ag1 = readHeap(), cpuSeconds(), pfft.PlanBuilds(), pfft.ArenaGrows()
			out = o
			tr.end() // solve.traced
			tr.begin("replay")
		}

		// Replays at the solved velocity, on the solve's own operator set.
		v, ops := o.V, o.Ops
		prob, err := regopt.New(ops, rhoT, rhoR, cfg.Opt)
		if err != nil {
			return err
		}
		var e *regopt.Eval
		for r := 0; r < replayReps; r++ {
			vc := v.Clone() // a fresh object each time: no evaluation cache hit
			timed(c, "regopt.evaluate", false, func() { prob.Evaluate(vc) })
			vc = v.Clone()
			timed(c, "regopt.eval_gradient", false, func() { e = prob.EvalGradient(vc) })
			timed(c, "regopt.hess_matvec", false, func() { prob.HessMatVec(e, e.G) })
			timed(c, "regopt.apply_prec", false, func() { prob.ApplyPrec(e.G) })
		}

		ts := prob.TS
		var ctx *transport.Context
		for r := 0; r < replayReps; r++ {
			timed(c, "transport.new_context", true, func() { ctx = ts.NewContext(v, lp.incompressible) })
		}
		states := ts.State(ctx, rhoT)
		lamT := rhoR.Clone()
		rho1 := field.NewScalar(pe)
		copy(rho1.Data, states[len(states)-1])
		lamT.Axpy(-1, rho1)
		gradRho := ts.GradSlices(states)
		for r := 0; r < replayReps; r++ {
			timed(c, "transport.state", false, func() { ts.State(ctx, rhoT) })
			timed(c, "transport.adjoint", false, func() { ts.Adjoint(ctx, lamT) })
			timed(c, "transport.inc_state", false, func() { ts.IncState(ctx, gradRho, e.G) })
		}

		pts := semilag.DeparturePrec(pe, v, ts.Dt(), pr)
		var plan *semilag.Plan
		for r := 0; r < replayReps; r++ {
			timed(c, "semilag.plan_build", true, func() { plan = semilag.NewPlanPrec(pe, pts, pr) })
			timed(c, "semilag.interp", false, func() { plan.InterpMany(v.C[0].Data, v.C[1].Data, v.C[2].Data) })
		}
		nq := c.AllreduceSum(float64(plan.NQ))
		if c.Rank() == 0 {
			interpPoints = 3 * nq
		}

		spec := make([]complex128, ops.Plan.SpecLocalTotal())
		dst := make([]float64, pe.LocalTotal())
		for r := 0; r < replayReps; r++ {
			timed(c, "pfft.forward3", false, func() { must(ops.Plan.ForwardInto(rhoT.Data, spec)) })
			timed(c, "pfft.inverse3", false, func() { must(ops.Plan.InverseInto(spec, dst)) })
			timed(c, "spectral.leray", false, func() { ops.Leray(e.G) })
			timed(c, "spectral.biharm_inv", false, func() { ops.InvBiharm(e.G) })
		}
		if c.Rank() == 0 {
			tr.end() // replay
		}
		return nil
	})
	if err != nil {
		// The world aborted; close whatever span rank 0 left open.
		for len(tr.stack) > depth {
			tr.end()
		}
		rep.Attempted++
		rep.fail("traced solve: %v", err)
		return nil
	}
	rep.Attempted++
	if math.Float64bits(out.MisfitFinal) != math.Float64bits(plain.MisfitFinal) || out.Counts.NewtonIters != plain.NewtonIters {
		rep.wrong("traced solve diverged from diffreg.Register: misfit %.17g vs %.17g, %d vs %d iterations",
			out.MisfitFinal, plain.MisfitFinal, out.Counts.NewtonIters, plain.NewtonIters)
	}

	ph := out.Phases
	rep.set("core.fft_exec_s", ph.FFTExec, "s")
	rep.set("core.interp_exec_s", ph.InterpExec, "s")
	rep.set("core.unattributed_s", ph.TimeToSolution-ph.FFTExec-ph.InterpExec, "s")
	rep.set("core.pool_speedup", ph.PoolSpeedup, "ratio")

	pcg := 0
	for _, h := range out.Result.History {
		pcg += h.CGIters
	}
	rep.set("optim.newton_iters", float64(out.Counts.NewtonIters), "count")
	rep.set("optim.hessian_matvecs", float64(out.Counts.Matvecs), "count")
	rep.set("optim.pcg_iters", float64(pcg), "count")

	for _, name := range []string{
		"regopt.evaluate", "regopt.eval_gradient", "regopt.hess_matvec", "regopt.apply_prec",
		"transport.new_context", "transport.state", "transport.adjoint", "transport.inc_state",
		"semilag.plan_build", "semilag.interp", "pfft.forward3", "pfft.inverse3",
		"spectral.leray", "spectral.biharm_inv",
	} {
		rep.set(name+"_s", median(replay[name]), "s")
	}
	rep.set("transport.new_context_alloc_bytes", median(allocs["transport.new_context"]), "bytes")
	rep.set("semilag.plan_alloc_bytes", median(allocs["semilag.plan_build"]), "bytes")
	rep.set("semilag.interp_points_per_s", interpPoints/median(replay["semilag.interp"]), "1/s")
	rep.set("pfft.plan_builds", float64(pb1-pb0), "count")
	rep.set("pfft.arena_grows", float64(ag1-ag0), "count")

	var fftMsgs, fftBytes, interpMsgs, interpBytes, alltoalls float64
	for r := range before {
		fftMsgs += float64(after[r].Messages[mpi.PhaseFFTComm] - before[r].Messages[mpi.PhaseFFTComm])
		fftBytes += float64(after[r].BytesRecv[mpi.PhaseFFTComm] - before[r].BytesRecv[mpi.PhaseFFTComm])
		interpMsgs += float64(after[r].Messages[mpi.PhaseInterpComm] - before[r].Messages[mpi.PhaseInterpComm])
		interpBytes += float64(after[r].BytesRecv[mpi.PhaseInterpComm] - before[r].BytesRecv[mpi.PhaseInterpComm])
		alltoalls += float64(after[r].Alltoalls - before[r].Alltoalls)
	}
	rep.set("mpi.fft_msgs", fftMsgs, "count")
	rep.set("mpi.fft_bytes", fftBytes, "bytes")
	rep.set("mpi.interp_msgs", interpMsgs, "count")
	rep.set("mpi.interp_bytes", interpBytes, "bytes")
	rep.set("mpi.alltoalls", alltoalls, "count")

	rep.set("runtime.gc_cycles", float64(h1.numGC-h0.numGC), "count")
	rep.set("runtime.gc_pause_s", float64(h1.pauseNs-h0.pauseNs)*1e-9, "s")
	rep.set("process.cpu_s", cpu1-cpu0, "s")
	rep.set("trace.solve_s", tracedS, "s")
	rep.set("trace.overhead_s", tracedS-plainCost.wallS, "s")
	logf("plain solve %.3fs, traced solve %.3fs (%d iterations)", plainCost.wallS, tracedS, out.Counts.NewtonIters)
	return nil
}

func must(err error) {
	if err != nil {
		mpi.Raise(err)
	}
}

// finishTrace writes the trace file and prints the self-time table.
func finishTrace(tr *tracer, o opts) error {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := tr.writeChrome(path); err != nil {
		return err
	}
	abs, _ := filepath.Abs(path)
	logf("trace written to %s", abs)
	tr.printSelfTimes(os.Stderr)
	return nil
}
