package main

import (
	"fmt"
	"math"
)

// outcome is what the checker needs about one registration: the inputs
// the benchmark made and what the program returned for them. The checks
// recompute quantities from the volumes or test properties the method
// must have; none compares against a stored copy of earlier output.
type outcome struct {
	N                   [3]int
	Template, Reference []float64
	// Warped is the returned deformed template rho_T(y1).
	Warped []float64
	// Det is the returned pointwise det(grad y1); nil when the program
	// does not return the field (served jobs report only its summary).
	Det                     []float64
	MisfitInit, MisfitFinal float64
	DetMin                  float64
	// Isochoric asks for |det(grad y1) - 1| <= limits.DetTol everywhere.
	Isochoric bool
	// Narrow marks a float32 hot-path solve: its initial state is the
	// template rounded to float32 by the interpolation, so MisfitInit may
	// differ from the input misfit by that rounding.
	Narrow bool
}

// limits are the acceptance thresholds of the checks.
type limits struct {
	// MaxRatio is the misfit reduction every workload must reach:
	// misfit_ratio < MaxRatio, a clear margin below 1.
	MaxRatio float64
	// FinalTol bounds the relative gap between the reported final misfit
	// (from the transported state rho(1)) and the misfit of the returned
	// warped image (the template resampled through the map). The two are
	// different discretizations of one quantity, so they agree closely
	// but not exactly.
	FinalTol float64
	// DetTol is the isochoric bound on |det(grad y1) - 1|.
	DetTol float64
}

// defaultLimits are the thresholds every workload uses.
var defaultLimits = limits{MaxRatio: 0.9, FinalTol: 0.02, DetTol: 0.01}

// initTol is the relative tolerance of the recomputed initial misfit:
// the same sum in another order, so it differs only by rounding.
const initTol = 1e-10

// float32Unit is the unit roundoff of float32 (round to nearest).
const float32Unit = 1.0 / (1 << 24)

// initBound is how far the reported initial misfit may lie from the one
// recomputed from the inputs. On the float32 path every template sample
// carries a relative rounding error of at most u = 2^-24, which moves
// 1/2||t - r||^2 by at most u||t - r|| ||t|| + u^2 ||t||^2/2 (Cauchy-Schwarz),
// times the cell volume.
func (o outcome) initBound(init float64) float64 {
	bound := initTol * init
	if o.Narrow {
		nt, nd := 0.0, 0.0
		for i, t := range o.Template {
			nt += t * t
			d := t - o.Reference[i]
			nd += d * d
		}
		cell := cellVolume(o.N)
		bound += cell * (float32Unit*math.Sqrt(nd*nt) + float32Unit*float32Unit*nt/2)
	}
	return bound
}

func cellVolume(n [3]int) float64 {
	cell := 1.0
	for d := 0; d < 3; d++ {
		cell *= 2 * math.Pi / float64(n[d])
	}
	return cell
}

// halfSqDist is 1/2 ||a - b||^2 with the quadrature of the periodic grid
// [0, 2*pi)^3 (cell volume h1*h2*h3), the program's misfit functional.
func halfSqDist(a, b []float64, n [3]int) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return 0.5 * s * cellVolume(n)
}

// verify runs the output checks and returns the misfit ratio recomputed
// from the volumes: 1/2||warped - reference||^2 / 1/2||template - reference||^2.
func (o outcome) verify(lim limits) (float64, error) {
	total := o.N[0] * o.N[1] * o.N[2]
	if len(o.Template) != total || len(o.Reference) != total || len(o.Warped) != total {
		return 0, fmt.Errorf("volume sizes %d/%d/%d do not match the grid %v (%d samples)",
			len(o.Template), len(o.Reference), len(o.Warped), o.N, total)
	}
	init := halfSqDist(o.Template, o.Reference, o.N)
	if !(math.Abs(init-o.MisfitInit) <= o.initBound(init)) {
		return 0, fmt.Errorf("initial misfit %.17g recomputed from the inputs differs from the reported %.17g", init, o.MisfitInit)
	}
	final := halfSqDist(o.Warped, o.Reference, o.N)
	if math.IsNaN(final) || math.IsInf(final, 0) {
		return 0, fmt.Errorf("the warped image is not finite")
	}
	if !(math.Abs(final-o.MisfitFinal) <= lim.FinalTol*o.MisfitFinal) {
		return 0, fmt.Errorf("misfit %.6g of the returned warped image does not match the reported final misfit %.6g (tolerance %g)",
			final, o.MisfitFinal, lim.FinalTol)
	}
	ratio := final / init
	if !(ratio < lim.MaxRatio) {
		return ratio, fmt.Errorf("misfit ratio %.4f is not below %g", ratio, lim.MaxRatio)
	}
	if !(o.DetMin > 0) {
		return ratio, fmt.Errorf("det_min = %g: the map is not a diffeomorphism", o.DetMin)
	}
	if o.Det != nil {
		if len(o.Det) != total {
			return ratio, fmt.Errorf("det field has %d samples, want %d", len(o.Det), total)
		}
		lo, dev := math.Inf(1), 0.0
		for _, d := range o.Det {
			lo = math.Min(lo, d)
			dev = math.Max(dev, math.Abs(d-1))
			if math.IsNaN(d) {
				return ratio, fmt.Errorf("det field holds NaN")
			}
		}
		if lo != o.DetMin {
			return ratio, fmt.Errorf("min of the returned det field %.17g differs from the reported det_min %.17g", lo, o.DetMin)
		}
		if o.Isochoric && !(dev <= lim.DetTol) {
			return ratio, fmt.Errorf("max |det(grad y) - 1| = %.3g exceeds %g on an incompressible solve", dev, lim.DetTol)
		}
	}
	return ratio, nil
}

// solveSummary is the part of a registration result that must not depend
// on how the solve was run: served or in-process, fused or solo.
type solveSummary struct {
	NewtonIters, HessianMatvecs int
	MisfitInit, MisfitFinal     float64
	DetMin, DetMax, DetMean     float64
	Warped                      []float64
}

// sameBits requires two summaries to agree bit for bit.
func sameBits(served, solo solveSummary) error {
	if served.NewtonIters != solo.NewtonIters || served.HessianMatvecs != solo.HessianMatvecs {
		return fmt.Errorf("iteration counts differ: served %d/%d, solo %d/%d",
			served.NewtonIters, served.HessianMatvecs, solo.NewtonIters, solo.HessianMatvecs)
	}
	pairs := []struct {
		name string
		a, b float64
	}{
		{"misfit_init", served.MisfitInit, solo.MisfitInit},
		{"misfit_final", served.MisfitFinal, solo.MisfitFinal},
		{"det_min", served.DetMin, solo.DetMin},
		{"det_max", served.DetMax, solo.DetMax},
		{"det_mean", served.DetMean, solo.DetMean},
	}
	for _, p := range pairs {
		if math.Float64bits(p.a) != math.Float64bits(p.b) {
			return fmt.Errorf("%s differs: served %.17g, solo %.17g", p.name, p.a, p.b)
		}
	}
	if len(served.Warped) != len(solo.Warped) {
		return fmt.Errorf("warped sizes differ: %d vs %d", len(served.Warped), len(solo.Warped))
	}
	for i := range served.Warped {
		if math.Float64bits(served.Warped[i]) != math.Float64bits(solo.Warped[i]) {
			return fmt.Errorf("warped voxel %d differs: served %.17g, solo %.17g", i, served.Warped[i], solo.Warped[i])
		}
	}
	return nil
}
