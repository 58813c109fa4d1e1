package main

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// fakeOutcome is a self-consistent outcome on an n³ grid: random images,
// a warped image a tenth of the way from the reference to the template,
// and a det field near 1.
func fakeOutcome(n int) outcome {
	rng := rand.New(rand.NewSource(1))
	total := n * n * n
	t, r, w, det := make([]float64, total), make([]float64, total), make([]float64, total), make([]float64, total)
	for i := range t {
		t[i], r[i] = rng.Float64(), rng.Float64()
		w[i] = r[i] + 0.1*(t[i]-r[i])
		det[i] = 1 + 0.005*(2*rng.Float64()-1)
	}
	o := outcome{N: [3]int{n, n, n}, Template: t, Reference: r, Warped: w, Det: det}
	o.MisfitInit = halfSqDist(t, r, o.N)
	o.MisfitFinal = halfSqDist(w, r, o.N)
	o.DetMin = math.Inf(1)
	for _, d := range det {
		o.DetMin = math.Min(o.DetMin, d)
	}
	return o
}

// clone deep-copies the slices a corruption may touch.
func (o outcome) clone() outcome {
	o.Warped = append([]float64(nil), o.Warped...)
	o.Det = append([]float64(nil), o.Det...)
	return o
}

// flipBlock replaces a b³ block of voxels by 1 - value.
func flipBlock(vals []float64, n [3]int, b int) {
	for i := 0; i < b; i++ {
		for j := 0; j < b; j++ {
			for k := 0; k < b; k++ {
				idx := (i*n[1]+j)*n[2] + k
				vals[idx] = 1 - vals[idx]
			}
		}
	}
}

func TestCheckerAcceptsConsistentOutcome(t *testing.T) {
	o := fakeOutcome(16)
	o.Isochoric = true
	ratio, err := o.verify(defaultLimits)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ratio-0.01) > 1e-12 {
		t.Fatalf("misfit ratio = %v, want 0.01", ratio)
	}
}

func TestCheckerRejectsCorruptions(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(o *outcome)
		want    string
	}{
		{"flipped voxel block in the warped image", func(o *outcome) { flipBlock(o.Warped, o.N, 4) }, "does not match the reported final misfit"},
		{"negative det", func(o *outcome) { o.Det[100] = -0.5; o.DetMin = -0.5 }, "not a diffeomorphism"},
		{"det field below the reported det_min", func(o *outcome) { o.Det[7] = 0.2 }, "differs from the reported det_min"},
		{"initial misfit that does not match the inputs", func(o *outcome) { o.MisfitInit *= 1 + 1e-6 }, "recomputed from the inputs"},
		{"final misfit that does not match the warped image", func(o *outcome) { o.MisfitFinal *= 1.1 }, "does not match the reported final misfit"},
		{"no misfit reduction", func(o *outcome) {
			copy(o.Warped, o.Template)
			o.MisfitFinal = o.MisfitInit
		}, "not below"},
		{"non-isochoric map on an incompressible solve", func(o *outcome) {
			o.Isochoric = true
			o.Det[42] = 1.2
		}, "exceeds"},
		{"non-finite warped image", func(o *outcome) { o.Warped[3] = math.NaN() }, "not finite"},
		{"truncated warped image", func(o *outcome) { o.Warped = o.Warped[:10] }, "do not match the grid"},
	}
	base := fakeOutcome(16)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := base.clone()
			c.corrupt(&o)
			_, err := o.verify(defaultLimits)
			if err == nil {
				t.Fatal("corrupted outcome accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("rejected for the wrong reason: %v (want %q)", err, c.want)
			}
		})
	}
}

// TestNarrowInitBound: the float32 allowance admits exactly the rounding
// of the template to float32 and nothing near the size of a real fault.
func TestNarrowInitBound(t *testing.T) {
	o := fakeOutcome(16)
	rounded := make([]float64, len(o.Template))
	for i, v := range o.Template {
		rounded[i] = float64(float32(v))
	}
	o.MisfitInit = halfSqDist(rounded, o.Reference, o.N)
	if _, err := o.verify(defaultLimits); err == nil {
		t.Fatal("float64 check accepted a float32-rounded initial misfit")
	}
	o.Narrow = true
	if _, err := o.verify(defaultLimits); err != nil {
		t.Fatalf("float32 check rejected the rounding it must allow: %v", err)
	}
	o.MisfitInit *= 1 + 1e-5
	if _, err := o.verify(defaultLimits); err == nil {
		t.Fatal("float32 check accepted an initial misfit off by 1e-5")
	}
}

func TestSameBitsRejectsOneULP(t *testing.T) {
	base := solveSummary{
		NewtonIters: 5, HessianMatvecs: 19, MisfitInit: 0.1, MisfitFinal: 0.05,
		DetMin: 0.9, DetMax: 1.1, DetMean: 1, Warped: []float64{0.25, 0.5, 0.75},
	}
	same := base
	same.Warped = append([]float64(nil), base.Warped...)
	if err := sameBits(base, same); err != nil {
		t.Fatal(err)
	}
	corrupt := []func(s *solveSummary){
		func(s *solveSummary) { s.MisfitFinal = math.Nextafter(s.MisfitFinal, 1) },
		func(s *solveSummary) { s.DetMin = math.Nextafter(s.DetMin, 0) },
		func(s *solveSummary) { s.Warped[1] = math.Nextafter(s.Warped[1], 1) },
		func(s *solveSummary) { s.HessianMatvecs++ },
	}
	for i, c := range corrupt {
		s := base
		s.Warped = append([]float64(nil), base.Warped...)
		c(&s)
		if sameBits(base, s) == nil {
			t.Errorf("corruption %d accepted", i)
		}
	}
}

func TestShiftVolumeIsAPeriodicRoll(t *testing.T) {
	o := fakeOutcome(8)
	v := pair{}.template
	v.N, v.Data = o.N, o.Template
	s := [3]int{3, 7, 5}
	got := shiftVolume(v, s)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			for k := 0; k < 8; k++ {
				if got.At((i+s[0])%8, (j+s[1])%8, (k+s[2])%8) != v.At(i, j, k) {
					t.Fatalf("voxel (%d,%d,%d) not rolled by %v", i, j, k, s)
				}
			}
		}
	}
}
