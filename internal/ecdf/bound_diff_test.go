package ecdf

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomEnvelope draws an m-sample envelope in one of four shapes: spread
// values, values on a coarse grid (ties within and across supports, and
// shifted candidates landing on support points), a grid with ±∞ samples,
// and one tied value per support.
func randomEnvelope(rng *rand.Rand, m, shape int) Envelope {
	mean := make([]float64, m)
	lower := make([]float64, m)
	upper := make([]float64, m)
	for i := range mean {
		mu, gap := rng.NormFloat64()*2, math.Abs(rng.NormFloat64())*0.4
		switch shape {
		case 1, 2:
			mu, gap = math.Round(mu*4)/4, math.Round(gap*4)/4
		case 3:
			mu, gap = 1, 0.5
		}
		if shape == 2 {
			switch rng.Intn(6) {
			case 0:
				mu = math.Inf(1)
			case 1:
				mu = math.Inf(-1)
			case 2:
				gap = math.Inf(1)
			}
		}
		mean[i], lower[i], upper[i] = mu, mu-gap, mu+gap
	}
	slices.Sort(mean)
	slices.Sort(lower)
	slices.Sort(upper)
	return Envelope{Mean: FromSorted(mean), Lower: FromSorted(lower), Upper: FromSorted(upper)}
}

// The support-only bound must return the bits of the two-stream form,
// which also visits every λ-shifted candidate, on every envelope shape,
// size and sign of λ, with one scratch reused across all of them.
func TestDiscrepancyBoundMatchesTwoStream(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var s BoundScratch
	var ref twoStreamScratch
	for m := 1; m <= 40; m++ {
		for trial := 0; trial < 60; trial++ {
			env := randomEnvelope(rng, m, trial%4)
			for _, lambda := range []float64{0, 1e-12, -0.3, 0.25, 0.5, rng.Float64() * 2, rng.ExpFloat64()} {
				got := env.DiscrepancyBoundWith(&s, lambda)
				want := env.discrepancyBoundTwoStream(&ref, lambda)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("m=%d shape=%d λ=%g: bound %v, two-stream %v", m, trial%4, lambda, got, want)
				}
			}
		}
	}
}

// DiscrepancyLambda over the merged support must return the bits of the
// b-candidate form on ties, one-point inputs and every sign of λ.
func TestDiscrepancyLambdaMatchesCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 2000; trial++ {
		xs := make([]float64, 1+rng.Intn(40))
		ys := make([]float64, 1+rng.Intn(40))
		for i := range xs {
			xs[i] = rng.NormFloat64() * 3
		}
		for i := range ys {
			ys[i] = rng.NormFloat64()*2 + rng.Float64()
		}
		if trial%2 == 1 {
			for i := range xs {
				xs[i] = math.Round(xs[i]*2) / 2
			}
			for i := range ys {
				ys[i] = math.Round(ys[i]*2) / 2
			}
		}
		f, g := New(xs), New(ys)
		for _, lambda := range []float64{0, 1e-12, -0.7, 0.5, 1, rng.Float64() * 2} {
			got, want := DiscrepancyLambda(f, g, lambda), discLambdaCandidates(f, g, lambda)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d λ=%g: %v, candidate form %v", trial, lambda, got, want)
			}
		}
	}
}

// A NaN support point gets the vacuous bound 1 wherever it sits in a
// NaN-first sorted support, and at the back of a support shifted by −∞
// (+∞ − ∞). A NaN out of sorted order cannot stall the merge.
func TestDiscrepancyBoundNaNSupport(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	base := []float64{1, 2, 3}
	withNaN := []float64{nan, 2, 3}
	envs := []Envelope{
		{Mean: New(withNaN), Lower: New(base), Upper: New(base)},
		{Mean: New(base), Lower: New(withNaN), Upper: New(base)},
		{Mean: New(base), Lower: New(base), Upper: New(withNaN)},
		{Mean: New([]float64{nan, nan}), Lower: New([]float64{nan, nan}), Upper: New([]float64{nan, nan})},
		{Mean: New([]float64{0, inf}), Lower: FromSortedShifted(make([]float64, 2), []float64{0, inf}, -inf), Upper: New([]float64{inf, inf})},
	}
	var s BoundScratch
	for i, env := range envs {
		for _, lambda := range []float64{0, 0.5, -1} {
			if got := env.DiscrepancyBoundWith(&s, lambda); got != 1 {
				t.Errorf("envelope %d, λ=%g: bound %g, want 1", i, lambda, got)
			}
		}
	}
	// The scratch a NaN call left behind serves the next envelope.
	env := randomEnvelope(rand.New(rand.NewSource(1)), 30, 0)
	if got, want := env.DiscrepancyBoundWith(&s, 0.2), env.discrepancyBoundTwoStream(&twoStreamScratch{}, 0.2); got != want {
		t.Fatalf("after NaN envelopes: bound %g, two-stream %g", got, want)
	}
	// FromSorted does not order NaN, so one can sit mid-support; the bound
	// must still return.
	mid := Envelope{Mean: FromSorted([]float64{1, nan, 2}), Lower: New(base), Upper: New(base)}
	for _, lambda := range []float64{0, 0.5} {
		mid.DiscrepancyBoundWith(&s, lambda)
	}
}
