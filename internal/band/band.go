// Package band computes simultaneous confidence bands for Gaussian process
// posteriors (paper §4.2, following Adler's random-field tools [3]).
//
// A pointwise band f̂(x) ± z·σ(x) with z = Φ⁻¹(1−α/2) holds at each x
// individually, but the paper needs the *simultaneous* statement
//
//	Pr[ f̂(x) − z_α σ(x) ≤ f̃(x) ≤ f̂(x) + z_α σ(x) for all x ∈ X ] ≥ 1 − α.
//
// Writing Z(x) = (f̃(x) − f̂(x))/σ(x), the failure probability is
// Pr[sup_X |Z| ≥ z], which Adler's expected-Euler-characteristic heuristic
// approximates for a smooth unit-variance field on a d-dimensional box by
//
//	Pr[sup_X Z ≥ z] ≈ E[φ(A_z)] = Σ_{j=0..d} L_j ρ_j(z)
//
// where ρ_0(z) = 1 − Φ(z), ρ_j(z) = (2π)^{-(j+1)/2} He_{j−1}(z) e^{−z²/2}
// (He = probabilists' Hermite polynomials), and the Lipschitz–Killing
// curvatures of a box with side lengths s_i under a stationary field with
// second spectral moment λ₂ are
//
//	L_j = λ₂^{j/2} · Σ_{|J|=j} Π_{i∈J} s_i.
//
// ZAlphaForKernel solves E[φ(A_z)] = α/2 per tail by bisection and never
// returns less than the pointwise quantile. For the GP posterior the
// standardized error field is not exactly stationary; λ₂ is taken from the
// prior kernel, the standard practice for this approximation, and coverage
// is validated empirically in the tests.
package band

import (
	"math"

	"olgapro/internal/dist"
	"olgapro/internal/kernel"
)

// hermite returns the probabilists' Hermite polynomial He_n(z) via the
// recurrence He_{n+1} = z·He_n − n·He_{n−1}.
func hermite(n int, z float64) float64 {
	if n < 0 {
		// He_{-1} is conventionally √(2π) e^{z²/2} (1−Φ(z)); only ρ_0 uses
		// it, and ρ_0 is special-cased, so this is unreachable.
		panic("band: hermite of negative order")
	}
	h0, h1 := 1.0, z
	if n == 0 {
		return h0
	}
	for i := 1; i < n; i++ {
		h0, h1 = h1, z*h1-float64(i)*h0
	}
	return h1
}

// inlineDim is the largest box dimension whose ZAlphaForKernel scratch
// (sides, curvatures and constants) lives on the stack; the catalog's UDFs
// have at most four inputs.
const inlineDim = 4

// ecTerms lays the curvatures and constants of the box out in buf (at
// least 2(d+1) long): l[j] = L_j = λ₂^{j/2} e_j(s), with e_j the
// elementary symmetric polynomial of the sides, and c[j] = (2π)^{−(j+1)/2}
// for j ≥ 1 (c[0] is unused). None of it depends on z, so the bisection
// computes it once.
func ecTerms(buf, sides []float64, lambda2 float64) (l, c []float64) {
	d := len(sides)
	l, c = buf[:d+1], buf[d+1:2*d+2]
	// Elementary symmetric polynomials via the product recurrence.
	l[0] = 1
	for j := 1; j <= d; j++ {
		l[j] = 0
	}
	for _, s := range sides {
		for j := d; j >= 1; j-- {
			l[j] += l[j-1] * s
		}
	}
	sq := math.Sqrt(math.Max(0, lambda2))
	scale := 1.0
	for j := 1; j <= d; j++ {
		scale *= sq
		l[j] *= scale
		c[j] = math.Pow(2*math.Pi, -float64(j+1)/2)
	}
	return l, c
}

// upcross returns Σ_j L_j ρ_j(z) for the terms of ecTerms, with
// ρ_0(z) = 1 − Φ(z) and ρ_j(z) = c_j · He_{j−1}(z) · e^{−z²/2}: the density
// factors are multiplied in that order, and e^{−z²/2} is computed once
// for all j.
func upcross(l, c []float64, z float64) float64 {
	p := l[0] * (1 - dist.Normal{Mu: 0, Sigma: 1}.CDF(z))
	if len(l) == 1 {
		return p
	}
	e := math.Exp(-z * z / 2)
	for j := 1; j < len(l); j++ {
		p += l[j] * (c[j] * hermite(j-1, z) * e)
	}
	return p
}

// zAlpha returns the half-width multiplier z_α such that the band
// f̂ ± z_α σ contains the whole function with probability ≈ 1−α on the box
// with the given side lengths, using buf (at least 2(d+1) long) as the
// scratch of ecTerms. It is always at least the pointwise two-sided
// quantile Φ⁻¹(1−α/2).
func zAlpha(alpha float64, sides []float64, lambda2 float64, buf []float64) float64 {
	if alpha <= 0 {
		return math.Inf(1)
	}
	if alpha >= 1 {
		return 0
	}
	pointwise := dist.StdNormalQuantile(1 - alpha/2)
	// Two-sided: each tail gets α/2.
	target := alpha / 2
	l, c := ecTerms(buf, sides, lambda2)
	f := func(z float64) float64 { return upcross(l, c, z) - target }
	lo, hi := pointwise, pointwise+1
	if f(lo) <= 0 {
		return pointwise
	}
	for f(hi) > 0 && hi < 60 {
		hi += 2
	}
	for i := 0; i < 200 && hi-lo > 1e-10; i++ {
		mid := (lo + hi) / 2
		if f(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// ZAlphaForKernel is the convenience used by OLGAPRO: it reads the second
// spectral moment from the kernel and the box sides from the sample
// bounding box. For d ≤ inlineDim it allocates nothing.
func ZAlphaForKernel(alpha float64, k kernel.Kernel, lo, hi []float64) float64 {
	d := len(lo)
	var inline [3*inlineDim + 2]float64
	buf := inline[:]
	if n := 3*d + 2; n > len(buf) {
		buf = make([]float64, n)
	}
	sides := buf[:d]
	for i := range sides {
		sides[i] = hi[i] - lo[i]
		if sides[i] < 0 {
			sides[i] = 0
		}
	}
	return zAlpha(alpha, sides, k.SecondSpectralMoment(), buf[d:])
}
