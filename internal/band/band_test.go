package band

import (
	"math"
	"math/rand"
	"testing"

	"olgapro/internal/dist"
	"olgapro/internal/gp"
	"olgapro/internal/kernel"
)

func TestHermite(t *testing.T) {
	cases := []struct {
		n    int
		z    float64
		want float64
	}{
		{0, 1.7, 1},
		{1, 1.7, 1.7},
		{2, 2, 3},  // z²−1
		{3, 2, 2},  // z³−3z
		{4, 1, -2}, // z⁴−6z²+3
	}
	for _, c := range cases {
		if got := hermite(c.n, c.z); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("He_%d(%g) = %g, want %g", c.n, c.z, got, c.want)
		}
	}
}

func TestCurvatures(t *testing.T) {
	// Box 2×3 with λ₂ = 4: L0=1, L1=2·(2+3)=... e1=5 scaled by √4=2 → 10,
	// L2 = e2·λ₂ = 6·4 = 24.
	l, _ := ecTerms(make([]float64, 6), []float64{2, 3}, 4)
	want := []float64{1, 10, 24}
	for i := range want {
		if math.Abs(l[i]-want[i]) > 1e-12 {
			t.Fatalf("L = %v, want %v", l, want)
		}
	}
}

func TestUpcrossProbDecreasesInZ(t *testing.T) {
	sides := []float64{5, 5}
	prev := math.Inf(1)
	for _, z := range []float64{1, 2, 3, 4, 5} {
		p := UpcrossProb(z, sides, 1)
		if p > prev {
			t.Fatalf("UpcrossProb not decreasing at z=%g: %g > %g", z, p, prev)
		}
		prev = p
	}
}

func TestZAlphaBasics(t *testing.T) {
	sides := []float64{10}
	z10 := ZAlpha(0.10, sides, 1)
	z05 := ZAlpha(0.05, sides, 1)
	z01 := ZAlpha(0.01, sides, 1)
	if !(z10 < z05 && z05 < z01) {
		t.Fatalf("z not increasing as α decreases: %g %g %g", z10, z05, z01)
	}
	// Always at least the pointwise quantile.
	pw := dist.StdNormalQuantile(1 - 0.05/2)
	if z05 < pw {
		t.Fatalf("z05 = %g < pointwise %g", z05, pw)
	}
	// Larger domains demand wider bands.
	zBig := ZAlpha(0.05, []float64{100}, 1)
	if zBig <= z05 {
		t.Fatalf("larger domain should widen band: %g ≤ %g", zBig, z05)
	}
	// Rougher fields (larger λ₂) demand wider bands.
	zRough := ZAlpha(0.05, sides, 25)
	if zRough <= z05 {
		t.Fatalf("rougher field should widen band: %g ≤ %g", zRough, z05)
	}
}

func TestZAlphaDegenerateDomain(t *testing.T) {
	// A zero-volume domain reduces to the pointwise quantile.
	got := ZAlpha(0.05, []float64{0, 0}, 1)
	want := dist.StdNormalQuantile(1 - 0.025)
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("point-domain z = %g, want pointwise %g", got, want)
	}
}

func TestZAlphaEdgeAlphas(t *testing.T) {
	if !math.IsInf(ZAlpha(0, []float64{1}, 1), 1) {
		t.Error("α=0 should give +Inf")
	}
	if got := ZAlpha(1, []float64{1}, 1); got != 0 {
		t.Errorf("α=1 should give 0, got %g", got)
	}
}

func TestZAlphaForKernel(t *testing.T) {
	k := kernel.NewSqExp(1, 0.5) // λ₂ = 4
	got := ZAlphaForKernel(0.05, k, []float64{0, 0}, []float64{2, 3})
	want := ZAlpha(0.05, []float64{2, 3}, 4)
	if got != want {
		t.Fatalf("ZAlphaForKernel = %g, want %g", got, want)
	}
	// Inverted bounds clamp to zero-length sides rather than negative.
	inv := ZAlphaForKernel(0.05, k, []float64{2}, []float64{1})
	if inv != ZAlpha(0.05, []float64{0}, 4) {
		t.Fatalf("inverted bounds not clamped: %g", inv)
	}
}

// Empirical validation of the whole pipeline: sample posterior functions
// from a GP and verify that the simultaneous band f̂ ± z_α σ contains the
// entire sampled function at least ≈ (1−α) of the time.
func TestSimultaneousCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	k := kernel.NewSqExp(1, 1)
	g := gp.New(k, 1e-8)
	for _, x := range []float64{0, 2.5, 5, 7.5, 10} {
		if err := g.Add([]float64{x}, math.Sin(x)); err != nil {
			t.Fatal(err)
		}
	}
	// Dense grid across the domain.
	const gridN = 60
	grid := make([][]float64, gridN)
	for i := range grid {
		grid[i] = []float64{10 * float64(i) / (gridN - 1)}
	}
	means, vars := predictGrid(g, grid)
	const alpha = 0.10
	z := ZAlphaForKernel(alpha, k, []float64{0}, []float64{10})
	const trials = 500
	violations := 0
	for trial := 0; trial < trials; trial++ {
		s, err := g.SamplePosterior(rng, grid, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range grid {
			sd := math.Sqrt(vars[i])
			if math.Abs(s[i]-means[i]) > z*sd+1e-9 {
				violations++
				break
			}
		}
	}
	rate := float64(violations) / trials
	if rate > alpha+0.05 {
		t.Fatalf("simultaneous violation rate %.3f exceeds α=%.2f", rate, alpha)
	}
	// The band must not be absurdly conservative either: the pointwise band
	// would be violated far more often, so z must stay moderate.
	if z > 5 {
		t.Fatalf("z_α = %g unreasonably wide", z)
	}
}

// The pointwise band must be insufficient for simultaneous coverage on a
// long domain — the reason the paper needs the EC machinery.
func TestPointwiseBandIsInsufficient(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	k := kernel.NewSqExp(1, 0.4)
	g := gp.New(k, 1e-8)
	for _, x := range []float64{0, 5, 10} {
		if err := g.Add([]float64{x}, 0); err != nil {
			t.Fatal(err)
		}
	}
	const gridN = 80
	grid := make([][]float64, gridN)
	for i := range grid {
		grid[i] = []float64{10 * float64(i) / (gridN - 1)}
	}
	means, vars := predictGrid(g, grid)
	const alpha = 0.10
	pw := dist.StdNormalQuantile(1 - alpha/2)
	const trials = 300
	violations := 0
	for trial := 0; trial < trials; trial++ {
		s, err := g.SamplePosterior(rng, grid, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range grid {
			if math.Abs(s[i]-means[i]) > pw*math.Sqrt(vars[i])+1e-9 {
				violations++
				break
			}
		}
	}
	rate := float64(violations) / trials
	if rate <= alpha {
		t.Fatalf("pointwise band unexpectedly sufficient: rate %.3f ≤ α", rate)
	}
}

// The per-term expected-Euler-characteristic density and bisection as
// they were written before the z-free factors were hoisted out of the
// loop: the bit-for-bit reference for ZAlpha and UpcrossProb.
func refECDensity(j int, z float64) float64 {
	return math.Pow(2*math.Pi, -float64(j+1)/2) * hermite(j-1, z) * math.Exp(-z*z/2)
}

func refCurvatures(sides []float64, lambda2 float64) []float64 {
	d := len(sides)
	out := make([]float64, d+1)
	out[0] = 1
	for _, s := range sides {
		for j := d; j >= 1; j-- {
			out[j] += out[j-1] * s
		}
	}
	sq := math.Sqrt(math.Max(0, lambda2))
	scale := 1.0
	for j := 1; j <= d; j++ {
		scale *= sq
		out[j] *= scale
	}
	return out
}

func refUpcross(l []float64, z float64) float64 {
	p := l[0] * (1 - dist.Normal{Mu: 0, Sigma: 1}.CDF(z))
	for j := 1; j < len(l); j++ {
		p += l[j] * refECDensity(j, z)
	}
	return p
}

func refZAlpha(alpha float64, sides []float64, lambda2 float64) float64 {
	if alpha <= 0 {
		return math.Inf(1)
	}
	if alpha >= 1 {
		return 0
	}
	pointwise := dist.StdNormalQuantile(1 - alpha/2)
	target := alpha / 2
	l := refCurvatures(sides, lambda2)
	f := func(z float64) float64 { return refUpcross(l, z) - target }
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

// TestZAlphaMatchesPerTermReference requires ZAlpha, ZAlphaForKernel and
// UpcrossProb to reproduce the per-term reference bit for bit over random
// boxes of dimension 0..7 (past the inline scratch), spectral moments and
// α, including zero-length and huge sides.
func TestZAlphaMatchesPerTermReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	alphas := []float64{-1, 0, 1e-9, 1e-4, 0.01, 0.05, 0.1, 0.3, 0.9, 1, 2}
	for trial := 0; trial < 2000; trial++ {
		d := trial % 8
		lo, hi := make([]float64, d), make([]float64, d)
		sides := make([]float64, d)
		for i := range sides {
			lo[i] = rng.NormFloat64()
			switch rng.Intn(6) {
			case 0:
				hi[i] = lo[i] // zero-length side
			case 1:
				hi[i] = lo[i] - rng.Float64() // inverted: clamps to zero
			case 2:
				hi[i] = lo[i] + 1e3*rng.Float64()
			default:
				hi[i] = lo[i] + 3*rng.Float64()
			}
			sides[i] = math.Max(hi[i]-lo[i], 0)
		}
		ell := 0.05 + 2*rng.Float64()
		k := kernel.NewSqExp(1, ell)
		lambda2 := k.SecondSpectralMoment()
		alpha := alphas[rng.Intn(len(alphas))]
		want := refZAlpha(alpha, sides, lambda2)
		if got := ZAlpha(alpha, sides, lambda2); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ZAlpha(%g, %v, %g) = %v, reference %v", alpha, sides, lambda2, got, want)
		}
		if got := ZAlphaForKernel(alpha, k, lo, hi); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ZAlphaForKernel(%g, d=%d) = %v, reference %v", alpha, d, got, want)
		}
		z := 6 * rng.Float64()
		if got, want := UpcrossProb(z, sides, lambda2), refUpcross(refCurvatures(sides, lambda2), z); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("UpcrossProb(%g, %v, %g) = %v, reference %v", z, sides, lambda2, got, want)
		}
	}
}

// TestZAlphaForKernelAllocs fences the per-tuple band multiplier at zero
// allocations for every dimension up to the inline scratch.
func TestZAlphaForKernelAllocs(t *testing.T) {
	k := kernel.NewSqExp(1, 0.5)
	for d := 0; d <= inlineDim; d++ {
		lo, hi := make([]float64, d), make([]float64, d)
		for i := range hi {
			hi[i] = 1 + float64(i)
		}
		if allocs := testing.AllocsPerRun(50, func() { ZAlphaForKernel(0.05, k, lo, hi) }); allocs != 0 {
			t.Fatalf("d=%d: ZAlphaForKernel allocates %v times, want 0", d, allocs)
		}
	}
}

// predictGrid returns the posterior means and variances of g on grid.
func predictGrid(g *gp.GP, grid [][]float64) (means, vars []float64) {
	means, vars = make([]float64, len(grid)), make([]float64, len(grid))
	for i, x := range grid {
		means[i], vars[i] = g.Predict(x)
	}
	return means, vars
}

// ZAlpha returns the half-width multiplier z_α such that the band
// f̂ ± z_α σ contains the whole function with probability ≈ 1−α on the box
// with the given side lengths. It is always at least the pointwise
// two-sided quantile Φ⁻¹(1−α/2).
func ZAlpha(alpha float64, sides []float64, lambda2 float64) float64 {
	return zAlpha(alpha, sides, lambda2, make([]float64, 2*len(sides)+2))
}

// UpcrossProb returns the expected-Euler-characteristic approximation to
// Pr[sup_X Z(x) ≥ z] for a unit-variance field on a box with the given side
// lengths and second spectral moment lambda2.
func UpcrossProb(z float64, sides []float64, lambda2 float64) float64 {
	l, c := ecTerms(make([]float64, 2*len(sides)+2), sides, lambda2)
	return upcross(l, c, z)
}
