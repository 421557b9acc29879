package dist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// moments draws n samples and returns the sample mean and variance.
func moments(t *testing.T, d Dist, n int, seed int64) (mean, variance float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := d.Sample(rng)
		sum += x
		sumSq += x * x
	}
	mean = sum / float64(n)
	variance = sumSq/float64(n) - mean*mean
	return mean, variance
}

// scalarCases enumerates one representative of each family with its
// closed-form moments and a few CDF checkpoints.
var scalarCases = []struct {
	name     string
	d        Dist
	mean     float64
	variance float64
	lo, hi   float64 // expected Support
	cdfAt    []struct{ x, want float64 }
}{
	{
		name: "normal standard", d: Normal{Mu: 0, Sigma: 1},
		mean: 0, variance: 1, lo: math.Inf(-1), hi: math.Inf(1),
		cdfAt: []struct{ x, want float64 }{
			{0, 0.5},
			{1, 0.8413447460685429},
			{-1.959963984540054, 0.025},
			{6, 0.9999999990134124},
		},
	},
	{
		name: "normal shifted", d: Normal{Mu: 5, Sigma: 0.5},
		mean: 5, variance: 0.25, lo: math.Inf(-1), hi: math.Inf(1),
		cdfAt: []struct{ x, want float64 }{
			{5, 0.5},
			{5.5, 0.8413447460685429},
		},
	},
	{
		name: "uniform unit", d: Uniform{A: 0, B: 1},
		mean: 0.5, variance: 1.0 / 12, lo: 0, hi: 1,
		cdfAt: []struct{ x, want float64 }{
			{-1, 0}, {0.25, 0.25}, {0.5, 0.5}, {2, 1},
		},
	},
	{
		name: "uniform wide", d: Uniform{A: -2, B: 6},
		mean: 2, variance: 64.0 / 12, lo: -2, hi: 6,
		cdfAt: []struct{ x, want float64 }{
			{-2, 0}, {0, 0.25}, {6, 1},
		},
	},
	{
		name: "exponential", d: Exponential{Rate: 2},
		mean: 0.5, variance: 0.25, lo: 0, hi: math.Inf(1),
		cdfAt: []struct{ x, want float64 }{
			{-1, 0},
			{0.5, 1 - math.Exp(-1)},
			{1, 1 - math.Exp(-2)},
		},
	},
	{
		name: "gamma k>1", d: Gamma{K: 2.2, Theta: 0.09, Loc: 0.01},
		mean: 2.2*0.09 + 0.01, variance: 2.2 * 0.09 * 0.09, lo: 0.01, hi: math.Inf(1),
		cdfAt: []struct{ x, want float64 }{
			{0.01, 0},
			// P(2.2, 2.2) verified by independent Simpson integration of
			// the density.
			{0.01 + 2.2*0.09, 0.589646242495},
		},
	},
	{
		name: "gamma k<1", d: Gamma{K: 0.5, Theta: 2, Loc: 0},
		// Gamma(1/2, 2) is χ²(1): mean 1, variance 2.
		mean: 1, variance: 2, lo: 0, hi: math.Inf(1),
		cdfAt: []struct{ x, want float64 }{
			{0, 0},
			// χ²(1) CDF at 1 is erf(1/√2).
			{1, math.Erf(1 / math.Sqrt2)},
			{3.841458820694124, 0.95},
		},
	},
	{
		name: "constant", d: Constant{V: 3},
		mean: 3, variance: 0, lo: 3, hi: 3,
		cdfAt: []struct{ x, want float64 }{
			{2.999, 0}, {3, 1}, {4, 1},
		},
	},
}

func TestScalarClosedForms(t *testing.T) {
	for _, c := range scalarCases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.d.Mean(); math.Abs(got-c.mean) > 1e-12 {
				t.Errorf("Mean = %g, want %g", got, c.mean)
			}
			if got := c.d.Variance(); math.Abs(got-c.variance) > 1e-12 {
				t.Errorf("Variance = %g, want %g", got, c.variance)
			}
			lo, hi := c.d.Support()
			if lo != c.lo || hi != c.hi {
				t.Errorf("Support = (%g, %g), want (%g, %g)", lo, hi, c.lo, c.hi)
			}
			for _, p := range c.cdfAt {
				if got := c.d.CDF(p.x); math.Abs(got-p.want) > 1e-9 {
					t.Errorf("CDF(%g) = %.12g, want %.12g", p.x, got, p.want)
				}
			}
		})
	}
}

// Sample moments must converge to the analytic moments; 200k samples give
// ≈0.5% standard error on the mean for unit-variance families, so a 2%
// relative tolerance (floored for near-zero means) is a stable bar.
func TestSampleMomentsMatch(t *testing.T) {
	const n = 200_000
	for i, c := range scalarCases {
		t.Run(c.name, func(t *testing.T) {
			mean, variance := moments(t, c.d, n, int64(100+i))
			scale := math.Max(math.Abs(c.mean), math.Sqrt(c.variance))
			tol := math.Max(0.02*scale, 1e-9)
			if math.Abs(mean-c.mean) > tol {
				t.Errorf("sample mean %g, want %g ± %g", mean, c.mean, tol)
			}
			varTol := math.Max(0.04*c.variance, 1e-9)
			if math.Abs(variance-c.variance) > varTol {
				t.Errorf("sample variance %g, want %g ± %g", variance, c.variance, varTol)
			}
		})
	}
}

// Sampling must respect the declared support and, for continuous families,
// the empirical CDF must match the analytic CDF (a one-sample KS check).
func TestSampleMatchesCDF(t *testing.T) {
	const n = 100_000
	for i, c := range scalarCases {
		if _, isConst := c.d.(Constant); isConst {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(200 + i)))
			lo, hi := c.d.Support()
			xs := Sample(c.d, n, rng)
			for _, x := range xs {
				if x < lo || x > hi {
					t.Fatalf("sample %g outside support (%g, %g)", x, lo, hi)
				}
			}
			// KS statistic against the analytic CDF on a grid of sampled
			// points; D_n ~ 1.63/√n at the 1% level, use 2/√n for slack.
			var ks float64
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for j, x := range sorted {
				emp := float64(j+1) / float64(n)
				d := math.Abs(emp - c.d.CDF(x))
				if d > ks {
					ks = d
				}
			}
			if limit := 2 / math.Sqrt(float64(n)); ks > limit {
				t.Errorf("KS = %g exceeds %g", ks, limit)
			}
		})
	}
}

// PDF must integrate to ≈1 over the bulk of the support (trapezoid rule)
// and be non-negative everywhere probed.
func TestPDFIntegratesToOne(t *testing.T) {
	cases := []struct {
		name   string
		d      Dist
		lo, hi float64
	}{
		{"normal", Normal{Mu: 0, Sigma: 1}, -9, 9},
		{"uniform", Uniform{A: -2, B: 6}, -3, 7},
		{"exponential", Exponential{Rate: 2}, 0, 12},
		{"gamma", Gamma{K: 2.2, Theta: 0.09, Loc: 0.01}, 0.01, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const steps = 200_000
			h := (c.hi - c.lo) / steps
			var sum float64
			for i := 0; i <= steps; i++ {
				x := c.lo + float64(i)*h
				p := c.d.PDF(x)
				if p < 0 {
					t.Fatalf("PDF(%g) = %g < 0", x, p)
				}
				w := 1.0
				if i == 0 || i == steps {
					w = 0.5
				}
				sum += w * p
			}
			if got := sum * h; math.Abs(got-1) > 1e-3 {
				t.Errorf("∫PDF = %g, want 1", got)
			}
		})
	}
}

func TestConstantPDFIsPointMass(t *testing.T) {
	c := Constant{V: 3}
	if !math.IsInf(c.PDF(3), 1) {
		t.Error("PDF at the atom should be +Inf")
	}
	if c.PDF(2.5) != 0 || c.PDF(3.5) != 0 {
		t.Error("PDF off the atom should be 0")
	}
	rng := rand.New(rand.NewSource(1))
	if c.Sample(rng) != 3 {
		t.Error("Sample should return the atom")
	}
}

func TestDegenerateFallbacks(t *testing.T) {
	// σ = 0 Gaussian and B ≤ A uniform behave as point masses rather than
	// dividing by zero.
	n := Normal{Mu: 2, Sigma: 0}
	if n.CDF(1.9) != 0 || n.CDF(2) != 1 || !math.IsInf(n.PDF(2), 1) {
		t.Error("σ=0 normal should be a step at μ")
	}
	if lo, hi := n.Support(); lo != 2 || hi != 2 {
		t.Error("σ=0 normal support should collapse")
	}
	u := Uniform{A: 4, B: 4}
	if u.CDF(3.9) != 0 || u.CDF(4) != 1 || !math.IsInf(u.PDF(4), 1) {
		t.Error("degenerate uniform should be a step at A")
	}
	// Every method must agree on the point-mass reading, including Sample,
	// and also for inverted/negative parameters.
	rng := rand.New(rand.NewSource(1))
	for name, d := range map[string]Dist{
		"σ=0 normal":       n,
		"σ<0 normal":       Normal{Mu: 2, Sigma: -1},
		"B=A uniform":      u,
		"inverted uniform": Uniform{A: 4, B: 3},
		"k=0 gamma":        Gamma{K: 0, Theta: 1, Loc: 5},
		"k<0 gamma":        Gamma{K: -0.5, Theta: 1, Loc: 5},
		"θ=0 gamma":        Gamma{K: 2, Theta: 0, Loc: 5},
		"λ=0 exponential":  Exponential{Rate: 0},
		"λ<0 exponential":  Exponential{Rate: -2},
	} {
		lo, hi := d.Support()
		if lo != hi {
			t.Errorf("%s: support (%g, %g) not collapsed", name, lo, hi)
		}
		if d.Variance() != 0 {
			t.Errorf("%s: variance %g ≠ 0", name, d.Variance())
		}
		for i := 0; i < 8; i++ {
			if got := d.Sample(rng); got != lo {
				t.Fatalf("%s: sample %g off the atom %g", name, got, lo)
			}
		}
		if d.Mean() != lo {
			t.Errorf("%s: mean %g ≠ atom %g", name, d.Mean(), lo)
		}
		if d.CDF(lo-1e-6) != 0 || d.CDF(lo) != 1 {
			t.Errorf("%s: CDF not a unit step at %g", name, lo)
		}
	}
}

// Φ(Φ⁻¹(p)) must round-trip to p within 1e−9 across the open unit interval,
// including deep tails — the accuracy the confidence-band solver relies on.
func TestStdNormalQuantileRoundTrip(t *testing.T) {
	std := Normal{Mu: 0, Sigma: 1}
	ps := []float64{1e-12, 1e-9, 1e-6, 1e-4, 0.01, 0.025, 0.1, 0.25, 0.5,
		0.75, 0.9, 0.975, 0.99, 1 - 1e-4, 1 - 1e-6, 1 - 1e-9}
	for p := 0.001; p < 1; p += 0.001 {
		ps = append(ps, p)
	}
	for _, p := range ps {
		z := StdNormalQuantile(p)
		if back := std.CDF(z); math.Abs(back-p) > 1e-9 {
			t.Errorf("Φ(Φ⁻¹(%g)) = %g, |Δ| = %g", p, back, math.Abs(back-p))
		}
	}
	// Known checkpoints.
	if z := StdNormalQuantile(0.975); math.Abs(z-1.959963984540054) > 1e-9 {
		t.Errorf("Φ⁻¹(0.975) = %.15g", z)
	}
	if z := StdNormalQuantile(0.5); z != 0 {
		t.Errorf("Φ⁻¹(0.5) = %g", z)
	}
}

func TestStdNormalQuantileEdgeCases(t *testing.T) {
	if !math.IsInf(StdNormalQuantile(0), -1) || !math.IsInf(StdNormalQuantile(1), 1) {
		t.Error("endpoints should be ±Inf")
	}
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		if !math.IsNaN(StdNormalQuantile(p)) {
			t.Errorf("Φ⁻¹(%g) should be NaN", p)
		}
	}
	// Antisymmetry: Φ⁻¹(p) = −Φ⁻¹(1−p).
	for _, p := range []float64{0.01, 0.2, 0.4} {
		if d := StdNormalQuantile(p) + StdNormalQuantile(1-p); math.Abs(d) > 1e-12 {
			t.Errorf("asymmetric at p=%g: %g", p, d)
		}
	}
}

// Seeded sampling must be bit-for-bit deterministic for every family and
// for joint vectors — the whole repo's tests and benchmarks replay seeds.
func TestSeededSamplingDeterministic(t *testing.T) {
	for _, c := range scalarCases {
		t.Run(c.name, func(t *testing.T) {
			a := Sample(c.d, 64, rand.New(rand.NewSource(7)))
			b := Sample(c.d, 64, rand.New(rand.NewSource(7)))
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("sample %d differs: %g vs %g", i, a[i], b[i])
				}
			}
			other := Sample(c.d, 64, rand.New(rand.NewSource(8)))
			if _, isConst := c.d.(Constant); !isConst {
				same := true
				for i := range a {
					if a[i] != other[i] {
						same = false
						break
					}
				}
				if same {
					t.Fatal("different seeds produced identical streams")
				}
			}
		})
	}
}

func TestIndependentVector(t *testing.T) {
	v := NewIndependent(
		Normal{Mu: 1, Sigma: 0.5},
		Uniform{A: 0, B: 2},
		Constant{V: 7},
	)
	if v.Dim() != 3 {
		t.Fatalf("Dim = %d", v.Dim())
	}
	m := v.MeanVec()
	want := []float64{1, 1, 7}
	for i := range want {
		if math.Abs(m[i]-want[i]) > 1e-12 {
			t.Fatalf("MeanVec = %v, want %v", m, want)
		}
	}
	if c, ok := v.comps[1].(Uniform); !ok || c.B != 2 {
		t.Fatalf("component 1 = %#v", v.comps[1])
	}

	rng := rand.New(rand.NewSource(3))
	buf := make([]float64, 3)
	got := v.SampleVec(rng, buf)
	if &got[0] != &buf[0] {
		t.Error("SampleVec should reuse a right-sized buffer")
	}
	if got[2] != 7 {
		t.Errorf("constant component sampled as %g", got[2])
	}
	if alloc := v.SampleVec(rng, nil); len(alloc) != 3 {
		t.Errorf("nil buf should allocate dim-length slice, got %d", len(alloc))
	}
	if short := v.SampleVec(rng, make([]float64, 1)); len(short) != 3 {
		t.Errorf("short buf should be replaced, got len %d", len(short))
	}
}

func TestIndependentCopiesComponents(t *testing.T) {
	comps := []Dist{Normal{Mu: 0, Sigma: 1}}
	v := NewIndependent(comps...)
	comps[0] = Constant{V: 99}
	if _, ok := v.comps[0].(Normal); !ok {
		t.Fatal("NewIndependent must copy the component slice")
	}
}

func TestIsoGaussianVec(t *testing.T) {
	v, err := IsoGaussianVec([]float64{1, 2, 3}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if v.Dim() != 3 {
		t.Fatalf("Dim = %d", v.Dim())
	}
	for i, mu := range []float64{1, 2, 3} {
		n, ok := v.comps[i].(Normal)
		if !ok || n.Mu != mu || n.Sigma != 0.5 {
			t.Fatalf("component %d = %#v", i, v.comps[i])
		}
	}
	if _, err := IsoGaussianVec([]float64{1}, 0); err == nil {
		t.Error("σ = 0 should be rejected")
	}
	if _, err := IsoGaussianVec([]float64{1}, -1); err == nil {
		t.Error("σ < 0 should be rejected")
	}
	if _, err := IsoGaussianVec(nil, 1); err == nil {
		t.Error("empty mean vector should be rejected")
	}
}

// The joint empirical mean of an isotropic Gaussian vector must converge to
// μ component-wise.
func TestIsoGaussianVecSampling(t *testing.T) {
	mu := []float64{-3, 0, 4}
	v, err := IsoGaussianVec(mu, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	const n = 100_000
	sums := make([]float64, len(mu))
	buf := make([]float64, len(mu))
	for i := 0; i < n; i++ {
		buf = v.SampleVec(rng, buf)
		for j, x := range buf {
			sums[j] += x
		}
	}
	for j := range mu {
		if got := sums[j] / n; math.Abs(got-mu[j]) > 0.01 {
			t.Errorf("component %d mean %g, want %g", j, got, mu[j])
		}
	}
}

func TestSampleHelper(t *testing.T) {
	xs := Sample(Uniform{A: 0, B: 1}, 10, rand.New(rand.NewSource(5)))
	if len(xs) != 10 {
		t.Fatalf("len = %d", len(xs))
	}
	if empty := Sample(Constant{V: 1}, 0, rand.New(rand.NewSource(5))); len(empty) != 0 {
		t.Fatalf("n=0 should give empty slice, got %d", len(empty))
	}
}

// Gamma CDF cross-checks against independently known values: Gamma(1, θ) is
// Exponential(1/θ), and the incomplete-gamma split point (x vs a+1) must not
// introduce a seam.
func TestGammaCDFCrossChecks(t *testing.T) {
	g := Gamma{K: 1, Theta: 2}
	e := Exponential{Rate: 0.5}
	for x := 0.1; x < 10; x += 0.7 {
		if d := math.Abs(g.CDF(x) - e.CDF(x)); d > 1e-12 {
			t.Fatalf("Gamma(1,2) vs Exp(1/2) at %g: Δ=%g", x, d)
		}
	}
	// Continuity across the series/continued-fraction boundary x = a+1.
	g2 := Gamma{K: 3, Theta: 1}
	below, above := g2.CDF(3.999999), g2.CDF(4.000001)
	if above < below || above-below > 1e-5 {
		t.Fatalf("seam at split point: %g vs %g", below, above)
	}
	// Monotone and bounded.
	prev := -1.0
	for x := -1.0; x < 20; x += 0.25 {
		c := g2.CDF(x)
		if c < prev || c < 0 || c > 1 {
			t.Fatalf("CDF not monotone in [0,1] at %g: %g after %g", x, c, prev)
		}
		prev = c
	}
}

func BenchmarkNormalSample(b *testing.B) {
	d := Normal{Mu: 0, Sigma: 1}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		d.Sample(rng)
	}
}

func BenchmarkGammaSample(b *testing.B) {
	d := Gamma{K: 2.2, Theta: 0.09, Loc: 0.01}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		d.Sample(rng)
	}
}

func BenchmarkSampleVec(b *testing.B) {
	v, _ := IsoGaussianVec([]float64{1, 2, 3, 4}, 0.5)
	rng := rand.New(rand.NewSource(1))
	buf := make([]float64, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = v.SampleVec(rng, buf)
	}
}

func BenchmarkStdNormalQuantile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		StdNormalQuantile(0.975)
	}
}

// Sample draws n independent values from d using rng. It is the small
// convenience the generators and tests use to build sample sets without an
// explicit loop.
func Sample(d Dist, n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Sample(rng)
	}
	return out
}
