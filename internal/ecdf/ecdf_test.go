package ecdf

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestECDFBasics(t *testing.T) {
	e := New([]float64{3, 1, 2, 2})
	if e.Len() != 4 {
		t.Fatalf("Len = %d", e.Len())
	}
	cases := []struct{ y, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {9, 1},
	}
	for _, c := range cases {
		if got := e.CDF(c.y); got != c.want {
			t.Errorf("CDF(%g) = %g, want %g", c.y, got, c.want)
		}
	}
	if e.Min() != 1 || e.Max() != 3 || e.Range() != 2 {
		t.Errorf("Min/Max/Range = %g/%g/%g", e.Min(), e.Max(), e.Range())
	}
	if got := e.Mean(); got != 2 {
		t.Errorf("Mean = %g, want 2", got)
	}
	if got := e.Variance(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Variance = %g, want 0.5", got)
	}
	if got := e.IntervalProb(1, 2); got != 0.5 {
		t.Errorf("IntervalProb(1,2) = %g, want 0.5", got)
	}
	if got := e.IntervalProb(2, 1); got != 0 {
		t.Errorf("IntervalProb(2,1) = %g, want 0", got)
	}
}

func TestECDFInputNotMutated(t *testing.T) {
	in := []float64{3, 1, 2}
	New(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("New mutated its input: %v", in)
	}
}

func TestFromSortedPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSorted([]float64{2, 1})
}

func TestEmptyECDF(t *testing.T) {
	e := New(nil)
	if e.CDF(1) != 0 {
		t.Errorf("empty CDF should be 0")
	}
	if !math.IsNaN(e.Mean()) || !math.IsNaN(e.Min()) || !math.IsNaN(e.Quantile(0.5)) {
		t.Errorf("empty moments should be NaN")
	}
	edges, dens := e.Histogram(4)
	if edges != nil || dens != nil {
		t.Errorf("empty histogram should be nil")
	}
}

func TestQuantile(t *testing.T) {
	e := New([]float64{10, 20, 30, 40})
	cases := []struct{ p, want float64 }{
		{0, 10}, {0.25, 10}, {0.26, 20}, {0.5, 20}, {0.75, 30}, {0.76, 40}, {1, 40},
	}
	for _, c := range cases {
		if got := e.Quantile(c.p); got != c.want {
			t.Errorf("Quantile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestHistogramIntegratesToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	e := New(xs)
	edges, dens := e.Histogram(32)
	if len(edges) != 32 || len(dens) != 32 {
		t.Fatalf("histogram sizes %d/%d", len(edges), len(dens))
	}
	w := e.Range() / 32
	var total float64
	for _, d := range dens {
		total += d * w
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("histogram mass = %g, want 1", total)
	}
}

func TestKSIdentical(t *testing.T) {
	e := New([]float64{1, 2, 3})
	if got := KS(e, e); got != 0 {
		t.Fatalf("KS(e,e) = %g", got)
	}
	if got := Discrepancy(e, e); got != 0 {
		t.Fatalf("D(e,e) = %g", got)
	}
}

func TestKSDisjoint(t *testing.T) {
	a := New([]float64{0, 1})
	b := New([]float64{10, 11})
	if got := KS(a, b); got != 1 {
		t.Fatalf("KS(disjoint) = %g, want 1", got)
	}
	if got := Discrepancy(a, b); got != 1 {
		t.Fatalf("D(disjoint) = %g, want 1", got)
	}
}

func TestKSHandComputed(t *testing.T) {
	// F: mass at 1, 2; G: mass at 1.5, 2. Max gap at y ∈ [1, 1.5): 0.5.
	f := New([]float64{1, 2})
	g := New([]float64{1.5, 2})
	if got := KS(f, g); got != 0.5 {
		t.Fatalf("KS = %g, want 0.5", got)
	}
}

func TestDiscrepancyTwoSided(t *testing.T) {
	// F concentrates in the middle, G at the edges; the two-sided interval
	// catching F's bulk shows D > KS.
	f := New([]float64{4.9, 5, 5.1, 5.2})
	g := New([]float64{0, 0.1, 9.9, 10})
	ks := KS(f, g)
	d := Discrepancy(f, g)
	if d < ks {
		t.Fatalf("D = %g < KS = %g", d, ks)
	}
	// Interval [4.9, 5.2] has F-prob 1, G-prob 0 → D = 1.
	if d != 1 {
		t.Fatalf("D = %g, want 1", d)
	}
}

func TestLambdaDiscrepancyShrinksWithLambda(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	xs := make([]float64, 300)
	ys := make([]float64, 300)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = rng.NormFloat64()*1.2 + 0.2
	}
	f, g := New(xs), New(ys)
	prev := math.Inf(1)
	for _, lambda := range []float64{0, 0.5, 1, 2, 4} {
		d := DiscrepancyLambda(f, g, lambda)
		if d > prev+1e-12 {
			t.Fatalf("Dλ increased with λ: %g → %g at λ=%g", prev, d, lambda)
		}
		prev = d
	}
}

func TestDiscrepancyLeTwiceKS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		xs := make([]float64, 100)
		ys := make([]float64, 150)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		for i := range ys {
			ys[i] = rng.ExpFloat64()
		}
		f, g := New(xs), New(ys)
		d, ks := Discrepancy(f, g), KS(f, g)
		if d > 2*ks+1e-12 {
			t.Fatalf("D = %g > 2·KS = %g", d, 2*ks)
		}
		if d < ks-1e-12 {
			t.Fatalf("D = %g < KS = %g (two-sided must dominate one-sided)", d, ks)
		}
	}
}

// Property: the O(m log m) λ-discrepancy equals the O(m²) reference.
func TestQuickLambdaDiscrepancyMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nx, ny := 2+rng.Intn(40), 2+rng.Intn(40)
		xs := make([]float64, nx)
		ys := make([]float64, ny)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 3
		}
		for i := range ys {
			ys[i] = rng.NormFloat64()*2 + rng.Float64()
		}
		a, b := New(xs), New(ys)
		lambda := rng.Float64() * 2
		fast := DiscrepancyLambda(a, b, lambda)
		naive := discLambdaNaive(a, b, lambda)
		return math.Abs(fast-naive) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: KS and discrepancy are symmetric and lie in [0,1].
func TestQuickMetricProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+rng.Intn(50))
		ys := make([]float64, 1+rng.Intn(50))
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		for i := range ys {
			ys[i] = rng.NormFloat64()
		}
		a, b := New(xs), New(ys)
		ks1, ks2 := KS(a, b), KS(b, a)
		d1, d2 := Discrepancy(a, b), Discrepancy(b, a)
		return ks1 == ks2 && d1 == d2 &&
			ks1 >= 0 && ks1 <= 1 && d1 >= 0 && d1 <= 1 &&
			d1 >= ks1-1e-12 && d1 <= 2*ks1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestKSAgainstAnalytic(t *testing.T) {
	// Large uniform sample against the exact uniform CDF: KS should be small.
	rng := rand.New(rand.NewSource(8))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	e := New(xs)
	uniformCDF := func(y float64) float64 {
		return math.Max(0, math.Min(1, y))
	}
	if got := KSAgainst(e, uniformCDF); got > 0.02 {
		t.Fatalf("KS against analytic = %g, want < 0.02", got)
	}
	// Against a shifted CDF the distance must be ≈ the shift.
	shifted := func(y float64) float64 { return math.Max(0, math.Min(1, y+0.3)) }
	if got := KSAgainst(e, shifted); math.Abs(got-0.3) > 0.02 {
		t.Fatalf("KS against shifted = %g, want ≈ 0.3", got)
	}
}

func makeEnvelope(rng *rand.Rand, n int) Envelope {
	// Same input "samples": mean outputs plus/minus a random sample-wise gap.
	mean := make([]float64, n)
	lower := make([]float64, n)
	upper := make([]float64, n)
	for i := range mean {
		mean[i] = rng.NormFloat64() * 2
		gap := math.Abs(rng.NormFloat64()) * 0.3
		lower[i] = mean[i] - gap
		upper[i] = mean[i] + gap
	}
	return Envelope{Mean: New(mean), Lower: New(lower), Upper: New(upper)}
}

// Property: Algorithm 3 equals the naive O(m²) enumeration.
func TestQuickDiscrepancyBoundMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		env := makeEnvelope(rng, 2+rng.Intn(30))
		lambda := rng.Float64() * 1.5
		fast := env.DiscrepancyBound(lambda)
		naive := env.discrepancyBoundNaive(lambda)
		return math.Abs(fast-naive) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Infinite support points are ordinary values to the bound's merge: an
// exhausted support must not be mistaken for one still holding +∞, and for
// a +∞ support point a the right endpoint a+λ = +∞ is a itself.
func TestDiscrepancyBoundInfiniteSupport(t *testing.T) {
	inf := math.Inf(1)
	envs := []Envelope{
		{Mean: New([]float64{0, 1, inf}), Lower: New([]float64{-1, 0.5, 2}), Upper: New([]float64{1, 2, inf})},
		{Mean: New([]float64{-1, 3, inf}), Lower: New([]float64{-inf, 2, inf}), Upper: New([]float64{0, inf, inf})},
		{Mean: New([]float64{2, 2}), Lower: New([]float64{-inf, 1}), Upper: New([]float64{3, 4})},
	}
	for i, env := range envs {
		for _, lambda := range []float64{0, 0.5, 3} {
			got, want := env.DiscrepancyBound(lambda), env.discrepancyBoundNaive(lambda)
			if math.Abs(got-want) > 1e-12 || got > 1 {
				t.Errorf("envelope %d, λ=%g: bound %g, naive %g", i, lambda, got, want)
			}
		}
	}
}

// The bound must dominate the actual λ-discrepancy between the mean CDF and
// any CDF generated by a function inside the envelope. We emulate such
// functions by sample-wise convex combinations of the envelope outputs.
func TestDiscrepancyBoundDominates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 200
	mean := make([]float64, n)
	lower := make([]float64, n)
	upper := make([]float64, n)
	for i := range mean {
		mean[i] = rng.NormFloat64()
		gap := 0.1 + 0.2*rng.Float64()
		lower[i] = mean[i] - gap
		upper[i] = mean[i] + gap
	}
	env := Envelope{Mean: New(mean), Lower: New(lower), Upper: New(upper)}
	for _, lambda := range []float64{0, 0.05, 0.2} {
		bound := env.DiscrepancyBound(lambda)
		for trial := 0; trial < 10; trial++ {
			inside := make([]float64, n)
			for i := range inside {
				u := rng.Float64()
				inside[i] = lower[i]*u + upper[i]*(1-u)
			}
			actual := DiscrepancyLambda(New(inside), env.Mean, lambda)
			if actual > bound+1e-12 {
				t.Fatalf("λ=%g: actual Dλ %g exceeds bound %g", lambda, actual, bound)
			}
		}
	}
}

func TestIntervalBounds(t *testing.T) {
	env := Envelope{
		Mean:  New([]float64{1, 2, 3, 4}),
		Lower: New([]float64{0.5, 1.5, 2.5, 3.5}),
		Upper: New([]float64{1.5, 2.5, 3.5, 4.5}),
	}
	lo, mid, hi := env.IntervalBounds(1.6, 3.4)
	if lo > mid || mid > hi {
		t.Fatalf("bounds not ordered: %g %g %g", lo, mid, hi)
	}
	if lo < 0 || hi > 1 {
		t.Fatalf("bounds out of range: %g %g", lo, hi)
	}
	// mid = F̂(3.4) − F̂(1.6) = 0.75 − 0.25 = 0.5.
	if mid != 0.5 {
		t.Fatalf("mid = %g, want 0.5", mid)
	}
}

func TestKSBound(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	env := makeEnvelope(rng, 150)
	bound := env.KSBound()
	if bound < 0 || bound > 1 {
		t.Fatalf("KSBound = %g out of range", bound)
	}
	// A boundary function's KS must be ≤ the bound by definition.
	if ks := KS(env.Mean, env.Lower); ks > bound+1e-15 {
		t.Fatalf("KS(mean,lower) = %g > bound %g", ks, bound)
	}
	if ks := KS(env.Mean, env.Upper); ks > bound+1e-15 {
		t.Fatalf("KS(mean,upper) = %g > bound %g", ks, bound)
	}
	// Interior functions are also dominated (Prop 4.2).
	vals := env.Mean.Values()
	lo := env.Lower.Values()
	hi := env.Upper.Values()
	inside := make([]float64, len(vals))
	for i := range inside {
		u := rng.Float64()
		inside[i] = lo[i]*u + hi[i]*(1-u)
	}
	if ks := KS(New(inside), env.Mean); ks > bound+1e-12 {
		t.Fatalf("interior KS %g exceeds bound %g", ks, bound)
	}
}

func TestDegenerateEnvelopeZeroBound(t *testing.T) {
	// With zero-width envelope there is no GP error.
	xs := []float64{1, 2, 3}
	env := Envelope{Mean: New(xs), Lower: New(xs), Upper: New(xs)}
	if got := env.DiscrepancyBound(0.1); got != 0 {
		t.Fatalf("zero-width envelope bound = %g, want 0", got)
	}
	if got := env.KSBound(); got != 0 {
		t.Fatalf("zero-width envelope KS bound = %g, want 0", got)
	}
}

func TestMergedValuesDedup(t *testing.T) {
	a := New([]float64{1, 2, 2, 3})
	b := New([]float64{2, 3, 4})
	got := mergedValues(a, b)
	want := []float64{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("merged = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged = %v, want %v", got, want)
		}
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("merged not sorted: %v", got)
	}
}

func BenchmarkDiscrepancyLambda1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	ys := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = rng.NormFloat64() + 0.1
	}
	f, g := New(xs), New(ys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DiscrepancyLambda(f, g, 0.05)
	}
}

func TestTruncate(t *testing.T) {
	e := New([]float64{1, 2, 3, 4, 5})
	tr, tep := e.Truncate(2, 4)
	if tep != 0.6 {
		t.Fatalf("TEP = %g, want 0.6", tep)
	}
	if tr.Len() != 3 || tr.Min() != 2 || tr.Max() != 4 {
		t.Fatalf("truncated support [%g,%g] len %d", tr.Min(), tr.Max(), tr.Len())
	}
	// Conditional CDF: Pr[Y ≤ 3 | Y ∈ [2,4]] = 2/3.
	if got := tr.CDF(3); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("conditional CDF(3) = %g", got)
	}
	// Empty intersection.
	tr2, tep2 := e.Truncate(10, 20)
	if tep2 != 0 || tr2.Len() != 0 {
		t.Fatalf("empty truncation: tep=%g len=%d", tep2, tr2.Len())
	}
	// Inverted interval.
	tr3, tep3 := e.Truncate(4, 2)
	if tep3 != 0 || tr3.Len() != 0 {
		t.Fatalf("inverted truncation: tep=%g len=%d", tep3, tr3.Len())
	}
	// Whole support.
	tr4, tep4 := e.Truncate(0, 10)
	if tep4 != 1 || tr4.Len() != 5 {
		t.Fatalf("full truncation: tep=%g len=%d", tep4, tr4.Len())
	}
	// Original is untouched.
	if e.Len() != 5 {
		t.Fatalf("Truncate mutated the source")
	}
}
