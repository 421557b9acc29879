package gp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"olgapro/internal/kernel"
	"olgapro/internal/mat"
)

func linspace(lo, hi float64, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = []float64{lo + (hi-lo)*float64(i)/float64(n-1)}
	}
	return out
}

func TestEmptyGPReturnsPrior(t *testing.T) {
	g := New(kernel.NewSqExp(1.5, 1), 0)
	mean, v := g.Predict([]float64{3})
	if mean != 0 {
		t.Errorf("prior mean = %g, want 0", mean)
	}
	if math.Abs(v-2.25) > 1e-12 {
		t.Errorf("prior variance = %g, want σf² = 2.25", v)
	}
	if g.LogLikelihood() != 0 {
		t.Errorf("empty loglik = %g", g.LogLikelihood())
	}
}

func TestInterpolatesTrainingPoints(t *testing.T) {
	g := New(kernel.NewSqExp(1, 1), 1e-10)
	f := func(x float64) float64 { return math.Sin(x) }
	for _, x := range []float64{0, 1, 2, 3, 4} {
		if err := g.Add([]float64{x}, f(x)); err != nil {
			t.Fatal(err)
		}
	}
	for _, x := range []float64{0, 1, 2, 3, 4} {
		mean, v := g.Predict([]float64{x})
		if math.Abs(mean-f(x)) > 1e-4 {
			t.Errorf("mean(%g) = %g, want %g", x, mean, f(x))
		}
		if v > 1e-6 {
			t.Errorf("variance at training point %g = %g, want ≈0", x, v)
		}
	}
	// Between points the variance must be positive but small; far away large.
	_, vin := g.Predict([]float64{2.5})
	_, vout := g.Predict([]float64{40})
	if vin <= 0 || vin > 0.5 {
		t.Errorf("interior variance = %g", vin)
	}
	if vout < 0.9 {
		t.Errorf("far variance = %g, want ≈ σf² = 1", vout)
	}
}

func TestPredictsSmoothFunction(t *testing.T) {
	g := New(kernel.NewSqExp(1, 1.2), 1e-8)
	f := func(x float64) float64 { return math.Sin(x) + 0.3*x }
	for _, p := range linspace(0, 10, 25) {
		if err := g.Add(p, f(p[0])); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range linspace(0.2, 9.8, 40) {
		mean, _ := g.Predict(p)
		if math.Abs(mean-f(p[0])) > 0.05 {
			t.Errorf("mean(%g) = %g, want %g", p[0], mean, f(p[0]))
		}
	}
}

func TestSinglePointClosedForm(t *testing.T) {
	sf, l, noise := 1.3, 0.9, 1e-6
	g := New(kernel.NewSqExp(sf, l), noise)
	xstar, ystar := []float64{1}, 2.0
	if err := g.Add(xstar, ystar); err != nil {
		t.Fatal(err)
	}
	x := []float64{1.4}
	kxx := sf * sf
	kx := sf * sf * math.Exp(-0.5*0.4*0.4/(l*l))
	wantMean := kx / (kxx + noise) * ystar
	wantVar := kxx - kx*kx/(kxx+noise)
	mean, v := g.Predict(x)
	if math.Abs(mean-wantMean) > 1e-10 {
		t.Errorf("mean = %g, want %g", mean, wantMean)
	}
	if math.Abs(v-wantVar) > 1e-8 {
		t.Errorf("var = %g, want %g", v, wantVar)
	}
}

func TestPredictMeanMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := New(kernel.NewSqExp(1, 1), 1e-8)
	for i := 0; i < 15; i++ {
		if err := g.Add([]float64{rng.Float64() * 10}, rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		x := []float64{rng.Float64() * 10}
		m1, _ := g.Predict(x)
		m2 := g.PredictMean(x)
		if math.Abs(m1-m2) > 1e-10 {
			t.Fatalf("PredictMean %g ≠ Predict %g", m2, m1)
		}
	}
}

func TestAddMatchesBatchFit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([][]float64, 20)
	ys := make([]float64, 20)
	for i := range xs {
		xs[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
		ys[i] = rng.NormFloat64()
	}
	inc := New(kernel.NewSqExp(1, 1.5), 1e-8)
	for i := range xs {
		if err := inc.Add(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	batch := New(kernel.NewSqExp(1, 1.5), 1e-8)
	if err := batch.AddBatch(xs, ys); err != nil {
		t.Fatal(err)
	}
	probe := [][]float64{{1, 1}, {5, 5}, {9, 2}, {0, 10}}
	for _, x := range probe {
		m1, v1 := inc.Predict(x)
		m2, v2 := batch.Predict(x)
		if math.Abs(m1-m2) > 1e-8 || math.Abs(v1-v2) > 1e-8 {
			t.Fatalf("incremental (%g,%g) ≠ batch (%g,%g) at %v", m1, v1, m2, v2, x)
		}
	}
	if math.Abs(inc.LogLikelihood()-batch.LogLikelihood()) > 1e-8 {
		t.Fatalf("loglik mismatch: %g vs %g", inc.LogLikelihood(), batch.LogLikelihood())
	}
}

func TestAddRejectsDuplicates(t *testing.T) {
	// Noise below float64 resolution: an exact duplicate makes the Gram
	// matrix numerically singular, which Add must reject.
	g := New(kernel.NewSqExp(1, 1), 1e-300)
	if err := g.Add([]float64{1}, 2); err != nil {
		t.Fatal(err)
	}
	err := g.Add([]float64{1}, 2)
	if !errors.Is(err, ErrDuplicatePoint) {
		t.Fatalf("duplicate add error = %v, want ErrDuplicatePoint", err)
	}
	// The GP must remain usable after a rejected add.
	if g.Len() != 1 {
		t.Fatalf("Len = %d after rejected add", g.Len())
	}
	if m, _ := g.Predict([]float64{1}); math.Abs(m-2) > 1e-4 {
		t.Fatalf("Predict after rejected add = %g", m)
	}
}

func TestAddDimMismatch(t *testing.T) {
	g := New(kernel.NewSqExp(1, 1), 0)
	if err := g.Add([]float64{1, 2}, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Add([]float64{1}, 0); err == nil {
		t.Fatal("dim mismatch should error")
	}
	if err := g.AddBatch([][]float64{{1}}, []float64{0}); err == nil {
		t.Fatal("batch dim mismatch should error")
	}
	if err := g.AddBatch([][]float64{{1, 2}}, nil); err == nil {
		t.Fatal("batch length mismatch should error")
	}
}

// Gradient of the log marginal likelihood vs. finite differences.
func TestGradFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := New(kernel.NewSqExp(1.2, 0.8), 1e-6)
	for i := 0; i < 12; i++ {
		x := rng.Float64() * 6
		if err := g.Add([]float64{x}, math.Sin(x)); err != nil {
			t.Fatal(err)
		}
	}
	grad := g.Grad()
	base := g.Kernel().Params(nil)
	const h = 1e-5
	for j := range base {
		at := func(delta float64) float64 {
			p := append([]float64(nil), base...)
			p[j] += delta
			g.Kernel().SetParams(p)
			if err := g.Fit(); err != nil {
				t.Fatal(err)
			}
			return g.LogLikelihood()
		}
		fd := (at(h) - at(-h)) / (2 * h)
		if math.Abs(fd-grad[j]) > 1e-4*(1+math.Abs(fd)) {
			t.Errorf("grad[%d] = %g, finite diff %g", j, grad[j], fd)
		}
	}
	// Restore.
	g.Kernel().SetParams(base)
	if err := g.Fit(); err != nil {
		t.Fatal(err)
	}
}

// Diagonal Hessian vs. finite differences.
func TestHessFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := New(kernel.NewSqExp(1.1, 1.1), 1e-6)
	for i := 0; i < 10; i++ {
		x := rng.Float64() * 6
		if err := g.Add([]float64{x}, math.Cos(x)); err != nil {
			t.Fatal(err)
		}
	}
	_, hess := g.GradHess()
	base := g.Kernel().Params(nil)
	const h = 1e-4
	for j := range base {
		at := func(delta float64) float64 {
			p := append([]float64(nil), base...)
			p[j] += delta
			g.Kernel().SetParams(p)
			if err := g.Fit(); err != nil {
				t.Fatal(err)
			}
			return g.LogLikelihood()
		}
		fd := (at(h) - 2*at(0) + at(-h)) / (h * h)
		if math.Abs(fd-hess[j]) > 1e-2*(1+math.Abs(fd)) {
			t.Errorf("hess[%d] = %g, finite diff %g", j, hess[j], fd)
		}
	}
	g.Kernel().SetParams(base)
	if err := g.Fit(); err != nil {
		t.Fatal(err)
	}
}

func TestTrainImprovesLikelihood(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// Deliberately mis-specified initial lengthscale.
	g := New(kernel.NewSqExp(0.3, 5), 1e-6)
	for i := 0; i < 20; i++ {
		x := rng.Float64() * 10
		if err := g.Add([]float64{x}, math.Sin(x)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := g.Train(TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLogLik < res.InitialLogLik {
		t.Fatalf("training decreased loglik: %g → %g", res.InitialLogLik, res.FinalLogLik)
	}
	if res.FinalLogLik-res.InitialLogLik < 1 {
		t.Fatalf("training barely improved: %g → %g", res.InitialLogLik, res.FinalLogLik)
	}
	// After training on a sine with unit amplitude, the learned lengthscale
	// should be moderate, not the initial 5.
	se := g.Kernel().(*kernel.SqExp)
	if se.Len > 4 {
		t.Errorf("learned lengthscale %g still at initial scale", se.Len)
	}
}

func TestTrainFewPointsNoop(t *testing.T) {
	g := New(kernel.NewSqExp(1, 1), 0)
	if err := g.Add([]float64{1}, 1); err != nil {
		t.Fatal(err)
	}
	res, err := g.Train(TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 0 {
		t.Fatalf("train on 1 point took %d iters", res.Iters)
	}
}

func TestNewtonStepShrinksNearOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New(kernel.NewSqExp(0.4, 4), 1e-6)
	for i := 0; i < 18; i++ {
		x := rng.Float64() * 10
		if err := g.Add([]float64{x}, math.Sin(x)); err != nil {
			t.Fatal(err)
		}
	}
	before := g.NewtonStep()
	if _, err := g.Train(TrainConfig{MaxIter: 80}); err != nil {
		t.Fatal(err)
	}
	after := g.NewtonStep()
	if after >= before {
		t.Fatalf("Newton step did not shrink after training: %g → %g", before, after)
	}
	if after > 0.5 {
		t.Errorf("Newton step at optimum = %g, want small", after)
	}
}

func TestSamplePosteriorRespectsTrainingData(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := New(kernel.NewSqExp(1, 1), 1e-8)
	f := func(x float64) float64 { return math.Sin(x) }
	for _, x := range []float64{0, 2, 4, 6} {
		if err := g.Add([]float64{x}, f(x)); err != nil {
			t.Fatal(err)
		}
	}
	pts := linspace(0, 6, 13)
	for trial := 0; trial < 5; trial++ {
		s, err := g.SamplePosterior(rng, pts, nil)
		if err != nil {
			t.Fatal(err)
		}
		// At training points, samples must pass (almost) through the data.
		for i, p := range pts {
			if p[0] == 0 || p[0] == 2 || p[0] == 4 || p[0] == 6 {
				if math.Abs(s[i]-f(p[0])) > 1e-2 {
					t.Fatalf("sample at training point %g = %g, want %g", p[0], s[i], f(p[0]))
				}
			}
		}
	}
}

func TestSamplePosteriorCoverage(t *testing.T) {
	// Pointwise: roughly 95% of posterior samples lie within ±2σ.
	rng := rand.New(rand.NewSource(9))
	g := New(kernel.NewSqExp(1, 1), 1e-8)
	for _, x := range []float64{0, 3, 6} {
		if err := g.Add([]float64{x}, math.Sin(x)); err != nil {
			t.Fatal(err)
		}
	}
	probe := [][]float64{{1.5}, {4.5}}
	means, vars := make([]float64, len(probe)), make([]float64, len(probe))
	for i, x := range probe {
		means[i], vars[i] = g.Predict(x)
	}
	const trials = 400
	within := 0
	for trial := 0; trial < trials; trial++ {
		s, err := g.SamplePosterior(rng, probe, nil)
		if err != nil {
			t.Fatal(err)
		}
		ok := true
		for i := range probe {
			if math.Abs(s[i]-means[i]) > 2*math.Sqrt(vars[i]) {
				ok = false
			}
		}
		if ok {
			within++
		}
	}
	frac := float64(within) / trials
	if frac < 0.85 {
		t.Fatalf("±2σ joint coverage = %g, want ≳ 0.9", frac)
	}
}

// Property: incremental Add and batch Fit agree for random point sets.
func TestQuickAddMatchesFit(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		d := 1 + rng.Intn(3)
		xs := make([][]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = make([]float64, d)
			for j := range xs[i] {
				xs[i][j] = rng.Float64() * 10
			}
			ys[i] = rng.NormFloat64()
		}
		// Skip near-duplicate configurations: there the Gram matrix is
		// near-singular, batch Fit may legitimately apply diagonal jitter
		// that the incremental path does not, and the two (both valid)
		// models differ by more than floating-point noise.
		for i := range xs {
			for j := i + 1; j < len(xs); j++ {
				if mat.Dist2(xs[i], xs[j]) < 5e-2 {
					return true
				}
			}
		}
		inc := New(kernel.NewSqExp(1, 1), 1e-8)
		for i := range xs {
			if err := inc.Add(xs[i], ys[i]); err != nil {
				return true // duplicate-ish points: skip case
			}
		}
		batch := New(kernel.NewSqExp(1, 1), 1e-8)
		if err := batch.AddBatch(xs, ys); err != nil {
			return true
		}
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.Float64() * 10
		}
		m1, v1 := inc.Predict(x)
		m2, v2 := batch.Predict(x)
		// SE-kernel Gram matrices are famously ill-conditioned, so allow
		// conditioning-amplified float noise on O(1) outputs.
		return math.Abs(m1-m2) < 1e-4 && math.Abs(v1-v2) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPredict100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := New(kernel.NewSqExp(1, 1), 1e-8)
	for i := 0; i < 100; i++ {
		if err := g.Add([]float64{rng.Float64() * 10, rng.Float64() * 10}, rng.NormFloat64()); err != nil {
			b.Fatal(err)
		}
	}
	x := []float64{5, 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Predict(x)
	}
}

func BenchmarkAdd100th(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	xs := make([][]float64, 100)
	ys := make([]float64, 100)
	for i := range xs {
		xs[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
		ys[i] = rng.NormFloat64()
	}
	base := New(kernel.NewSqExp(1, 1), 1e-8)
	if err := base.AddBatch(xs[:99], ys[:99]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := New(kernel.NewSqExp(1, 1), 1e-8)
		if err := g.AddBatch(xs[:99], ys[:99]); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := g.Add(xs[99], ys[99]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrain20(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	xs := make([][]float64, 20)
	ys := make([]float64, 20)
	for i := range xs {
		x := rng.Float64() * 10
		xs[i] = []float64{x}
		ys[i] = math.Sin(x)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := New(kernel.NewSqExp(0.5, 3), 1e-6)
		if err := g.AddBatch(xs, ys); err != nil {
			b.Fatal(err)
		}
		if _, err := g.Train(TrainConfig{MaxIter: 15}); err != nil {
			b.Fatal(err)
		}
	}
}
