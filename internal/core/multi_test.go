package core

import (
	"math"
	"math/rand"
	"testing"

	"olgapro/internal/kernel"
	"olgapro/internal/udf"
)

// vectorUDF: f(x) = (sin-bump, linear trend) over 2-D input.
func vectorUDF() MultiFunc {
	return MultiFuncOf{D: 2, K: 2, F: func(x []float64, out []float64) []float64 {
		if cap(out) < 2 {
			out = make([]float64, 2)
		}
		out = out[:2]
		out[0] = math.Exp(-((x[0]-5)*(x[0]-5) + (x[1]-5)*(x[1]-5)) / 8)
		out[1] = 0.1*x[0] + 0.05*x[1]
		return out
	}}
}

func TestMultiEvaluatorBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, err := NewMultiEvaluator(vectorUDF(), Config{Kernel: kernel.NewSqExp(0.5, 2)})
	if err != nil {
		t.Fatal(err)
	}
	input := gaussianInput([]float64{5, 5}, 0.4)
	outs, err := m.Eval(input, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("%d outputs", len(outs))
	}
	// Component 0 peaks at 1 near (5,5); component 1 ≈ 0.75.
	if med := outs[0].Dist.Quantile(0.5); med < 0.7 || med > 1.05 {
		t.Fatalf("component 0 median %g", med)
	}
	if med := outs[1].Dist.Quantile(0.5); math.Abs(med-0.75) > 0.1 {
		t.Fatalf("component 1 median %g, want ≈ 0.75", med)
	}
}

func TestMultiEvaluatorSharesUDFCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, err := NewMultiEvaluator(vectorUDF(), Config{Kernel: kernel.NewSqExp(0.5, 2)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := m.Eval(gaussianInput(randomCenter(rng, 2), 0.4), rng); err != nil {
			t.Fatal(err)
		}
	}
	// The components bootstrap from the same samples, so shared points are
	// fetched from the cache: distinct vector evaluations must be below the
	// per-component sum.
	perComponentSum := m.Component(0).Stats().UDFCalls + m.Component(1).Stats().UDFCalls
	if m.UDFCalls() >= perComponentSum {
		t.Fatalf("cache saved nothing: %d distinct vs %d component calls",
			m.UDFCalls(), perComponentSum)
	}
}

func TestMultiEvaluatorIndependentKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, err := NewMultiEvaluator(vectorUDF(), Config{
		Kernel: kernel.NewSqExp(0.5, 3), Retrain: RetrainEager,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := m.Eval(gaussianInput(randomCenter(rng, 2), 0.4), rng); err != nil {
			t.Fatal(err)
		}
	}
	k0 := m.Component(0).Config().Kernel.(*kernel.SqExp)
	k1 := m.Component(1).Config().Kernel.(*kernel.SqExp)
	if k0 == k1 {
		t.Fatal("components share a kernel instance")
	}
}

func TestMultiEvaluatorValidation(t *testing.T) {
	if _, err := NewMultiEvaluator(nil, Config{}); err == nil {
		t.Error("nil func should fail")
	}
	bad := MultiFuncOf{D: 0, K: 1, F: nil}
	if _, err := NewMultiEvaluator(bad, Config{}); err == nil {
		t.Error("zero input dim should fail")
	}
	bad2 := MultiFuncOf{D: 1, K: 0, F: nil}
	if _, err := NewMultiEvaluator(bad2, Config{}); err == nil {
		t.Error("zero output dim should fail")
	}
}

func TestVecCache(t *testing.T) {
	calls := 0
	f := MultiFuncOf{D: 1, K: 2, F: func(x []float64, out []float64) []float64 {
		calls++
		return []float64{x[0], 2 * x[0]}
	}}
	c := newVecCache(f)
	a := c.eval([]float64{3})
	b := c.eval([]float64{3})
	if calls != 1 {
		t.Fatalf("cache missed: %d calls", calls)
	}
	if a[0] != b[0] || a[1] != 6 {
		t.Fatalf("cached values wrong: %v %v", a, b)
	}
	c.eval([]float64{4})
	if calls != 2 || c.Calls() != 2 {
		t.Fatalf("distinct point should evaluate: %d", calls)
	}
}

func TestPointKeyDistinguishes(t *testing.T) {
	if pointKey([]float64{1, 2}) == pointKey([]float64{2, 1}) {
		t.Fatal("key collision for permuted points")
	}
	if pointKey([]float64{0}) == pointKey([]float64{math.Copysign(0, -1)}) {
		// −0.0 and +0.0 have different bit patterns; both orders acceptable,
		// but they must at least not panic. Nothing to assert beyond that.
		t.Log("note: -0.0 and +0.0 share a key only if bits match")
	}
}

// Parallel inference must produce bit-identical results to sequential.
func TestParallelInferenceMatchesSequential(t *testing.T) {
	f := udf.Standard(udf.F3, 21)
	build := func(par int) ([]float64, []float64) {
		rng := rand.New(rand.NewSource(7))
		e, err := NewEvaluator(f, Config{
			Kernel: kernel.NewSqExp(0.5, 1.5), Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Seed a model.
		for i := 0; i < 30; i++ {
			x := []float64{rng.Float64() * 10, rng.Float64() * 10}
			if err := e.AddTrainingAt(x); err != nil {
				continue
			}
		}
		samples := make([][]float64, 600)
		srng := rand.New(rand.NewSource(9))
		in := gaussianInput([]float64{5, 5}, 0.5)
		for i := range samples {
			samples[i] = in.SampleVec(srng, nil)
		}
		ids, gamma := e.selectLocal(samples, e.scratch.box.bounding(samples), e.gammaThreshold())
		var lc localCtx
		if err := e.buildLocal(&lc, ids, gamma); err != nil {
			t.Fatal(err)
		}
		means := make([]float64, len(samples))
		vars := make([]float64, len(samples))
		lc.predictInto(e, samples, means, vars, 0, len(samples))
		return means, vars
	}
	m1, v1 := build(1)
	m8, v8 := build(8)
	for i := range m1 {
		if m1[i] != m8[i] || v1[i] != v8[i] {
			t.Fatalf("parallel result differs at %d: (%g,%g) vs (%g,%g)",
				i, m1[i], v1[i], m8[i], v8[i])
		}
	}
}

func TestParallelEvalEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := udf.Standard(udf.F1, 22)
	e, err := NewEvaluator(f, Config{
		Kernel: kernel.NewSqExp(0.5, 2), Parallelism: -1, // GOMAXPROCS
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Config().Parallelism < 1 {
		t.Fatalf("negative parallelism not resolved: %d", e.Config().Parallelism)
	}
	out, err := e.Eval(gaussianInput([]float64{5, 5}, 0.5), rng)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dist == nil || out.Bound <= 0 {
		t.Fatal("parallel eval produced no usable output")
	}
}
