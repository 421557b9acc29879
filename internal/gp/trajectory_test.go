package gp

// Perf-trajectory benchmarks: every Benchmark_<name> here is one row
// <name> of the BENCH_*.json files (`make bench-json` selects them with
// -bench '^Benchmark_').

import (
	"math/rand"
	"testing"

	"olgapro/internal/kernel"
)

// smooth2D is the 2-D test function of the trajectory benchmarks: smooth
// enough for the GP to emulate quickly, nonlinear enough to need a real
// model.
func smooth2D(x []float64) float64 { return x[0]*x[0] + 0.5*x[1] + 0.3*x[0]*x[1] }

// trainedGP builds an n-point GP over [0,1]² with well-separated inputs.
func trainedGP(n int) *GP {
	rng := rand.New(rand.NewSource(42))
	g := New(kernel.NewSqExp(1, 0.3), 1e-6)
	for g.Len() < n {
		x := []float64{rng.Float64(), rng.Float64()}
		if err := g.Add(x, smooth2D(x)); err != nil {
			continue // numerically duplicate draw; try another
		}
	}
	return g
}

// predictInputs draws the 1000 query points of the predict benchmarks.
func predictInputs() (xs [][]float64, means, vars []float64) {
	rng := rand.New(rand.NewSource(7))
	const m = 1000
	xs = make([][]float64, m)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64()}
	}
	return xs, make([]float64, m), make([]float64, m)
}

// Benchmark_predict_batch_steady measures steady-state batch inference
// with caller-provided output buffers: the per-sample loop of Algorithm 5.
func Benchmark_predict_batch_steady(b *testing.B) {
	g := trainedGP(400)
	xs, means, vars := predictInputs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.PredictBatch(xs, means, vars)
	}
}

// Benchmark_predict_batch_scratch measures the same loop through the
// caller-provided-scratch entry point, the form the evaluator hot path
// uses: steady state must be zero allocations per op.
func Benchmark_predict_batch_scratch(b *testing.B) {
	g := trainedGP(400)
	xs, means, vars := predictInputs()
	var s Scratch
	g.PredictBatchWith(&s, xs, means, vars) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.PredictBatchWith(&s, xs, means, vars)
	}
}

// growthData draws the input stream of the growth benchmarks: n points over
// [0,10]², so the exact-vs-sparse growth numbers are comparable.
func growthData(n int) (xs [][]float64, ys []float64) {
	rng := rand.New(rand.NewSource(42))
	xs = make([][]float64, 0, n)
	ys = make([]float64, 0, n)
	for len(xs) < n {
		x := []float64{rng.Float64() * 10, rng.Float64() * 10}
		xs = append(xs, x)
		ys = append(ys, smooth2D(x))
	}
	return xs, ys
}

// Benchmark_gp_add_growth_2000 measures growing a model point-by-point to
// n=2000 via the incremental bordered Cholesky update (paper §5.2).
func Benchmark_gp_add_growth_2000(b *testing.B) {
	xs, ys := growthData(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := New(kernel.NewSqExp(1, 0.3), 1e-6)
		for j := range xs {
			if err := g.Add(xs[j], ys[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchSparseAddGrowth measures growing the budgeted sparse model
// point-by-point to n: the O(m²)-amortized-per-add path that breaks the
// exact model's O(n²)-per-add growth wall. The 8000-point variant, at 4×
// the points, should cost ≈ 4× the 2000-point one (linear in n) where the
// exact model would cost ≈ 64× (cubic aggregate).
func benchSparseAddGrowth(b *testing.B, n int) {
	xs, ys := growthData(n)
	cfg := SparseConfig{Budget: 256, SwapEvery: -1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSparse(kernel.NewSqExp(1, 0.3), 1e-6, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for j := range xs {
			if err := s.Add(xs[j], ys[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func Benchmark_gp_sparse_add_growth_2000(b *testing.B) { benchSparseAddGrowth(b, 2000) }
func Benchmark_gp_sparse_add_growth_8000(b *testing.B) { benchSparseAddGrowth(b, 8000) }

// Benchmark_gp_sparse_predict_steady measures steady-state sparse batch
// inference over the same 1000-point workload as predict_batch_scratch:
// cost is O(budget²) per sample regardless of the 4000 points absorbed.
func Benchmark_gp_sparse_predict_steady(b *testing.B) {
	xs, ys := growthData(4000)
	s, err := NewSparse(kernel.NewSqExp(1, 0.3), 1e-6, SparseConfig{Budget: 256, SwapEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	for j := range xs {
		if err := s.Add(xs[j], ys[j]); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(7))
	const m = 1000
	qs := make([][]float64, m)
	for i := range qs {
		qs[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
	}
	means := make([]float64, m)
	vars := make([]float64, m)
	var sc Scratch
	s.PredictBatchWith(&sc, qs, means, vars) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.PredictBatchWith(&sc, qs, means, vars)
	}
}

// Benchmark_grad_hess_n300 measures the gradient+diagonal-Hessian
// computation driving the online retraining heuristic (§5.3) at n=300.
func Benchmark_grad_hess_n300(b *testing.B) {
	g := trainedGP(300)
	// The first call grows the GP's O(n²) gradient scratch. Warm it outside
	// the timer so allocs/op counts only the steady state: otherwise the
	// dozen setup allocations, amortized over the ~10–14 iterations a run
	// picks, flip the integer count between 2 and 3.
	g.GradHess()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grad, hess := g.GradHess()
		if len(grad) == 0 || len(hess) == 0 {
			b.Fatal("empty gradient")
		}
	}
}
