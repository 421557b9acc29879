package core

import (
	"math"
	"math/rand"
	"testing"

	"olgapro/internal/ecdf"
	"olgapro/internal/kernel"
	"olgapro/internal/udf"
)

// conformanceCase is one statistical-conformance workload: an analytic UDF
// whose true per-sample outputs are computable exactly, so the returned
// distribution can be compared against ground truth on the very samples the
// evaluator inferred.
type conformanceCase struct {
	name   string
	seed   int64
	tuples int
	m      int
	dim    int
	span   float64 // input centers drawn from [mid−span, mid+span]^d
	kern   kernel.Kernel
	f      func(x []float64) float64
	heavy  bool
	// sparseBudget > 0 runs the case on the budgeted sparse emulator.
	sparseBudget  int
	sparseInflate float64
}

// TestStatisticalConformance is the (ε, δ) contract suite: over hundreds of
// seeded tuples it checks that the returned error bound really dominates the
// realized error. Per tuple, the true output distribution over the *same*
// Monte-Carlo samples (so no sampling error enters) must satisfy
//
//	KS(Ŷ′, Y_true)  ≤ ε_GP reported (out.BoundGP)
//	λ-disc(Ŷ′, Y_true) ≤ ε_GP reported
//
// whenever the true function lies inside the confidence envelope — an event
// of probability ≥ 1−δ_GP — so violations may occur at rate at most δ. Any
// future perf PR that silently breaks the bound computation (envelope order,
// discrepancy merge, rank-1 tuning trials) trips this suite.
func TestStatisticalConformance(t *testing.T) {
	cases := []conformanceCase{
		{
			name: "sin_quadratic_1d", seed: 101, tuples: 200, m: 256, dim: 1, span: 4,
			kern: kernel.NewSqExp(1, 1.0),
			f:    func(x []float64) float64 { return math.Sin(2*x[0]) + 0.5*x[0]*x[0] },
		},
		{
			name: "smooth_2d_matern", seed: 202, tuples: 220, m: 300, dim: 2, span: 1.5,
			kern:  kernel.NewMatern52(1, 1.2),
			f:     func(x []float64) float64 { return math.Cos(x[0]) * (1 + 0.3*x[1]) },
			heavy: true,
		},
		{
			name: "waves_1d", seed: 303, tuples: 200, m: 300, dim: 1, span: 2,
			kern:  kernel.NewSqExp(1, 0.4),
			f:     func(x []float64) float64 { return math.Sin(3*x[0]) + 0.1*x[0]*x[0] },
			heavy: true,
		},
		// The same contract must hold on the budgeted sparse path: the
		// inducing-point approximation error hides inside the inflated
		// predictive variance, so the reported ε_GP stays a valid bound at
		// any budget. Budgets chosen well below the point counts the
		// workloads reach, so admission, absorption, and swap maintenance
		// all exercise. The first case doubles as the -short race-job smoke.
		{
			name: "sparse_b24_sin_quadratic_1d", seed: 404, tuples: 120, m: 256, dim: 1, span: 4,
			kern:         kernel.NewSqExp(1, 1.0),
			f:            func(x []float64) float64 { return math.Sin(2*x[0]) + 0.5*x[0]*x[0] },
			sparseBudget: 24,
		},
		{
			name: "sparse_b64_sin_quadratic_1d", seed: 505, tuples: 200, m: 256, dim: 1, span: 4,
			kern:         kernel.NewSqExp(1, 1.0),
			f:            func(x []float64) float64 { return math.Sin(2*x[0]) + 0.5*x[0]*x[0] },
			sparseBudget: 64, heavy: true,
		},
		{
			name: "sparse_b160_smooth_2d", seed: 606, tuples: 180, m: 300, dim: 2, span: 1.5,
			kern:         kernel.NewMatern52(1, 1.2),
			f:            func(x []float64) float64 { return math.Cos(x[0]) * (1 + 0.3*x[1]) },
			sparseBudget: 160, heavy: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("heavy conformance case skipped in -short")
			}
			runConformance(t, tc)
		})
	}
}

func runConformance(t *testing.T, tc conformanceCase) {
	t.Helper()
	e, err := NewEvaluator(udf.FuncOf{D: tc.dim, F: tc.f}, Config{
		Eps: 0.1, Delta: 0.05,
		Kernel:         tc.kern,
		SampleOverride: tc.m,
		MaxAddPerInput: 15,
		SparseBudget:   tc.sparseBudget,
		SparseInflate:  tc.sparseInflate,
	})
	if err != nil {
		t.Fatal(err)
	}
	delta := e.Config().Delta
	rng := rand.New(rand.NewSource(tc.seed))
	samples := make([][]float64, tc.m)
	trueOuts := make([]float64, tc.m)
	ksViolations, discViolations := 0, 0
	metLateBudget, lateTuples := 0, 0
	for tup := 0; tup < tc.tuples; tup++ {
		center := make([]float64, tc.dim)
		for j := range center {
			center[j] = 5 + tc.span*(2*rng.Float64()-1)
		}
		for i := range samples {
			row := make([]float64, tc.dim)
			for j := range row {
				row[j] = center[j] + 0.3*rng.NormFloat64()
			}
			samples[i] = row
		}
		out, err := e.EvalSamples(samples, rng)
		if err != nil {
			t.Fatalf("tuple %d: %v", tup, err)
		}
		if out.Dist == nil {
			t.Fatalf("tuple %d: no distribution returned", tup)
		}
		if out.BoundGP < 0 {
			t.Fatalf("tuple %d: negative GP bound %g", tup, out.BoundGP)
		}
		if got := out.BoundGP + out.BoundMC; math.Abs(got-out.Bound) > 1e-12 {
			t.Fatalf("tuple %d: bound decomposition %g ≠ %g", tup, got, out.Bound)
		}
		if tup >= tc.tuples/2 {
			lateTuples++
			if out.MetBudget {
				metLateBudget++
			}
		}
		if tc.sparseBudget > 0 {
			if got := e.Sparse().InducingLen(); got > tc.sparseBudget {
				t.Fatalf("tuple %d: inducing set %d exceeds budget %d", tup, got, tc.sparseBudget)
			}
			if out.LocalPoints > tc.sparseBudget {
				t.Fatalf("tuple %d: LocalPoints %d exceeds budget %d", tup, out.LocalPoints, tc.sparseBudget)
			}
		}
		for i, x := range samples {
			trueOuts[i] = tc.f(x)
		}
		truth := ecdf.New(trueOuts)
		tol := 1e-9
		if ks := ecdf.KS(out.Dist, truth); ks > out.BoundGP+tol {
			ksViolations++
		}
		if d := ecdf.DiscrepancyLambda(out.Dist, truth, out.Lambda); d > out.BoundGP+tol {
			discViolations++
		}
	}
	// The envelope holds with probability ≥ 1−δ_GP per tuple; δ (total) is a
	// generous ceiling for the violation rate and still orders of magnitude
	// below what a broken bound computation produces.
	maxViol := int(math.Ceil(delta * float64(tc.tuples)))
	if ksViolations > maxViol {
		t.Errorf("KS bound violated on %d/%d tuples (allowed %d): reported ε_GP fails to dominate the realized KS error",
			ksViolations, tc.tuples, maxViol)
	}
	if discViolations > maxViol {
		t.Errorf("λ-discrepancy bound violated on %d/%d tuples (allowed %d)",
			discViolations, tc.tuples, maxViol)
	}
	// Once the model has seen half the stream it should meet the ε_GP budget
	// on most tuples (Bound ≤ ε) — the operational usefulness half of the
	// contract; validity alone is satisfiable by an infinitely wide envelope.
	if lateTuples > 0 && float64(metLateBudget) < 0.8*float64(lateTuples) {
		t.Errorf("only %d/%d late tuples met the ε_GP budget", metLateBudget, lateTuples)
	}
	t.Logf("%s: %d tuples, KS violations %d, λ-disc violations %d (allowed %d), training points %d, late budget hits %d/%d",
		tc.name, tc.tuples, ksViolations, discViolations, maxViol, e.Points(), metLateBudget, lateTuples)
}

// TestSparseDifferentialMeans trains an exact evaluator and a budgeted
// sparse evaluator on the identical point stream (same kernel, same
// hyperparameters, no retraining) and checks that everywhere in the domain
// the sparse posterior mean stays within a few inflated standard deviations
// of the exact posterior mean. This is the differential half of the sparse
// conformance story: the inflated DTC variance must be an honest measure of
// how far the budgeted mean can sit from the model it approximates — if the
// sparse mean drifted outside its own band relative to exact, the §4.2
// envelope machinery would inherit an invalid ε_GP.
func TestSparseDifferentialMeans(t *testing.T) {
	f := func(x []float64) float64 { return math.Sin(2*x[0]) + 0.5*x[0]*x[1] }
	mk := func(budget int) *Evaluator {
		e, err := NewEvaluator(udf.FuncOf{D: 2, F: f}, Config{
			Eps: 0.1, Delta: 0.05,
			// Amplitude matched to the data scale (var y ≈ 5 over the domain):
			// with retraining disabled the calibration in gp.Sparse.Train
			// never runs, and a prior orders of magnitude under the data
			// variance would standardize real mean error by an arbitrarily
			// small band. Deployment keeps the two aligned automatically.
			Kernel:       kernel.NewSqExp(2.5, 0.8),
			SparseBudget: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	exact := mk(0)
	for _, budget := range []int{32, 96} {
		sp := mk(budget)
		rng := rand.New(rand.NewSource(707))
		for i := 0; i < 400; i++ {
			x := []float64{4 * rng.Float64(), 4 * rng.Float64()}
			if err := exact.AddTrainingAt(x); err != nil {
				t.Fatal(err)
			}
			if err := sp.AddTrainingAt(x); err != nil {
				t.Fatal(err)
			}
		}
		// Queries are perturbations of training inputs — the localized regime
		// §4 inference actually runs in (MC samples scatter around tuple
		// means the tuner has trained near). The pinned property is the one
		// ε_GP validity actually needs: at every query the sparse mean is
		// either inside its own inflated band around the exact mean, or its
		// absolute gap is a small fraction of λ = 1% of the range — too
		// small to move any envelope straddle of the λ-grid. Pointwise
		// z-scores alone are the wrong metric: where the basis is locally
		// dense, DTC variance shrinks to the jitter floor while a budgeted
		// basis necessarily keeps O(range·1e-4) mean error, so z can be
		// large exactly where the error is operationally negligible.
		var yMin, yMax = math.Inf(1), math.Inf(-1)
		for i := 0; i < exact.Points(); i++ {
			y := exact.GP().Y(i)
			yMin, yMax = math.Min(yMin, y), math.Max(yMax, y)
		}
		lamFloor := 0.1 * 0.01 * (yMax - yMin)
		worstZ, worstGap := 0.0, 0.0
		for q := 0; q < 500; q++ {
			base := sp.Sparse().X(rng.Intn(sp.Points()))
			x := []float64{base[0] + 0.15*rng.NormFloat64(), base[1] + 0.15*rng.NormFloat64()}
			em, _ := exact.GP().Predict(x)
			sm, sv := sp.Sparse().Predict(x)
			if sv <= 0 {
				t.Fatalf("budget %d: non-positive sparse variance %g at %v", budget, sv, x)
			}
			gap := math.Abs(sm - em)
			if gap > 5*math.Sqrt(sv) && gap > lamFloor {
				t.Errorf("budget %d: sparse mean gap %.3g at %v exceeds both 5 inflated σ (%.3g) and 0.1λ (%.3g)",
					budget, gap, x, 5*math.Sqrt(sv), lamFloor)
			}
			if z := gap / math.Sqrt(sv); z > worstZ {
				worstZ = z
			}
			if gap > worstGap {
				worstGap = gap
			}
		}
		t.Logf("budget %d: worst gap %.3g (0.1λ = %.3g), worst z %.2fσ over 500 queries", budget, worstGap, lamFloor, worstZ)
		if exact.Points() != sp.Points() {
			t.Fatalf("training streams diverged: %d vs %d", exact.Points(), sp.Points())
		}
		exact = mk(0)
	}
}
