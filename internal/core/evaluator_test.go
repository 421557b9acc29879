package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"olgapro/internal/dist"
	"olgapro/internal/ecdf"
	"olgapro/internal/kernel"
	"olgapro/internal/mc"
	"olgapro/internal/udf"
)

// gaussianInput returns an isotropic Gaussian input centered in the domain.
func gaussianInput(mu []float64, sigma float64) dist.Vector {
	v, err := dist.IsoGaussianVec(mu, sigma)
	if err != nil {
		panic(err)
	}
	return v
}

// randomCenter draws an input mean inside [1, 9]^d.
func randomCenter(rng *rand.Rand, d int) []float64 {
	mu := make([]float64, d)
	for i := range mu {
		mu[i] = 1 + 8*rng.Float64()
	}
	return mu
}

func TestNewEvaluatorValidation(t *testing.T) {
	f := udf.Standard(udf.F1, 1)
	if _, err := NewEvaluator(f, Config{Eps: 1.5}); err == nil {
		t.Error("ε ≥ 1 should be rejected")
	}
	if _, err := NewEvaluator(nil, Config{}); err == nil {
		t.Error("nil UDF should be rejected")
	}
	e, err := NewEvaluator(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Paper defaults.
	cfg := e.Config()
	if cfg.Eps != 0.1 || cfg.Delta != 0.05 || cfg.MCFrac != 0.7 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
	epsMC, epsGP, dMC, dGP := cfg.Split()
	if math.Abs(epsMC-0.07) > 1e-12 || math.Abs(epsGP-0.03) > 1e-12 {
		t.Errorf("ε split = %g/%g", epsMC, epsGP)
	}
	if math.Abs((1-dMC)*(1-dGP)-(1-0.05)) > 1e-12 {
		t.Errorf("δ split does not compose: %g %g", dMC, dGP)
	}
	if e.SampleBudget() != mc.SampleSize(epsMC, dMC, mc.MetricDiscrepancy) {
		t.Errorf("sample budget %d", e.SampleBudget())
	}
}

func TestEvalDimMismatch(t *testing.T) {
	e, err := NewEvaluator(udf.Standard(udf.F1, 1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := e.Eval(gaussianInput([]float64{5}, 0.5), rng); err == nil {
		t.Fatal("dim mismatch should error")
	}
}

func TestEvalProducesBoundedOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := udf.Standard(udf.F1, 3)
	e, err := NewEvaluator(f, Config{Kernel: kernel.NewSqExp(0.5, 2)})
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Eval(gaussianInput([]float64{5, 5}, 0.5), rng)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dist == nil || out.Dist.Len() != e.SampleBudget() {
		t.Fatalf("missing/truncated distribution")
	}
	if out.Bound != out.BoundGP+out.BoundMC {
		t.Errorf("Bound %g ≠ GP %g + MC %g", out.Bound, out.BoundGP, out.BoundMC)
	}
	if out.ZAlpha < 1.9 {
		t.Errorf("z_α = %g implausibly narrow", out.ZAlpha)
	}
	if out.UDFCalls == 0 || out.PointsAdded == 0 {
		t.Errorf("first input should add training points: calls=%d added=%d", out.UDFCalls, out.PointsAdded)
	}
	if out.LocalPoints == 0 {
		t.Errorf("no local points used")
	}
	if out.Lambda <= 0 {
		t.Errorf("λ = %g", out.Lambda)
	}
}

// The core accuracy contract: after the evaluator converges, the returned
// distribution is within the total bound of a high-resolution ground truth,
// and the bound itself meets the ε budget (paper Expt 4 verifies "the
// accuracy requirement ε is always satisfied").
func TestAccuracyAgainstGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := udf.Standard(udf.F3, 1)
	e, err := NewEvaluator(f, Config{
		Eps: 0.1, Delta: 0.05,
		Kernel:         kernel.NewSqExp(0.5, 1.5),
		MaxAddPerInput: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Warm up on a stream of inputs.
	for i := 0; i < 15; i++ {
		if _, err := e.Eval(gaussianInput(randomCenter(rng, 2), 0.5), rng); err != nil {
			t.Fatal(err)
		}
	}
	// Now check fresh inputs against ground truth.
	checked, violations := 0, 0
	for i := 0; i < 5; i++ {
		input := gaussianInput(randomCenter(rng, 2), 0.5)
		out, err := e.Eval(input, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !out.MetBudget {
			continue // bound did not converge for this region yet
		}
		truth := mc.GroundTruth(f, input, 60000, rng)
		actual := ecdf.DiscrepancyLambda(out.Dist, truth, out.Lambda)
		checked++
		if actual > out.Bound+0.02 {
			violations++
			t.Logf("input %d: actual %g > bound %g", i, actual, out.Bound)
		}
	}
	if checked == 0 {
		t.Fatal("no inputs converged within budget")
	}
	if violations > 0 {
		t.Fatalf("%d/%d ground-truth violations", violations, checked)
	}
}

// Bumpy functions need more training points than flat ones (Profile 1 /
// Expt 4 shape).
func TestComplexityDrivesTrainingSetSize(t *testing.T) {
	points := make(map[udf.Family]int)
	for _, fam := range []udf.Family{udf.F1, udf.F4} {
		rng := rand.New(rand.NewSource(4))
		f := udf.Standard(fam, 5)
		e, err := NewEvaluator(f, Config{
			Kernel:         kernel.NewSqExp(0.5, 1.5),
			MaxAddPerInput: 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			if _, err := e.Eval(gaussianInput(randomCenter(rng, 2), 0.5), rng); err != nil {
				t.Fatal(err)
			}
		}
		points[fam] = e.Stats().TrainingPoints
	}
	if points[udf.F4] <= points[udf.F1] {
		t.Fatalf("F4 (%d points) should need more than F1 (%d points)",
			points[udf.F4], points[udf.F1])
	}
}

func TestConvergenceReducesUDFCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := udf.Standard(udf.F1, 6)
	counter := udf.NewCounter(f, 0, nil)
	e, err := NewEvaluator(counter, Config{Kernel: kernel.NewSqExp(0.5, 2)})
	if err != nil {
		t.Fatal(err)
	}
	input := gaussianInput([]float64{5, 5}, 0.5)
	var early, late int
	for i := 0; i < 20; i++ {
		before := counter.Calls()
		if _, err := e.Eval(input, rng); err != nil {
			t.Fatal(err)
		}
		calls := counter.Calls() - before
		if i < 5 {
			early += calls
		}
		if i >= 15 {
			late += calls
		}
	}
	if late >= early {
		t.Fatalf("UDF calls did not decay: first-5 %d, last-5 %d", early, late)
	}
	if late > 2 {
		t.Fatalf("converged evaluator still calls the UDF: %d in last 5 inputs", late)
	}
}

func TestMaxAddPerInputRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := udf.Standard(udf.F4, 7)
	e, err := NewEvaluator(f, Config{MaxAddPerInput: 3, Kernel: kernel.NewSqExp(0.5, 1)})
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Eval(gaussianInput([]float64{5, 5}, 0.5), rng)
	if err != nil {
		t.Fatal(err)
	}
	// Bootstrap adds up to 2 points beyond the tuning cap.
	if out.PointsAdded > 3+2 {
		t.Fatalf("PointsAdded = %d exceeds cap", out.PointsAdded)
	}
}

func TestLocalInferenceRespectsGamma(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := udf.Standard(udf.F3, 8)
	e, err := NewEvaluator(f, Config{Kernel: kernel.NewSqExp(0.5, 1.2), MaxAddPerInput: 15})
	if err != nil {
		t.Fatal(err)
	}
	// Populate the model across the domain.
	for i := 0; i < 10; i++ {
		if _, err := e.Eval(gaussianInput(randomCenter(rng, 2), 0.5), rng); err != nil {
			t.Fatal(err)
		}
	}
	if e.GP().Len() < 12 {
		t.Skipf("too few training points (%d) to exercise local inference", e.GP().Len())
	}
	// Select a local subset for a concentrated input and verify the γ
	// contract: |global mean − local mean| ≤ γ ≤ Γ at every sample.
	samples := make([][]float64, 200)
	input := gaussianInput([]float64{3, 3}, 0.3)
	for i := range samples {
		samples[i] = input.SampleVec(rng, nil)
	}
	gammaThresh := e.gammaThreshold()
	ids, gamma := e.selectLocal(samples, e.scratch.box.bounding(samples), gammaThresh)
	if gamma > gammaThresh {
		t.Fatalf("γ = %g exceeds Γ = %g", gamma, gammaThresh)
	}
	var lc localCtx
	if err := e.buildLocal(&lc, ids, gamma); err != nil {
		t.Fatal(err)
	}
	if len(ids) < e.GP().Len() {
		// Only meaningful when something was actually excluded.
		var pb predictBuf
		for _, s := range samples {
			localMean, _ := lc.predict(e, s, &pb)
			globalMean := e.GP().PredictMean(s)
			if diff := math.Abs(globalMean - localMean); diff > gamma+1e-9 {
				t.Fatalf("local mean deviates %g > γ %g", diff, gamma)
			}
		}
	}
}

func TestGlobalInferenceUsesAllPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := udf.Standard(udf.F1, 9)
	e, err := NewEvaluator(f, Config{GlobalInference: true, Kernel: kernel.NewSqExp(0.5, 2)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		out, err := e.Eval(gaussianInput(randomCenter(rng, 2), 0.5), rng)
		if err != nil {
			t.Fatal(err)
		}
		if out.LocalPoints != e.GP().Len() {
			t.Fatalf("global inference used %d of %d points", out.LocalPoints, e.GP().Len())
		}
	}
}

func TestRetrainPolicies(t *testing.T) {
	run := func(cfg Config) Stats {
		rng := rand.New(rand.NewSource(9))
		f := udf.Standard(udf.F3, 10)
		cfg.Kernel = kernel.NewSqExp(0.5, 3) // deliberately long initial ℓ
		e, err := NewEvaluator(f, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if _, err := e.Eval(gaussianInput(randomCenter(rng, 2), 0.5), rng); err != nil {
				t.Fatal(err)
			}
		}
		return e.Stats()
	}
	never := run(Config{Retrain: RetrainNever})
	if never.Retrainings != 0 {
		t.Fatalf("RetrainNever retrained %d times", never.Retrainings)
	}
	eager := run(Config{Retrain: RetrainEager})
	if eager.Retrainings == 0 {
		t.Fatal("RetrainEager never retrained")
	}
	huge := run(Config{Retrain: RetrainThreshold, DeltaTheta: 1e9})
	if huge.Retrainings != 0 {
		t.Fatalf("Δθ=1e9 still retrained %d times", huge.Retrainings)
	}
	small := run(Config{Retrain: RetrainThreshold, DeltaTheta: 1e-6})
	if small.Retrainings == 0 {
		t.Fatal("Δθ=1e-6 never retrained")
	}
	if small.Retrainings > eager.Retrainings {
		t.Fatalf("threshold retrained more (%d) than eager (%d)", small.Retrainings, eager.Retrainings)
	}
}

func TestOnlineFilteringDropsAndKeeps(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	f := udf.Standard(udf.F1, 11)
	// F1 outputs live in roughly [0, 1]; a predicate on [50, 60] never hits.
	e, err := NewEvaluator(f, Config{
		Predicate: &mc.Predicate{A: 50, B: 60, Theta: 0.1},
		Kernel:    kernel.NewSqExp(0.5, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	input := gaussianInput([]float64{5, 5}, 0.5)
	// Warm up once (the first input pays for bootstrap/tuning).
	if _, err := e.Eval(input, rng); err != nil {
		t.Fatal(err)
	}
	out, err := e.Eval(input, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Filtered {
		t.Fatal("impossible predicate not filtered")
	}
	if out.SamplesInferred >= out.Samples {
		t.Fatalf("filtering did not stop early: %d of %d", out.SamplesInferred, out.Samples)
	}
	if out.Dist != nil {
		t.Fatal("filtered tuple returned a distribution")
	}

	// A predicate over the whole output range must never filter.
	e2, err := NewEvaluator(f, Config{
		Predicate: &mc.Predicate{A: -100, B: 100, Theta: 0.1},
		Kernel:    kernel.NewSqExp(0.5, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	out2, err := e2.Eval(input, rng)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Filtered {
		t.Fatal("always-true predicate filtered")
	}
	if out2.TEPUpper < 0.95 {
		t.Fatalf("TEP upper = %g, want ≈ 1", out2.TEPUpper)
	}
	if out2.TEPLower > out2.TEPUpper {
		t.Fatalf("TEP bounds inverted: [%g, %g]", out2.TEPLower, out2.TEPUpper)
	}
}

func TestTuningPoliciesProduceValidOutputs(t *testing.T) {
	for _, pol := range []TuningPolicy{TuneMaxVariance, TuneRandom, TuneOptimalGreedy} {
		t.Run(pol.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			f := udf.Standard(udf.F3, 12)
			e, err := NewEvaluator(f, Config{
				Tuning: pol,
				Kernel: kernel.NewSqExp(0.5, 1.5),
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				out, err := e.Eval(gaussianInput(randomCenter(rng, 2), 0.5), rng)
				if err != nil {
					t.Fatal(err)
				}
				if out.Dist == nil {
					t.Fatal("no distribution")
				}
			}
		})
	}
}

// The paper's max-variance heuristic should converge with fewer training
// points than random placement (Expt 2 shape).
func TestMaxVarianceBeatsRandom(t *testing.T) {
	// Repeated evaluation of the same input region: the policy that places
	// points well converges with far fewer of them.
	count := func(pol TuningPolicy) int {
		rng := rand.New(rand.NewSource(12))
		f := udf.Standard(udf.F4, 13)
		e, err := NewEvaluator(f, Config{
			Tuning:         pol,
			Kernel:         kernel.NewSqExp(0.5, 1),
			MaxAddPerInput: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		input := gaussianInput([]float64{5, 5}, 0.5)
		for i := 0; i < 20; i++ {
			if _, err := e.Eval(input, rng); err != nil {
				t.Fatal(err)
			}
		}
		return e.Stats().TrainingPoints
	}
	mv := count(TuneMaxVariance)
	rnd := count(TuneRandom)
	// Measured ≈95 vs ≈260; require a clear margin, not just a tie.
	if float64(mv) > 0.8*float64(rnd) {
		t.Fatalf("max-variance used %d points, random %d — expected a clear win", mv, rnd)
	}
}

func TestAddTrainingAtBootstraps(t *testing.T) {
	f := udf.Standard(udf.F1, 14)
	e, err := NewEvaluator(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := e.AddTrainingAt([]float64{float64(2 * i), float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if e.GP().Len() != 5 {
		t.Fatalf("training size %d", e.GP().Len())
	}
	if e.Stats().UDFCalls != 5 {
		t.Fatalf("UDF calls %d", e.Stats().UDFCalls)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	runOnce := func() float64 {
		rng := rand.New(rand.NewSource(42))
		f := udf.Standard(udf.F2, 15)
		e, err := NewEvaluator(f, Config{Kernel: kernel.NewSqExp(0.5, 1.5)})
		if err != nil {
			t.Fatal(err)
		}
		out, err := e.Eval(gaussianInput([]float64{4, 6}, 0.5), rng)
		if err != nil {
			t.Fatal(err)
		}
		return out.Dist.Mean() + out.BoundGP
	}
	if runOnce() != runOnce() {
		t.Fatal("same seed produced different results")
	}
}

func TestHybridPicksMCForCheapUDF(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := udf.Standard(udf.F4, 16) // bumpy: GP needs many points
	h, err := NewHybrid(f, HybridConfig{
		Config:            Config{Kernel: kernel.NewSqExp(0.5, 1)},
		CalibrationInputs: 3,
		EvalTime:          0, // measured: mixture eval is sub-µs
	})
	if err != nil {
		t.Fatal(err)
	}
	var engine Engine
	for i := 0; i < 6; i++ {
		var err error
		_, engine, err = h.Eval(gaussianInput(randomCenter(rng, 2), 0.5), rng)
		if err != nil {
			t.Fatal(err)
		}
	}
	choice, decided := h.Choice()
	if !decided {
		t.Fatal("hybrid never decided")
	}
	if choice != EngineMC || engine != EngineMC {
		t.Fatalf("cheap UDF should route to MC, got %s", choice)
	}
}

func TestHybridPicksGPForExpensiveUDF(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	f := udf.Standard(udf.F1, 17) // smooth: GP converges fast
	h, err := NewHybrid(f, HybridConfig{
		Config:            Config{Kernel: kernel.NewSqExp(0.5, 2)},
		CalibrationInputs: 3,
		EvalTime:          100 * time.Millisecond, // nominal expensive UDF
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := h.Eval(gaussianInput(randomCenter(rng, 2), 0.5), rng); err != nil {
			t.Fatal(err)
		}
	}
	choice, decided := h.Choice()
	if !decided || choice != EngineGP {
		t.Fatalf("expensive UDF should route to GP, got %s (decided=%v)", choice, decided)
	}
}

func TestEngineAndPolicyStrings(t *testing.T) {
	if EngineGP.String() != "GP" || EngineMC.String() != "MC" {
		t.Fatal("engine names")
	}
	if TuneMaxVariance.String() == "" || TuneRandom.String() == "" || TuneOptimalGreedy.String() == "" {
		t.Fatal("tuning names")
	}
	if RetrainThreshold.String() == "" || RetrainEager.String() == "" || RetrainNever.String() == "" {
		t.Fatal("retrain names")
	}
}

// Failure injection: a UDF returning NaN/Inf must produce a clean error,
// never a poisoned model or a panic.
func TestNaNUDFRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	bad := udf.FuncOf{D: 1, F: func(x []float64) float64 { return math.NaN() }}
	e, err := NewEvaluator(bad, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Eval(gaussianInput([]float64{5}, 0.5), rng); err == nil {
		t.Fatal("NaN UDF should error")
	}
	if err := e.AddTrainingAt([]float64{1}); err == nil {
		t.Fatal("AddTrainingAt with NaN should error")
	}
	inf := udf.FuncOf{D: 1, F: func(x []float64) float64 { return math.Inf(1) }}
	e2, err := NewEvaluator(inf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Eval(gaussianInput([]float64{5}, 0.5), rng); err == nil {
		t.Fatal("Inf UDF should error")
	}
}

// Failure injection: a UDF that is fine at first and breaks later must leave
// the evaluator usable with its pre-failure knowledge.
func TestLateUDFFailureLeavesModelUsable(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	calls := 0
	flaky := udf.FuncOf{D: 1, F: func(x []float64) float64 {
		calls++
		if calls > 12 {
			return math.NaN()
		}
		return math.Sin(x[0])
	}}
	e, err := NewEvaluator(flaky, Config{Kernel: kernel.NewSqExp(1, 1.5)})
	if err != nil {
		t.Fatal(err)
	}
	input := gaussianInput([]float64{2}, 0.3)
	// First input trains on good values.
	if _, err := e.Eval(input, rng); err != nil {
		t.Fatal(err)
	}
	points := e.GP().Len()
	if points == 0 {
		t.Fatal("no training happened")
	}
	// Later inputs may fail while the UDF is broken...
	for i := 0; i < 3; i++ {
		_, _ = e.Eval(gaussianInput([]float64{float64(3 + i)}, 0.3), rng)
	}
	// ...but the model keeps its knowledge and predicts sanely where it
	// already converged.
	m, _ := e.GP().Predict([]float64{2})
	if math.Abs(m-math.Sin(2)) > 0.1 {
		t.Fatalf("model poisoned: predict(2) = %g, want ≈ %g", m, math.Sin(2))
	}
}

// An input whose samples overflow (σ = 1e308 puts some at ±∞) gets a NaN
// predictive variance there, so its envelope supports hold NaN. Evaluation must return — an error,
// or an Output whose Bound is the vacuous 1 — and never panic or hang.
func TestHugeSigmaInputReturns(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	square := udf.FuncOf{D: 1, F: func(x []float64) float64 { return x[0] * x[0] }}
	e, err := NewEvaluator(square, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Eval(gaussianInput([]float64{3}, 0.5), rng); err != nil {
		t.Fatal(err)
	}
	out, err := e.Eval(gaussianInput([]float64{3}, 1e308), rng)
	if err == nil && !(out.Bound >= 1) {
		t.Fatalf("σ=1e308: Bound %g with no error, want ≥ 1", out.Bound)
	}
}
