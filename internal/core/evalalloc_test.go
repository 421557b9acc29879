package core

import (
	"math/rand"
	"testing"

	"olgapro/internal/dist"
	"olgapro/internal/kernel"
	"olgapro/internal/mc"
	"olgapro/internal/udf"
)

// steadyEvaluator converges an evaluator on the benchmark workload so the
// measured EvalSamples calls are pure steady state (no training-point adds,
// no retraining), plus one tuple's sample set — also the setup of the
// eval_samples_steady and filter_fast_path trajectory benchmarks.
func steadyEvaluator(t testing.TB, pred *mc.Predicate) (*Evaluator, [][]float64) {
	t.Helper()
	cfg := Config{
		Kernel:         kernel.NewSqExp(1, 0.5),
		SampleOverride: 1000,
	}
	cfg.Predicate = pred
	f := udf.FuncOf{D: 2, F: func(x []float64) float64 {
		return x[0]*x[0] + 0.5*x[1] + 0.3*x[0]*x[1]
	}}
	ev, err := NewEvaluator(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	in, err := dist.IsoGaussianVec([]float64{0.5, 0.5}, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := ev.Eval(in, rng); err != nil {
			t.Fatal(err)
		}
	}
	samples := make([][]float64, ev.SampleBudget())
	for i := range samples {
		samples[i] = in.SampleVec(rng, nil)
	}
	return ev, samples
}

// The steady-state EvalSamples path allocates only what escapes to the
// caller: the Output struct and its owned envelope (three value slices and
// three ECDF headers), plus the small fixed cost of the band multiplier —
// everything sized by the sample count or the local subset lives in
// evalScratch. The pin is the PR-7 burn-down target; it was 134 before the
// bounding-box, sub-box, and tuning-subset buffers moved into scratch.
func TestEvalSamplesSteadyAllocs(t *testing.T) {
	ev, samples := steadyEvaluator(t, nil)
	rng := rand.New(rand.NewSource(11))
	if _, err := ev.EvalSamples(samples, rng); err != nil {
		t.Fatal(err)
	}
	before := ev.Points()
	allocs := testing.AllocsPerRun(10, func() {
		out, err := ev.EvalSamples(samples, rng)
		if err != nil {
			t.Fatal(err)
		}
		if out.Dist == nil {
			t.Fatal("steady tuple unexpectedly filtered")
		}
	})
	if ev.Points() != before {
		t.Fatalf("workload not steady: model grew %d → %d points", before, ev.Points())
	}
	t.Logf("steady EvalSamples: %.1f allocs per call", allocs)
	if allocs > 12 {
		t.Fatalf("steady EvalSamples allocates %.1f per call, want ≤ 12", allocs)
	}
}

// The chunked filtering fast path drops the tuple after the first inference
// chunk and hands back no distribution, so it must allocate almost nothing:
// the Output struct and the fixed band-multiplier cost. It was 76 allocs/op
// before the PR-7 burn-down.
func TestFilterFastPathAllocs(t *testing.T) {
	pred := &mc.Predicate{A: 100, B: 200, Theta: 0.5}
	ev, samples := steadyEvaluator(t, pred)
	rng := rand.New(rand.NewSource(13))
	if out, err := ev.EvalSamples(samples, rng); err != nil || !out.Filtered {
		t.Fatalf("warm tuple not filtered: out=%+v err=%v", out, err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		out, err := ev.EvalSamples(samples, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Filtered {
			t.Fatal("tuple unexpectedly not filtered")
		}
	})
	t.Logf("filter fast path: %.1f allocs per call", allocs)
	if allocs > 4 {
		t.Fatalf("filter fast path allocates %.1f per call, want ≤ 4", allocs)
	}
}
