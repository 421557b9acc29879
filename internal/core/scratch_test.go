package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"olgapro/internal/kernel"
	"olgapro/internal/mat"
	"olgapro/internal/udf"
)

// seededEvaluator returns an evaluator with n training points spread over
// [0,10]².
func seededEvaluator(t *testing.T, n int) *Evaluator {
	t.Helper()
	f := udf.Standard(udf.F3, 8)
	e, err := NewEvaluator(f, Config{Kernel: kernel.NewSqExp(0.5, 1.5)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	for e.GP().Len() < n {
		x := []float64{rng.Float64() * 10, rng.Float64() * 10}
		if err := e.AddTrainingAt(x); err != nil {
			continue
		}
	}
	return e
}

// predictRange is the per-sample inner loop of Algorithm 5: with warmed
// worker buffers it must not allocate, on the four-sample blocks or on the
// tail the odd-length range leaves.
func TestPredictRangeZeroAllocs(t *testing.T) {
	e := seededEvaluator(t, 40)
	rng := rand.New(rand.NewSource(42))
	in := gaussianInput([]float64{5, 5}, 0.5)
	samples := make([][]float64, 256)
	for i := range samples {
		samples[i] = in.SampleVec(rng, nil)
	}
	ids, gamma := e.selectLocal(samples, e.scratch.box.bounding(samples), e.gammaThreshold())
	lc := &e.scratch.lc
	if err := e.buildLocal(lc, ids, gamma); err != nil {
		t.Fatal(err)
	}
	means := make([]float64, len(samples))
	vars := make([]float64, len(samples))
	if len(lc.xs) == 0 {
		t.Fatal("local subset is empty; the blocked path would not run")
	}
	pb := e.scratch.buf(0)
	lc.predictRange(e, samples, means, vars, 1, len(samples), pb) // warm
	if allocs := testing.AllocsPerRun(20, func() {
		lc.predictRange(e, samples, means, vars, 1, len(samples), pb)
	}); allocs != 0 {
		t.Fatalf("predictRange allocates %.1f per run, want 0", allocs)
	}
}

// selectLocal's radius loop must not allocate per step beyond the R-tree
// query buffer it reuses — in particular no per-step map rebuild.
func TestSelectLocalReusesScratch(t *testing.T) {
	e := seededEvaluator(t, 60)
	rng := rand.New(rand.NewSource(43))
	in := gaussianInput([]float64{5, 5}, 0.4)
	samples := make([][]float64, 64)
	for i := range samples {
		samples[i] = in.SampleVec(rng, nil)
	}
	ids1, _ := e.selectLocal(samples, e.scratch.box.bounding(samples), e.gammaThreshold())
	n1 := len(ids1)
	allocs := testing.AllocsPerRun(20, func() {
		ids, _ := e.selectLocal(samples, e.scratch.box.bounding(samples), e.gammaThreshold())
		if len(ids) != n1 {
			t.Fatalf("selection size changed: %d → %d", n1, len(ids))
		}
	})
	// Everything — bounding box, sub-box cells, membership marks, id staging,
	// domain extents — lives in evalScratch now; a warm selection allocates
	// nothing.
	if allocs != 0 {
		t.Fatalf("selectLocal allocates %.1f per run, want 0", allocs)
	}
}

// The Output handed to the caller must own its distribution: a subsequent
// Eval reusing the evaluator's scratch must not mutate it.
func TestOutputOwnsDistributionAcrossEvals(t *testing.T) {
	e := seededEvaluator(t, 12)
	rng := rand.New(rand.NewSource(44))
	out1, err := e.Eval(gaussianInput([]float64{3, 3}, 0.4), rng)
	if err != nil {
		t.Fatal(err)
	}
	if out1.Dist == nil {
		t.Fatal("first eval filtered unexpectedly")
	}
	snapshot := mat.CloneVec(out1.Dist.Values())
	for i := 0; i < 5; i++ {
		if _, err := e.Eval(gaussianInput([]float64{7, 2}, 0.6), rng); err != nil {
			t.Fatal(err)
		}
	}
	got := out1.Dist.Values()
	for i := range snapshot {
		if got[i] != snapshot[i] {
			t.Fatalf("Output.Dist mutated by later Eval at %d: %g → %g", i, snapshot[i], got[i])
		}
	}
}

// When the incremental local extend fails, the evaluator rebuilds the local
// context from scratch. Exercise the failure path deterministically: a
// hand-built localCtx whose next extension is exactly singular must error,
// and rebuildLocal must restore a usable context whose predictions match a
// freshly built one.
func TestLocalExtendFailureRebuilds(t *testing.T) {
	e := seededEvaluator(t, 20)
	rng := rand.New(rand.NewSource(45))
	in := gaussianInput([]float64{5, 5}, 0.5)
	samples := make([][]float64, 64)
	for i := range samples {
		samples[i] = in.SampleVec(rng, nil)
	}
	lc := &e.scratch.lc
	if err := e.rebuildLocal(lc, samples); err != nil {
		t.Fatal(err)
	}
	// Corrupt the context into a state whose extend must fail: a singular
	// 1×1 "gram" (zero noise folded in) extended with its own duplicate.
	var bad localCtx
	bad.ids = append(bad.ids, 0)
	bad.xs = append(bad.xs, e.GP().X(0))
	gram := mat.New(1, 1)
	gram.Set(0, 0, e.Config().Kernel.Eval(e.GP().X(0), e.GP().X(0)))
	if err := bad.chol.Factorize(gram); err != nil {
		t.Fatal(err)
	}
	// Extending with the same point and no noise gives Schur complement 0.
	k := []float64{gram.At(0, 0)}
	if err := bad.chol.Extend(k, gram.At(0, 0)); !errors.Is(err, mat.ErrNotSPD) {
		t.Fatalf("duplicate extend: err = %v, want ErrNotSPD", err)
	}
	// The EvalSamples fallback: rebuild in place and verify predictions.
	if err := e.rebuildLocal(&bad, samples); err != nil {
		t.Fatalf("rebuildLocal after failed extend: %v", err)
	}
	var fresh localCtx
	ids, gamma := e.selectLocal(samples, e.scratch.box.bounding(samples), e.gammaThreshold())
	if err := e.buildLocal(&fresh, ids, gamma); err != nil {
		t.Fatal(err)
	}
	var pb1, pb2 predictBuf
	for _, s := range samples {
		m1, v1 := bad.predict(e, s, &pb1)
		m2, v2 := fresh.predict(e, s, &pb2)
		if math.Abs(m1-m2) > 1e-10 || math.Abs(v1-v2) > 1e-10 {
			t.Fatalf("rebuilt context diverges: (%g,%g) vs (%g,%g)", m1, v1, m2, v2)
		}
	}
}

// The jittered-rebuild fallback of buildLocal: a local subset containing
// near-duplicate training points has a numerically singular Gram matrix, and
// FactorizeJittered must rescue it rather than fail the tuple.
func TestBuildLocalJitteredFallback(t *testing.T) {
	f := udf.Standard(udf.F3, 8)
	// Tiny noise makes the plain factorization of a near-duplicate pair
	// fail, forcing the jitter path.
	e, err := NewEvaluator(f, Config{Kernel: kernel.NewSqExp(0.5, 1.5), Noise: 1e-17})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddTrainingAt([]float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddTrainingAt([]float64{9, 9}); err != nil {
		t.Fatal(err)
	}
	// Selecting the same point twice makes the Gram matrix exactly singular
	// (the configured noise is below one ulp of k(x,x), so the diagonal
	// jitter it would normally contribute vanishes in rounding): the plain
	// factorization must fail and FactorizeJittered must rescue the build.
	var lc localCtx
	ids := []int{0, 0, 1}
	if err := e.buildLocal(&lc, ids, 0); err != nil {
		t.Fatalf("buildLocal with duplicated point: %v", err)
	}
	var pb predictBuf
	m, v := lc.predict(e, []float64{5, 5}, &pb)
	if math.IsNaN(m) || math.IsNaN(v) {
		t.Fatalf("jittered local model produced NaN: mean=%g var=%g", m, v)
	}
}

// markSet semantics, including the epoch-wrap path.
func TestMarkSet(t *testing.T) {
	var m markSet
	m.reset(4)
	if m.size() != 0 || m.has(2) {
		t.Fatal("fresh markSet not empty")
	}
	m.add(2)
	m.add(2)
	if !m.has(2) || m.size() != 1 {
		t.Fatalf("add: has=%v size=%d", m.has(2), m.size())
	}
	m.reset(6)
	if m.has(2) || m.size() != 0 {
		t.Fatal("reset did not clear membership")
	}
	m.add(5)
	// Force the wrap path.
	m.epoch = math.MaxInt32
	m.reset(6)
	if m.has(5) || m.epoch != 1 {
		t.Fatalf("epoch wrap: has(5)=%v epoch=%d", m.has(5), m.epoch)
	}
	m.add(0)
	if !m.has(0) {
		t.Fatal("post-wrap add lost")
	}
}

// sameBits reports whether two float64s are the same value bit for bit,
// treating any two NaNs as equal.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// TestPredictRangeBlockedMatchesPredict pins the four-sample blocked
// predictRange to per-sample predict bit for bit: every range length 0–9 at
// even and odd starts (the filter chunks start anywhere), rows with ±Inf and
// NaN coordinates in every block position, an empty local subset, and the
// Parallelism 2 fan-out.
func TestPredictRangeBlockedMatchesPredict(t *testing.T) {
	e := seededEvaluator(t, 40)
	rng := rand.New(rand.NewSource(44))
	in := gaussianInput([]float64{5, 5}, 0.6)
	samples := make([][]float64, 600)
	for i := range samples {
		samples[i] = in.SampleVec(rng, nil)
	}
	lc := &e.scratch.lc
	if err := e.rebuildLocal(lc, samples); err != nil {
		t.Fatal(err)
	}
	if len(lc.xs) == 0 {
		t.Fatal("local subset is empty; the blocked path would not run")
	}
	// Non-finite rows at block positions 0–3, including a range's first row.
	inf := math.Inf(1)
	samples[0] = []float64{inf, 5}
	samples[3] = []float64{5, math.NaN()}
	samples[6] = []float64{-inf, -inf}
	samples[9] = []float64{math.NaN(), inf}
	samples[13] = []float64{5, -inf}

	var pb predictBuf
	check := func(ctx string, lc *localCtx, means, vars []float64, lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			m, v := lc.predict(e, samples[i], &pb)
			if !sameBits(means[i], m) || !sameBits(vars[i], v) {
				t.Fatalf("%s: sample %d = (%v, %v), predict gives (%v, %v)", ctx, i, means[i], vars[i], m, v)
			}
		}
	}
	sentinel := math.Float64frombits(0x7ff8dead)
	means := make([]float64, len(samples))
	vars := make([]float64, len(samples))
	var empty localCtx
	if err := e.buildLocal(&empty, nil, 0); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		lc   *localCtx
	}{{"local", lc}, {"empty", &empty}} {
		for _, lo := range []int{0, 1, 3, 6} {
			for n := 0; n <= 9; n++ {
				for i := range means {
					means[i], vars[i] = sentinel, sentinel
				}
				c.lc.predictRange(e, samples, means, vars, lo, lo+n, e.scratch.buf(0))
				check(c.name, c.lc, means, vars, lo, lo+n)
				for i := range means {
					if (i < lo || i >= lo+n) && (math.Float64bits(means[i]) != 0x7ff8dead || math.Float64bits(vars[i]) != 0x7ff8dead) {
						t.Fatalf("%s lo=%d n=%d: wrote outside the range at %d", c.name, lo, n, i)
					}
				}
			}
		}
	}
	// Two workers split [1, 600) at an even offset from an odd start.
	e.cfg.Parallelism = 2
	lc.predictInto(e, samples, means, vars, 1, len(samples))
	check("parallelism 2", lc, means, vars, 1, len(samples))
}
