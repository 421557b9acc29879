package core

import (
	"math"
	"math/rand"
	"testing"

	"olgapro/internal/kernel"
	"olgapro/internal/mat"
	"olgapro/internal/rtree"
	"olgapro/internal/udf"
)

// greedyFixture builds an evaluator with nTrain seeded training points and m
// Monte-Carlo samples, ready for a tuning pick.
func greedyFixture(t *testing.T, seed int64, nTrain, m int, kern kernel.Kernel, global bool) (*Evaluator, [][]float64, *rand.Rand) {
	t.Helper()
	f := udf.FuncOf{D: 2, F: func(x []float64) float64 {
		return math.Sin(x[0]) + 0.5*x[1]*x[1] + 0.3*x[0]*x[1]
	}}
	e, err := NewEvaluator(f, Config{
		Kernel:          kern,
		Noise:           1e-6,
		GlobalInference: global,
		SampleOverride:  m,
		Tuning:          TuneOptimalGreedy,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for e.GP().Len() < nTrain {
		x := []float64{4 * rng.Float64(), 4 * rng.Float64()}
		if err := e.AddTrainingAt(x); err != nil {
			continue // numerically duplicate draw
		}
	}
	samples := make([][]float64, m)
	for i := range samples {
		samples[i] = []float64{1 + 2*rng.Float64(), 1 + 2*rng.Float64()}
	}
	return e, samples, rng
}

// greedySetup runs local inference for the samples and returns everything a
// greedy pick needs, mirroring the Eval path.
func greedySetup(t *testing.T, e *Evaluator, samples [][]float64, rng *rand.Rand) (
	lc *localCtx, means, vars []float64, lambda, zA float64, cands, evalIdx []int) {
	t.Helper()
	sc := &e.scratch
	ids, gamma := e.selectLocal(samples, e.scratch.box.bounding(samples), e.gammaThreshold())
	lc = &sc.lc
	if err := e.buildLocal(lc, ids, gamma); err != nil {
		t.Fatal(err)
	}
	m := len(samples)
	means = resizeFloats(&sc.means, m)
	vars = resizeFloats(&sc.vars, m)
	lc.predictInto(e, samples, means, vars, 0, m)
	zA = e.zAlpha(rtree.BoundingBox(samples))
	lambda = e.lambda(means)
	sc.skip.reset(m)
	cands = greedyCandidatePool(vars, &sc.skip, &sc.tuneCands)
	evalIdx = subsampleIndices(m, greedyMaxEval, rng)
	return lc, means, vars, lambda, zA, cands, evalIdx
}

// TestGreedyRank1MatchesCloneReference pins the tentpole equivalence: for
// identical candidate pools and evaluation subsets, the rank-1 fast path and
// the clone-based reference agree on the winning sample and, candidate by
// candidate, on the simulated error bound to 1e-9.
func TestGreedyRank1MatchesCloneReference(t *testing.T) {
	cases := []struct {
		name   string
		seed   int64
		nTrain int
		m      int
		kern   kernel.Kernel
		global bool
	}{
		{"sqexp_local", 1, 40, 200, kernel.NewSqExp(1, 0.8), false},
		{"sqexp_global", 2, 30, 150, kernel.NewSqExp(1, 0.8), true},
		{"matern32", 3, 25, 120, kernel.NewMatern32(1, 1.0), false},
		{"matern52", 4, 25, 120, kernel.NewMatern52(1, 1.0), false},
		{"tiny_model", 5, 3, 80, kernel.NewSqExp(0.7, 1.2), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, samples, rng := greedyFixture(t, tc.seed, tc.nTrain, tc.m, tc.kern, tc.global)
			lc, means, vars, lambda, zA, cands, evalIdx := greedySetup(t, e, samples, rng)
			if len(cands) == 0 {
				t.Fatal("empty candidate pool")
			}

			bestNew, boundNew := e.greedyBestRank1(samples, means, vars, lc, lambda, zA, cands, evalIdx)
			bestOld, boundOld := e.greedyBestClone(samples, means, vars, lc, lambda, zA, cands, evalIdx)
			if bestNew != bestOld {
				t.Errorf("picks diverge: rank1=%d clone=%d", bestNew, bestOld)
			}
			if d := math.Abs(boundNew - boundOld); d > 1e-9*(1+math.Abs(boundOld)) {
				t.Errorf("winning bounds diverge: rank1=%g clone=%g (Δ=%g)", boundNew, boundOld, d)
			}

			// Candidate-by-candidate: the full simulated envelope bound must
			// agree for every candidate, not just the winner.
			nCheck := len(cands)
			if nCheck > 16 {
				nCheck = 16
			}
			single := make([]int, 1)
			for _, ci := range cands[:nCheck] {
				single[0] = ci
				_, bNew := e.greedyBestRank1(samples, means, vars, lc, lambda, zA, single, evalIdx)
				_, bOld := e.greedyBestClone(samples, means, vars, lc, lambda, zA, single, evalIdx)
				if d := math.Abs(bNew - bOld); d > 1e-9*(1+math.Abs(bOld)) {
					t.Errorf("candidate %d bounds diverge: rank1=%g clone=%g (Δ=%g)", ci, bNew, bOld, d)
				}
			}
		})
	}
}

// TestGreedyRank1EmptyLocalContext covers the degenerate prior-only regime:
// with no local training points both paths reduce to a pure prior update and
// must still agree.
func TestGreedyRank1EmptyLocalContext(t *testing.T) {
	e, samples, rng := greedyFixture(t, 7, 4, 60, kernel.NewSqExp(1, 0.8), false)
	sc := &e.scratch
	lc := &sc.lc
	if err := e.buildLocal(lc, nil, 0); err != nil {
		t.Fatal(err)
	}
	m := len(samples)
	means := resizeFloats(&sc.means, m)
	vars := resizeFloats(&sc.vars, m)
	lc.predictInto(e, samples, means, vars, 0, m)
	zA := e.zAlpha(rtree.BoundingBox(samples))
	lambda := e.lambda(means)
	sc.skip.reset(m)
	cands := greedyCandidatePool(vars, &sc.skip, &sc.tuneCands)
	evalIdx := subsampleIndices(m, greedyMaxEval, rng)
	bestNew, boundNew := e.greedyBestRank1(samples, means, vars, lc, lambda, zA, cands, evalIdx)
	bestOld, boundOld := e.greedyBestClone(samples, means, vars, lc, lambda, zA, cands, evalIdx)
	if bestNew != bestOld {
		t.Errorf("picks diverge on empty context: rank1=%d clone=%d", bestNew, bestOld)
	}
	if d := math.Abs(boundNew - boundOld); d > 1e-9*(1+math.Abs(boundOld)) {
		t.Errorf("bounds diverge on empty context: rank1=%g clone=%g", boundNew, boundOld)
	}
}

// TestPickGreedyForBenchPathsAgree exercises the pick the tuning_pick_rank1
// benchmark times: the rank-1 path and the clone reference, fed identical
// rng states, choose the same training sample.
func TestPickGreedyForBenchPathsAgree(t *testing.T) {
	e, samples, _ := greedyFixture(t, 11, 35, 150, kernel.NewSqExp(1, 0.7), false)
	pickNew, err := e.pickGreedyForBench(samples, rand.New(rand.NewSource(99)), false)
	if err != nil {
		t.Fatal(err)
	}
	pickOld, err := e.pickGreedyForBench(samples, rand.New(rand.NewSource(99)), true)
	if err != nil {
		t.Fatal(err)
	}
	if pickNew != pickOld {
		t.Errorf("bench hook picks diverge: rank1=%d clone=%d", pickNew, pickOld)
	}
	if pickNew < 0 || pickNew >= len(samples) {
		t.Errorf("pick %d out of range", pickNew)
	}
}

// TestGreedyPickInsideEval runs the full Eval loop under the optimal-greedy
// policy, confirming the fast path composes with online tuning end to end.
func TestGreedyPickInsideEval(t *testing.T) {
	f := udf.FuncOf{D: 2, F: func(x []float64) float64 {
		return x[0]*x[0] + math.Cos(x[1])
	}}
	e, err := NewEvaluator(f, Config{
		Kernel:         kernel.NewSqExp(1, 0.6),
		Tuning:         TuneOptimalGreedy,
		SampleOverride: 300,
		MaxAddPerInput: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	in := gaussianInput([]float64{1.2, 1.4}, 0.25)
	for i := 0; i < 5; i++ {
		out, err := e.Eval(in, rng)
		if err != nil {
			t.Fatal(err)
		}
		if out.Dist == nil {
			t.Fatal("no output distribution")
		}
		if out.BoundGP < 0 {
			t.Errorf("negative GP bound %g", out.BoundGP)
		}
	}
	if e.Stats().PointsAdded == 0 {
		t.Error("greedy tuning never added a training point")
	}
}

// greedyBestClone is the reference implementation the rank-1 fast path
// replaced: per candidate it clones the local Cholesky factor, extends it
// with the candidate, re-solves for the trial weights, and re-predicts every
// evaluation point through the bordered factor — O(eval·l²) per candidate.
// It is kept here as the ground truth for the old-vs-new equivalence tests.
func (e *Evaluator) greedyBestClone(samples [][]float64, means, vars []float64,
	lc *localCtx, lambda, zAlpha float64, cands, evalIdx []int) (int, float64) {
	sc := &e.scratch
	yLocal := resizeFloats(&sc.tuneY, len(lc.ids))
	for i, id := range lc.ids {
		yLocal[i] = e.g.Y(id)
	}
	best, bestBound := -1, math.Inf(1)
	var kbuf, fsbuf, ys []float64
	m2 := resizeFloats(&sc.tuneMeans, len(evalIdx))
	v2 := resizeFloats(&sc.tuneVars, len(evalIdx))
	for _, ci := range cands {
		xc := samples[ci]
		// Extend a copy of the local factorization with the candidate.
		trial := lc.chol.Clone()
		kvec := kernel.CrossVec(e.cfg.Kernel, lc.xs, xc, kbuf)
		kbuf = kvec
		if err := trial.Extend(kvec, e.cfg.Kernel.Eval(xc, xc)+e.g.Noise()); err != nil {
			continue
		}
		ys = append(append(ys[:0], yLocal...), means[ci])
		alphaTrial := trial.SolveVec(ys)
		xsTrial := append(append([][]float64(nil), lc.xs...), xc)
		// Recompute means/vars on the evaluation subset.
		for j, si := range evalIdx {
			x := samples[si]
			kbuf = kernel.CrossVec(e.cfg.Kernel, xsTrial, x, kbuf)
			m2[j] = mat.Dot(kbuf, alphaTrial)
			fsbuf = resizeFloatsVal(fsbuf, len(kbuf))
			trial.ForwardSolveTo(fsbuf, kbuf)
			vv := kernel.SelfCov(e.cfg.Kernel, x) - mat.Dot(fsbuf, fsbuf)
			if vv < 0 {
				vv = 0
			}
			v2[j] = vv
		}
		envTrial := sc.tuneEnv.envelopeOf(m2, v2, zAlpha, len(evalIdx))
		b := envTrial.DiscrepancyBoundWith(&sc.bound, lambda)
		if b < bestBound {
			best, bestBound = ci, b
		}
	}
	return best, bestBound
}

// pickGreedyForBench rebuilds the local inference context for the samples,
// runs local inference, and executes one optimal-greedy tuning pick — with
// the rank-1 fast path, or with the clone-based reference when useClone is
// set. It is the op of the tuning_pick_rank1 benchmark and of the
// old-vs-new equivalence tests; both paths see identical candidate pools and
// evaluation subsets for a given rng state.
func (e *Evaluator) pickGreedyForBench(samples [][]float64, rng *rand.Rand, useClone bool) (int, error) {
	sc := &e.scratch
	ids, gamma := e.selectLocal(samples, sc.box.bounding(samples), e.gammaThreshold())
	lc := &sc.lc
	if err := e.buildLocal(lc, ids, gamma); err != nil {
		return -1, err
	}
	m := len(samples)
	means := resizeFloats(&sc.means, m)
	vars := resizeFloats(&sc.vars, m)
	lc.predictInto(e, samples, means, vars, 0, m)
	zA := e.zAlpha(rtree.BoundingBox(samples))
	lambda := e.lambda(means)
	sc.skip.reset(m)
	cands := greedyCandidatePool(vars, &sc.skip, &sc.tuneCands)
	evalIdx := subsampleIndices(m, greedyMaxEval, rng)
	if useClone {
		best, _ := e.greedyBestClone(samples, means, vars, lc, lambda, zA, cands, evalIdx)
		return best, nil
	}
	best, _ := e.greedyBestRank1(samples, means, vars, lc, lambda, zA, cands, evalIdx)
	return best, nil
}
