package core

import (
	"math"
	"math/rand"
	"sort"

	"olgapro/internal/kernel"
	"olgapro/internal/mat"
	"olgapro/internal/rtree"
)

// pickSample chooses which cached Monte-Carlo sample becomes the next
// training point (online tuning, §5.2), honoring the configured policy.
// skip marks samples already tried this tuple. It returns -1 when no
// admissible sample remains.
func (e *Evaluator) pickSample(samples [][]float64, means, vars []float64,
	lc *localCtx, lambda, zAlpha float64, skip *markSet, rng *rand.Rand) int {
	switch e.cfg.Tuning {
	case TuneRandom:
		return pickRandom(len(samples), skip, rng)
	case TuneOptimalGreedy:
		if e.sg != nil {
			// The greedy simulation borders the exact local Cholesky factor;
			// the sparse emulator has no such factor (admission may not even
			// grow the basis), so fall back to the paper's heuristic.
			return pickMaxVariance(vars, skip)
		}
		return e.pickOptimalGreedy(samples, means, vars, lc, lambda, zAlpha, skip, rng)
	default:
		return pickMaxVariance(vars, skip)
	}
}

// pickMaxVariance returns the sample with the largest predictive variance —
// the paper's heuristic: train where the emulator is least certain.
func pickMaxVariance(vars []float64, skip *markSet) int {
	best, bestVar := -1, -1.0
	for i, v := range vars {
		if skip.has(i) {
			continue
		}
		if v > bestVar {
			best, bestVar = i, v
		}
	}
	return best
}

// pickRandom returns a uniformly random non-skipped sample.
func pickRandom(n int, skip *markSet, rng *rand.Rand) int {
	if skip.size() >= n {
		return -1
	}
	for tries := 0; tries < 4*n; tries++ {
		i := rng.Intn(n)
		if !skip.has(i) {
			return i
		}
	}
	return -1
}

// greedy search bounds, keeping the hypothetical policy tractable: the paper
// itself caps inputs at 400 samples "for 'optimal greedy' to be feasible".
const (
	greedyMaxCandidates = 64
	greedyMaxEval       = 400
)

// greedyCandidatePool fills buf with the non-skipped sample indices ordered
// by descending predictive variance, capped at greedyMaxCandidates —
// evaluating every sample is prohibitive even for the reference policy. The
// pool is shared by the rank-1 fast path and the clone-based reference so the
// two consider identical candidates.
func greedyCandidatePool(vars []float64, skip *markSet, buf *[]int) []int {
	ids := (*buf)[:0]
	for i := range vars {
		if !skip.has(i) {
			ids = append(ids, i)
		}
	}
	*buf = ids
	if len(ids) == 0 {
		return ids
	}
	sort.Slice(ids, func(a, b int) bool { return vars[ids[a]] > vars[ids[b]] })
	if len(ids) > greedyMaxCandidates {
		ids = ids[:greedyMaxCandidates]
	}
	return ids
}

// pickOptimalGreedy simulates adding each candidate sample — using the
// current posterior mean as its hypothetical observation — recomputes the
// error bound, and picks the candidate with the largest bound reduction.
//
// The simulation is exact but clone-free: bordering the local system with
// candidate x_c changes the posterior at x_j by a closed-form rank-1 term in
// the posterior covariance c_j = k(x_c,x_j) − k_jᵀK⁻¹k_c (gp.PosteriorCovWith
// is the same quantity on the global model). With s_c the candidate's
// predictive variance plus noise (the bordered factor's Schur complement),
// m̂ the local-solve means and m_c the hypothetical observation,
//
//	v₂[j] = vars[j] − c_j²/s_c
//	m₂[j] = m̂_j + (m_c − m̂_c)·c_j/s_c
//
// so each candidate costs one O(l²) solve plus an O(eval·l) covariance pass,
// instead of the reference's Clone+Extend+SolveVec+full re-predict at
// O(eval·l²) per candidate — see pickOptimalGreedyClone, retained as the
// differential-test and benchmark reference.
func (e *Evaluator) pickOptimalGreedy(samples [][]float64, means, vars []float64,
	lc *localCtx, lambda, zAlpha float64, skip *markSet, rng *rand.Rand) int {
	sc := &e.scratch
	cands := greedyCandidatePool(vars, skip, &sc.tuneCands)
	if len(cands) == 0 {
		return -1
	}
	evalIdx := subsampleIndices(len(samples), greedyMaxEval, rng)
	best, _ := e.greedyBestRank1(samples, means, vars, lc, lambda, zAlpha, cands, evalIdx)
	if best < 0 {
		// All simulations failed numerically; fall back to max variance.
		return pickMaxVariance(vars, skip)
	}
	return best
}

// greedyBestRank1 evaluates every candidate via the rank-1 posterior update
// and returns the one minimizing the simulated error bound, along with that
// bound (-1, +Inf if none is numerically admissible). Steady state performs
// no heap allocation.
func (e *Evaluator) greedyBestRank1(samples [][]float64, means, vars []float64,
	lc *localCtx, lambda, zAlpha float64, cands, evalIdx []int) (int, float64) {
	sc := &e.scratch
	l := len(lc.ids)
	ne := len(evalIdx)

	// Local observations and local-solve weights α_L = K_L⁻¹ y_L, the
	// candidate-independent half of the simulated system.
	yLocal := resizeFloats(&sc.tuneY, l)
	for i, id := range lc.ids {
		yLocal[i] = e.g.Y(id)
	}
	alphaLoc := resizeFloats(&sc.tuneAlpha, l)
	if l > 0 {
		lc.chol.SolveVecTo(alphaLoc, yLocal)
	}

	// Per-evaluation-point cross rows K_eval[j] = k(x_j, X_L) — one batched
	// kernel row each — and the trial-independent local-solve means m̂_j.
	evalXs := resizeRows(&sc.tuneEvalXs, ne)
	for j, si := range evalIdx {
		evalXs[j] = samples[si]
	}
	if sc.tuneCross == nil {
		sc.tuneCross = mat.New(ne, l)
	} else {
		sc.tuneCross.Reset(ne, l)
	}
	cross := sc.tuneCross
	mhat := resizeFloats(&sc.tuneMHat, ne)
	for j := 0; j < ne; j++ {
		row := cross.Row(j)
		kernel.CrossVec(e.cfg.Kernel, lc.xs, evalXs[j], row)
		mhat[j] = mat.Dot(row, alphaLoc)
	}

	m2 := resizeFloats(&sc.tuneMeans, ne)
	v2 := resizeFloats(&sc.tuneVars, ne)
	kc := resizeFloats(&sc.tuneK, l)
	uc := resizeFloats(&sc.tuneU, l)
	cc := resizeFloats(&sc.tuneCC, ne)
	noise := e.g.Noise()
	best, bestBound := -1, math.Inf(1)
	for _, ci := range cands {
		xc := samples[ci]
		kernel.CrossVec(e.cfg.Kernel, lc.xs, xc, kc)
		copy(uc, kc)
		if l > 0 {
			lc.chol.SolveVecTo(uc, uc)
		}
		sC := e.cfg.Kernel.Eval(xc, xc) + noise - mat.Dot(kc, uc)
		if sC <= 0 || math.IsNaN(sC) {
			continue // the bordered system is not SPD; matches Extend failing
		}
		dm := (means[ci] - mat.Dot(kc, alphaLoc)) / sC
		invS := 1 / sC
		kernel.CrossVec(e.cfg.Kernel, evalXs, xc, cc)
		for j := 0; j < ne; j++ {
			cj := cc[j] - mat.Dot(cross.Row(j), uc)
			m2[j] = mhat[j] + dm*cj
			v := vars[evalIdx[j]] - cj*cj*invS
			if v < 0 {
				v = 0
			}
			v2[j] = v
		}
		envTrial := sc.tuneEnv.envelopeOf(m2, v2, zAlpha, ne)
		b := envTrial.DiscrepancyBoundWith(&sc.bound, lambda)
		if b < bestBound {
			best, bestBound = ci, b
		}
	}
	return best, bestBound
}

// greedyBestClone is the reference implementation the rank-1 fast path
// replaced: per candidate it clones the local Cholesky factor, extends it
// with the candidate, re-solves for the trial weights, and re-predicts every
// evaluation point through the bordered factor — O(eval·l²) per candidate.
// It is retained (not test-gated) as the ground truth for the old-vs-new
// equivalence tests and the tuning_pick_clone benchmark baseline.
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

// subsampleIndices returns up to max distinct indices in [0, n).
func subsampleIndices(n, max int, rng *rand.Rand) []int {
	if n <= max {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	perm := rng.Perm(n)
	out := make([]int, max)
	copy(out, perm[:max])
	return out
}

// PickGreedyForBench rebuilds the local inference context for the samples,
// runs local inference, and executes one optimal-greedy tuning pick — with
// the rank-1 fast path, or with the clone-based reference when useClone is
// set. It is the hook behind the tuning_pick_rank1/tuning_pick_clone
// benchmarks and the old-vs-new equivalence tests; both paths see identical
// candidate pools and evaluation subsets for a given rng state.
func (e *Evaluator) PickGreedyForBench(samples [][]float64, rng *rand.Rand, useClone bool) (int, error) {
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
