package core

import (
	"fmt"
	"math"
	"sync"

	"olgapro/internal/gp"
	"olgapro/internal/kernel"
	"olgapro/internal/mat"
	"olgapro/internal/rtree"
)

// localCtx is the per-input local inference context (paper §5.1): the
// subset of training-point indices selected around the sample bounding box,
// and the Cholesky factorization of their (noise-jittered) Gram matrix used
// for predictive variances. Posterior means use the *global* weight vector α
// restricted to the subset, exactly the f̂_L(x) = K(x, X*_L) α_L of §5.1,
// whose deviation from global inference is what the γ bound controls.
//
// A localCtx lives inside the evaluator's evalScratch and is rebuilt in
// place: ids, xs, and the packed Cholesky store are all reused across
// tuples, so steady-state construction costs no allocation beyond the
// R-tree query.
type localCtx struct {
	ids  []int
	xs   [][]float64
	chol mat.Cholesky
	// gamma is the bound on |f̂(x) − f̂_L(x)| achieved by the selection.
	gamma float64
	// sp, when non-nil, short-circuits the context to the budgeted sparse
	// emulator: predictions route straight to its O(m²) inducing-point
	// factors (no subset, no local Gram), extend is a no-op because the
	// model self-updates on Add, and gamma is 0 — nothing is dropped, the
	// approximation error lives in the (inflated) predictive variance
	// instead.
	sp *gp.Sparse
}

// bindSparse points the context at the sparse emulator, clearing any exact
// local-subset state.
func (lc *localCtx) bindSparse(sp *gp.Sparse) {
	lc.sp = sp
	lc.ids = lc.ids[:0]
	lc.xs = lc.xs[:0]
	lc.gamma = 0
}

// predictBuf is one worker's reusable inference buffers: the kernel
// cross-vector and the forward-solve half of the variance computation, their
// four-sample blocks, plus a gp.Scratch for the sparse path's two solve
// pairs.
type predictBuf struct {
	k, v   []float64
	kb, vb []float64 // predictRange's four-sample blocks, 4·l each
	gs     gp.Scratch
}

// buildLocal (re)factorizes the Gram matrix of the selected points into lc,
// reusing its storage. ids is copied, so callers may reuse the backing.
func (e *Evaluator) buildLocal(lc *localCtx, ids []int, gamma float64) error {
	lc.sp = nil
	lc.gamma = gamma
	lc.ids = append(lc.ids[:0], ids...)
	lc.xs = lc.xs[:0]
	for _, id := range ids {
		lc.xs = append(lc.xs, e.g.X(id))
	}
	sc := &e.scratch
	sc.gram = kernel.GramInto(sc.gram, e.cfg.Kernel, lc.xs)
	for i := range ids {
		sc.gram.Add(i, i, e.g.Noise())
	}
	if _, err := lc.chol.FactorizeJittered(sc.gram, e.g.Noise()*10, 8); err != nil {
		return fmt.Errorf("core: local gram: %w", err)
	}
	return nil
}

// rebuildLocal reselects the local subset for the samples and refactorizes
// lc in place — the fallback used whenever the incremental extend fails or
// hyperparameters changed under the context.
func (e *Evaluator) rebuildLocal(lc *localCtx, samples [][]float64) error {
	if e.sg != nil {
		// The sparse model maintains its own factors (Train rebuilds them);
		// just re-bind.
		lc.bindSparse(e.sg)
		return nil
	}
	ids, gamma := e.selectLocal(samples, e.scratch.box.bounding(samples), e.gammaThreshold())
	return e.buildLocal(lc, ids, gamma)
}

// extend adds the training point with the given global index (which must
// already be in the evaluator's GP) to the local subset in O(l²).
func (lc *localCtx) extend(e *Evaluator, id int) error {
	if lc.sp != nil {
		return nil // the sparse model already absorbed the point in Add
	}
	x := e.g.X(id)
	pb := e.scratch.buf(0)
	k := resizeFloats(&pb.k, len(lc.xs))
	for i, xi := range lc.xs {
		k[i] = e.cfg.Kernel.Eval(xi, x)
	}
	if err := lc.chol.Extend(k, e.cfg.Kernel.Eval(x, x)+e.g.Noise()); err != nil {
		return fmt.Errorf("core: local extend: %w", err)
	}
	lc.ids = append(lc.ids, id)
	lc.xs = append(lc.xs, x)
	return nil
}

// predict returns the local posterior mean and variance at x using the
// worker buffers pb. It allocates nothing once pb has grown to the subset
// size. The local variance conditions on fewer points than the global one,
// so it is an overestimate — conservative for the error bound.
func (lc *localCtx) predict(e *Evaluator, x []float64, pb *predictBuf) (mean, variance float64) {
	if lc.sp != nil {
		return lc.sp.PredictWith(&pb.gs, x)
	}
	prior := kernel.SelfCov(e.cfg.Kernel, x)
	if len(lc.xs) == 0 {
		return 0, prior
	}
	l := len(lc.xs)
	k := resizeFloats(&pb.k, l)
	kernel.CrossVec(e.cfg.Kernel, lc.xs, x, k)
	alpha := e.g.Alpha()
	for i, id := range lc.ids {
		mean += k[i] * alpha[id]
	}
	v := resizeFloats(&pb.v, l)
	lc.chol.ForwardSolveTo(v, k)
	return mean, posteriorVar(prior, v)
}

// posteriorVar is the local variance k(x, x) − ‖L⁻¹k‖², clamped at 0
// against rounding.
func posteriorVar(prior float64, v []float64) float64 {
	variance := prior - mat.Dot(v, v)
	if variance < 0 {
		variance = 0
	}
	return variance
}

// predictInto fills means[i], vars[i] for samples[lo:hi], fanning the work
// out across Config.Parallelism goroutines when the range is large enough
// to amortize their cost. Inference is read-only on the local model and each
// worker owns a distinct predictBuf, which is what makes this
// parallelization safe — the paper lists parallel processing as future work
// (§8), and the per-sample O(l²) variance computation is the dominant cost
// it targets.
func (lc *localCtx) predictInto(e *Evaluator, samples [][]float64, means, vars []float64, lo, hi int) {
	p := e.cfg.Parallelism
	const minPerWorker = 128
	if p <= 1 || hi-lo < 2*minPerWorker {
		lc.predictRange(e, samples, means, vars, lo, hi, e.scratch.buf(0))
		return
	}
	if max := (hi - lo) / minPerWorker; p > max {
		p = max
	}
	e.scratch.growBufs(p) // before spawning: workers must not resize the pool
	var wg sync.WaitGroup
	chunk := (hi - lo + p - 1) / p
	for w := 0; w < p; w++ {
		s := lo + w*chunk
		t := s + chunk
		if t > hi {
			t = hi
		}
		if s >= t {
			break
		}
		wg.Add(1)
		go func(s, t int, pb *predictBuf) {
			defer wg.Done()
			lc.predictRange(e, samples, means, vars, s, t, pb)
		}(s, t, e.scratch.buf(w))
	}
	wg.Wait()
}

// PredictLocalForBench builds the local inference context for samples as
// EvalSamples does for a fresh tuple and returns a function that runs
// predictInto over all of them into means and vars (each len(samples)). It
// is the hook behind the predict_local_m1784 benchmark; the function is
// valid until the evaluator's next Eval.
func (e *Evaluator) PredictLocalForBench(samples [][]float64) (func(means, vars []float64), error) {
	lc := &e.scratch.lc
	if err := e.rebuildLocal(lc, samples); err != nil {
		return nil, err
	}
	return func(means, vars []float64) {
		lc.predictInto(e, samples, means, vars, 0, len(samples))
	}, nil
}

// predictRange is the sequential kernel of predictInto: zero steady-state
// heap allocations per sample. On the exact path it takes samples four at a
// time — four kernel rows, four means, one interleaved ForwardSolve4To —
// with each sample's arithmetic in exactly predict's order, so the blocked
// and per-sample paths agree bit for bit.
func (lc *localCtx) predictRange(e *Evaluator, samples [][]float64, means, vars []float64, lo, hi int, pb *predictBuf) {
	if lc.sp != nil {
		for i := lo; i < hi; i++ {
			means[i], vars[i] = lc.predict(e, samples[i], pb)
		}
		return
	}
	kern := e.cfg.Kernel
	i := lo
	if l := len(lc.xs); l > 0 {
		kb := resizeFloats(&pb.kb, 4*l)
		vb := resizeFloats(&pb.vb, 4*l)
		k0, k1, k2, k3 := kb[:l:l], kb[l:2*l:2*l], kb[2*l:3*l:3*l], kb[3*l:]
		v0, v1, v2, v3 := vb[:l:l], vb[l:2*l:2*l], vb[2*l:3*l:3*l], vb[3*l:]
		alpha := e.g.Alpha()
		self := kernel.SelfCoverOf(kern)
		for ; i+4 <= hi; i += 4 {
			x0, x1, x2, x3 := samples[i], samples[i+1], samples[i+2], samples[i+3]
			kernel.CrossVec(kern, lc.xs, x0, k0)
			kernel.CrossVec(kern, lc.xs, x1, k1)
			kernel.CrossVec(kern, lc.xs, x2, k2)
			kernel.CrossVec(kern, lc.xs, x3, k3)
			var m0, m1, m2, m3 float64
			for j, id := range lc.ids {
				a := alpha[id]
				m0 += k0[j] * a
				m1 += k1[j] * a
				m2 += k2[j] * a
				m3 += k3[j] * a
			}
			lc.chol.ForwardSolve4To(v0, v1, v2, v3, k0, k1, k2, k3)
			means[i], vars[i] = m0, posteriorVar(self.SelfCov(x0), v0)
			means[i+1], vars[i+1] = m1, posteriorVar(self.SelfCov(x1), v1)
			means[i+2], vars[i+2] = m2, posteriorVar(self.SelfCov(x2), v2)
			means[i+3], vars[i+3] = m3, posteriorVar(self.SelfCov(x3), v3)
		}
	}
	for ; i < hi; i++ {
		means[i], vars[i] = lc.predict(e, samples[i], pb)
	}
}

// selectLocal chooses the training subset for the given samples: points
// within an adaptively grown radius of box, the samples' bounding box, until
// the dropped-point error bound γ is at most Γ (§5.1). It returns all points
// under global inference, for non-isotropic kernels, or for tiny models.
// The returned ids alias evaluator scratch and are only valid until the next
// selectLocal call (buildLocal copies them).
func (e *Evaluator) selectLocal(samples [][]float64, box rtree.Rect, gammaThresh float64) (ids []int, gamma float64) {
	n := e.g.Len()
	sc := &e.scratch
	all := func() []int {
		out := sc.idBuf[:0]
		for i := 0; i < n; i++ {
			out = append(out, i)
		}
		sc.idBuf = out
		return out
	}
	iso, isIso := e.cfg.Kernel.(kernel.Isotropic)
	if e.cfg.GlobalInference || !isIso || n <= 8 {
		return all(), 0
	}
	boxes := sc.box.sub(samples, box)
	// Initial radius: optimistic — as if only the single largest-weight
	// excluded point mattered, κ(r)·max|α| ≤ Γ. The γ bound below is the
	// actual guarantee; starting small and growing keeps the selected
	// subset tight, which is where local inference's speedup comes from
	// (each growth step costs one O(n) γ evaluation).
	var maxAbsAlpha float64
	for _, a := range e.g.Alpha() {
		if ab := math.Abs(a); ab > maxAbsAlpha {
			maxAbsAlpha = ab
		}
	}
	if maxAbsAlpha <= 0 {
		maxAbsAlpha = 1
	}
	maxR := e.domainDiameter()
	r := kernel.RadiusFor(iso, gammaThresh/maxAbsAlpha, maxR)
	for {
		sc.idBuf = e.tree.AppendIDsNear(sc.idBuf[:0], box, r)
		idList := sc.idBuf
		if len(idList) >= n {
			return all(), 0
		}
		// Membership marks replace the map[int]bool formerly rebuilt on
		// every radius step: one epoch bump plus l stores.
		sc.sel.reset(n)
		for _, id := range idList {
			sc.sel.add(id)
		}
		gamma = e.gammaBound(iso, &sc.sel, boxes)
		if gamma <= gammaThresh {
			return idList, gamma
		}
		r = r*1.5 + 1e-9
		if r > maxR {
			return all(), 0
		}
	}
}

// gammaBound computes the paper's γ bound: for every sub-box of samples and
// every excluded training point x_l, the covariance k(x_j, x_l) for any
// sample x_j in the box lies in [κ(maxdist), κ(mindist)], so the omitted
// mean contribution Σ_l k(x_j, x_l)·α_l lies in a computable interval; γ is
// the worst absolute endpoint over boxes. sel marks membership in the local
// subset.
func (e *Evaluator) gammaBound(iso kernel.Isotropic, sel *markSet, boxes []rtree.Rect) float64 {
	alpha := e.g.Alpha()
	var worst float64
	for _, b := range boxes {
		var up, lo float64
		for id := 0; id < e.g.Len(); id++ {
			if sel.has(id) {
				continue
			}
			x := e.g.X(id)
			kNear := iso.EvalDist(b.MinDist(x))
			kFar := iso.EvalDist(b.MaxDist(x))
			a := alpha[id]
			if a >= 0 {
				up += kNear * a
				lo += kFar * a
			} else {
				up += kFar * a
				lo += kNear * a
			}
		}
		if g := math.Max(math.Abs(up), math.Abs(lo)); g > worst {
			worst = g
		}
	}
	return worst
}

// domainDiameter estimates the largest distance in the training domain so
// radius growth terminates.
func (e *Evaluator) domainDiameter() float64 {
	if e.g.Len() == 0 {
		return 1
	}
	sc := &e.scratch
	first := e.g.X(0)
	lo := append(sc.domLo[:0], first...)
	hi := append(sc.domHi[:0], first...)
	for i := 1; i < e.g.Len(); i++ {
		for j, v := range e.g.X(i) {
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	sc.domLo, sc.domHi = lo, hi
	var s float64
	for j := range lo {
		d := hi[j] - lo[j]
		s += d * d
	}
	return math.Sqrt(s) + 1
}

// TreeIDsNear exposes the R-tree distance query for benchmarks and
// diagnostics: ids of training points within delta of rect.
func (e *Evaluator) TreeIDsNear(rect rtree.Rect, delta float64) []int {
	return e.tree.IDsNear(rect, delta)
}

// GammaBoundForBoxes exposes the local-inference γ bound for a given
// selected subset and sample boxes (used by the sub-box ablation). It
// returns 0 when the kernel is not isotropic.
func (e *Evaluator) GammaBoundForBoxes(selected map[int]bool, boxes []rtree.Rect) float64 {
	iso, ok := e.cfg.Kernel.(kernel.Isotropic)
	if !ok {
		return 0
	}
	var sel markSet
	sel.reset(e.g.Len())
	for id, in := range selected {
		if in && id >= 0 && id < e.g.Len() {
			sel.add(id)
		}
	}
	return e.gammaBound(iso, &sel, boxes)
}

// SubBoxes exposes the sample-partitioning refinement of §5.1. Unlike the
// evaluator's internal scratch-backed path it returns freshly owned rects.
func SubBoxes(samples [][]float64) []rtree.Rect {
	var b boxScratch
	return b.sub(samples, rtree.BoundingBox(samples))
}
