// Package gp implements Gaussian process regression, the statistical
// emulator the paper builds for black-box UDFs (§3).
//
// A GP is maintained as a set of training pairs (x*, f(x*)), a Cholesky
// factorization of the kernel Gram matrix K(X*, X*) + σ_n² I, and the weight
// vector α = (K + σ_n² I)⁻¹ y. Inference for a test point (Eq. 2) is then
//
//	mean     f̂(x) = k(x, X*) · α                         — O(n)
//	variance σ²(x) = k(x,x) − ‖L⁻¹ k(x, X*)‖²             — O(n²)
//
// Training points can be added incrementally in O(n²) via the bordered
// Cholesky update, which is what makes the paper's online tuning (§5.2)
// affordable, and hyperparameters are learned by maximum likelihood with
// analytic gradients (§3.4). The first-Newton-step estimate driving the
// online retraining heuristic (§5.3) is exposed as NewtonStep.
//
// Inference is the per-sample hot path of the whole system (~10⁴ predictions
// per input tuple), so every predict entry point has a scratch-buffer form
// that performs no heap allocation in the steady state: see Scratch,
// PredictWith, and PredictBatchWith. Mutating methods (Add, Fit, Train,
// Grad/GradHess) reuse GP-owned scratch and must not be called concurrently;
// read-only prediction with caller-owned Scratch values is safe from
// multiple goroutines.
package gp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"olgapro/internal/kernel"
	"olgapro/internal/mat"
)

// DefaultNoise is the default observation-noise variance. The paper's UDFs
// are deterministic, so this acts purely as numerical jitter keeping the
// Gram matrix positive definite.
const DefaultNoise = 1e-8

// ErrDuplicatePoint is returned by Add when a new training point is so close
// to an existing one that the Gram matrix would become singular.
var ErrDuplicatePoint = errors.New("gp: training point (numerically) duplicates an existing one")

// GP is a Gaussian process regression model. Create one with New.
type GP struct {
	kern  kernel.Kernel
	noise float64

	xs    [][]float64
	ys    []float64
	chol  mat.Cholesky
	alpha []float64

	addK []float64   // Add: kernel cross-vector scratch
	gram *mat.Matrix // Fit: Gram matrix scratch
	gh   ghScratch   // gradHess scratch
}

// Scratch holds the reusable buffers of the allocation-free predict path.
// The zero value is ready to use; buffers grow on demand and are retained
// between calls. A Scratch must not be shared between goroutines, but any
// number of goroutines may predict concurrently with their own Scratch.
type Scratch struct {
	k []float64 // kernel cross-vector k(x, X*)
	v []float64 // forward-solve buffer L⁻¹k
	// second cross-vector/solve pair, used by the two-point posterior
	// covariance; lazily grown so single-point predicts never pay for it.
	k2 []float64
	v2 []float64
}

// resize grows the buffers to length n without allocating in steady state.
func (s *Scratch) resize(n int) {
	if cap(s.k) < n {
		s.k = make([]float64, n)
		s.v = make([]float64, n)
	}
	s.k, s.v = s.k[:n], s.v[:n]
}

// resize2 grows the second buffer pair to length n.
func (s *Scratch) resize2(n int) {
	if cap(s.k2) < n {
		s.k2 = make([]float64, n)
		s.v2 = make([]float64, n)
	}
	s.k2, s.v2 = s.k2[:n], s.v2[:n]
}

// New returns an empty GP with the given kernel and observation-noise
// variance; noise ≤ 0 selects DefaultNoise.
func New(k kernel.Kernel, noise float64) *GP {
	if noise <= 0 {
		noise = DefaultNoise
	}
	return &GP{kern: k, noise: noise}
}

// Kernel returns the GP's kernel (shared, not a copy).
func (g *GP) Kernel() kernel.Kernel { return g.kern }

// Noise returns the observation-noise variance.
func (g *GP) Noise() float64 { return g.noise }

// Len returns the number of training points.
func (g *GP) Len() int { return len(g.xs) }

// X returns training input i (not a copy).
func (g *GP) X(i int) []float64 { return g.xs[i] }

// Y returns training output i.
func (g *GP) Y(i int) float64 { return g.ys[i] }

// Inputs returns the slice of training inputs (shared storage).
func (g *GP) Inputs() [][]float64 { return g.xs }

// Outputs returns the slice of training outputs (shared storage).
func (g *GP) Outputs() []float64 { return g.ys }

// Alpha returns the weight vector α = (K + σ_n²I)⁻¹ y (shared storage).
// Alpha[i] is the weight of training point i in every posterior mean, which
// local inference (§5.1) uses to bound the error of dropping far points.
func (g *GP) Alpha() []float64 { return g.alpha }

// refreshAlpha recomputes α = (K + σ_n²I)⁻¹ y into the retained buffer,
// growing it with doubling so per-Add refreshes stay amortized
// allocation-free.
func (g *GP) refreshAlpha() {
	n := len(g.ys)
	if cap(g.alpha) < n {
		g.alpha = make([]float64, n, max(2*cap(g.alpha), n))
	}
	g.alpha = g.alpha[:n]
	g.chol.SolveVecTo(g.alpha, g.ys)
}

// Add appends one training pair and updates the factorization incrementally
// in O(n²) (paper §5.2). The input slice is copied. Together with the
// capacity-doubling packed factor, steady-state Add performs no allocation
// beyond the copied point itself.
func (g *GP) Add(x []float64, y float64) error {
	if len(g.xs) > 0 && len(x) != len(g.xs[0]) {
		return fmt.Errorf("gp: point dim %d ≠ %d", len(x), len(g.xs[0]))
	}
	if cap(g.addK) < len(g.xs) {
		g.addK = make([]float64, len(g.xs), 2*len(g.xs)+1)
	}
	k := g.addK[:len(g.xs)]
	for i, xi := range g.xs {
		k[i] = g.kern.Eval(xi, x)
	}
	kappa := g.kern.Eval(x, x) + g.noise
	if err := g.chol.Extend(k, kappa); err != nil {
		return fmt.Errorf("%w: %v", ErrDuplicatePoint, err)
	}
	cp := make([]float64, len(x))
	copy(cp, x)
	g.xs = append(g.xs, cp)
	g.ys = append(g.ys, y)
	g.refreshAlpha()
	return nil
}

// Replay returns a GP holding the training pairs with exactly the factor and
// α that adding them one by one with Add would leave: the factor is extended
// once per point in order, with Add's kernel evaluations, and α is solved
// once at the end. Add's α refreshes are each overwritten by the next Add,
// so skipping them moves no bit, and the replay costs one O(n³/3) pass
// instead of that plus n O(n²) solves. The pairs are copied, the inputs into
// one contiguous block, so predictions walk them in memory order. A point
// that fails the extension is reported as ErrDuplicatePoint with its index.
func Replay(k kernel.Kernel, noise float64, xs [][]float64, ys []float64) (*GP, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("gp: replay lengths %d ≠ %d", len(xs), len(ys))
	}
	g := New(k, noise)
	n := len(xs)
	if n == 0 {
		return g, nil
	}
	d := len(xs[0])
	flat := make([]float64, n*d)
	g.xs = make([][]float64, n)
	for i, x := range xs {
		if len(x) != d {
			return nil, fmt.Errorf("gp: replay point %d dim %d ≠ %d", i, len(x), d)
		}
		g.xs[i] = flat[i*d : (i+1)*d : (i+1)*d]
		copy(g.xs[i], x)
	}
	g.ys = append([]float64(nil), ys...)
	g.chol.Reserve(n)
	kv := make([]float64, n)
	for i, x := range g.xs {
		for j, xj := range g.xs[:i] {
			kv[j] = g.kern.Eval(xj, x)
		}
		if err := g.chol.Extend(kv[:i], g.kern.Eval(x, x)+g.noise); err != nil {
			return nil, fmt.Errorf("gp: replay point %d: %w: %v", i, ErrDuplicatePoint, err)
		}
	}
	g.refreshAlpha()
	return g, nil
}

// AddBatch adds several training pairs, refitting once at the end, which is
// cheaper than repeated Add for large batches.
func (g *GP) AddBatch(xs [][]float64, ys []float64) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("gp: batch lengths %d ≠ %d", len(xs), len(ys))
	}
	for i, x := range xs {
		if len(g.xs) > 0 && len(x) != len(g.xs[0]) {
			return fmt.Errorf("gp: point dim %d ≠ %d", len(x), len(g.xs[0]))
		}
		cp := make([]float64, len(x))
		copy(cp, x)
		g.xs = append(g.xs, cp)
		g.ys = append(g.ys, ys[i])
	}
	return g.Fit()
}

// Fit refactorizes the Gram matrix from scratch in O(n³). Call it after
// changing hyperparameters; Add keeps the factorization current otherwise.
func (g *GP) Fit() error {
	if len(g.xs) == 0 {
		g.chol = mat.Cholesky{}
		g.alpha = nil
		return nil
	}
	g.gram = kernel.GramInto(g.gram, g.kern, g.xs)
	for i := 0; i < len(g.xs); i++ {
		g.gram.Add(i, i, g.noise)
	}
	if _, err := g.chol.FactorizeJittered(g.gram, g.noise*10, 8); err != nil {
		return fmt.Errorf("gp: fit: %w", err)
	}
	g.refreshAlpha()
	return nil
}

// Predict returns the posterior mean and variance at x (Eq. 2).
// With no training data it returns the prior (0, k(x,x)).
// This convenience form allocates; the hot path uses PredictWith.
func (g *GP) Predict(x []float64) (mean, variance float64) {
	var s Scratch
	return g.PredictWith(&s, x)
}

// PredictWith is Predict with caller-provided scratch: zero heap allocations
// once s has grown to the model size.
func (g *GP) PredictWith(s *Scratch, x []float64) (mean, variance float64) {
	prior := kernel.SelfCov(g.kern, x)
	if len(g.xs) == 0 {
		return 0, prior
	}
	s.resize(len(g.xs))
	kernel.CrossVec(g.kern, g.xs, x, s.k)
	mean = mat.Dot(s.k, g.alpha)
	g.chol.ForwardSolveTo(s.v, s.k)
	variance = prior - mat.Dot(s.v, s.v)
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

// PosteriorCov returns the posterior covariance between test points x and y.
// This convenience form allocates; the hot path uses PosteriorCovWith.
func (g *GP) PosteriorCov(x, y []float64) float64 {
	var s Scratch
	return g.PosteriorCovWith(&s, x, y)
}

// PosteriorCovWith returns the posterior covariance between test points x
// and y under the current model,
//
//	cov(x, y) = k(x, y) − k(x, X*)ᵀ (K + σ_n²I)⁻¹ k(y, X*)
//	          = k(x, y) − (L⁻¹k_x)·(L⁻¹k_y),
//
// via two forward solves — O(n²), zero heap allocations once s has grown.
// It is the quantity behind the rank-1 greedy-tuning fast path (§5.2): adding
// a hypothetical training point at x_c with predictive variance s_c (plus
// noise) shrinks every other predictive variance by exactly cov(x_c, x_j)²/s_c
// and, when the hypothetical observation differs from the posterior mean m̂_c
// by Δ, shifts every posterior mean by Δ·cov(x_c, x_j)/s_c — so one
// posterior-covariance pass replaces a full re-factorize-and-re-predict.
func (g *GP) PosteriorCovWith(s *Scratch, x, y []float64) float64 {
	prior := g.kern.Eval(x, y)
	if len(g.xs) == 0 {
		return prior
	}
	n := len(g.xs)
	s.resize(n)
	s.resize2(n)
	kernel.CrossVec(g.kern, g.xs, x, s.k)
	g.chol.ForwardSolveTo(s.v, s.k)
	kernel.CrossVec(g.kern, g.xs, y, s.k2)
	g.chol.ForwardSolveTo(s.v2, s.k2)
	return prior - mat.Dot(s.v, s.v2)
}

// PredictMean returns only the posterior mean at x, in O(n).
func (g *GP) PredictMean(x []float64) float64 {
	if len(g.xs) == 0 {
		return 0
	}
	var s float64
	for i, xi := range g.xs {
		s += g.kern.Eval(xi, x) * g.alpha[i]
	}
	return s
}

// PredictBatch fills means[i], vars[i] for each test point. Slices may be
// nil; they are allocated as needed and returned. Internal buffers are
// reused across the batch, so the cost is two small allocations per call
// regardless of batch size; PredictBatchWith eliminates those too.
func (g *GP) PredictBatch(xs [][]float64, means, vars []float64) ([]float64, []float64) {
	var s Scratch
	return g.PredictBatchWith(&s, xs, means, vars)
}

// PredictBatchWith is PredictBatch with caller-provided scratch: with means
// and vars of sufficient capacity it performs zero heap allocations in the
// steady state.
func (g *GP) PredictBatchWith(s *Scratch, xs [][]float64, means, vars []float64) ([]float64, []float64) {
	if cap(means) < len(xs) {
		means = make([]float64, len(xs))
	}
	if cap(vars) < len(xs) {
		vars = make([]float64, len(xs))
	}
	means, vars = means[:len(xs)], vars[:len(xs)]
	for i, x := range xs {
		means[i], vars[i] = g.PredictWith(s, x)
	}
	return means, vars
}

// LogLikelihood returns the log marginal likelihood
// L(θ) = −½ yᵀα − ½ log|K+σ_n²I| − (n/2) log 2π (§3.4).
func (g *GP) LogLikelihood() float64 {
	n := len(g.xs)
	if n == 0 {
		return 0
	}
	return -0.5*mat.Dot(g.ys, g.alpha) - 0.5*g.chol.LogDet() - 0.5*float64(n)*math.Log(2*math.Pi)
}

// ghScratch holds the reusable state of gradHess. Peak live memory is two
// n×n matrices (K⁻¹ and one per-parameter work matrix, reused across
// parameters) plus O(n + p) vectors — independent of the number of
// hyperparameters p, where the previous implementation kept p derivative
// matrices (and p more for the Hessian) live at once.
type ghScratch struct {
	kinv *mat.Matrix // K⁻¹ (streamed against per-pair derivatives)
	w    *mat.Matrix // Kⱼ for the current j, overwritten by S = L⁻¹KⱼL⁻ᵀ
	gbuf []float64   // per-pair ∂k/∂θ
	hbuf []float64   // per-pair ∂²k/∂θ²
	u    []float64   // Kⱼα for the current j
	sv   []float64   // solve scratch
	hq   []float64   // αᵀKⱼⱼα accumulators
	ht   []float64   // tr(K⁻¹Kⱼⱼ) accumulators
	gq   []float64   // αᵀKⱼα accumulators (gradient-only path)
	gt   []float64   // tr(K⁻¹Kⱼ) accumulators (gradient-only path)
}

func (s *ghScratch) resize(n, p int, wantHess bool) {
	if s.kinv == nil {
		s.kinv = mat.New(n, n)
	} else {
		s.kinv.Reset(n, n)
	}
	if cap(s.gbuf) < p {
		s.gbuf = make([]float64, p)
		s.hbuf = make([]float64, p)
		s.gq = make([]float64, p)
		s.gt = make([]float64, p)
		s.hq = make([]float64, p)
		s.ht = make([]float64, p)
	}
	s.gbuf, s.hbuf = s.gbuf[:p], s.hbuf[:p]
	s.gq, s.gt = s.gq[:p], s.gt[:p]
	s.hq, s.ht = s.hq[:p], s.ht[:p]
	for j := 0; j < p; j++ {
		s.gq[j], s.gt[j], s.hq[j], s.ht[j] = 0, 0, 0, 0
	}
	if wantHess {
		if s.w == nil {
			s.w = mat.New(n, n)
		} else {
			s.w.Reset(n, n)
		}
		if cap(s.u) < n {
			s.u = make([]float64, n)
			s.sv = make([]float64, n)
		}
		s.u, s.sv = s.u[:n], s.sv[:n]
	}
}

// gradHess computes the gradient of the log marginal likelihood with respect
// to the kernel's log-hyperparameters and, when wantHess is true, the
// diagonal of its Hessian:
//
//	∂L/∂θⱼ  = ½ αᵀKⱼα − ½ tr(K⁻¹Kⱼ)
//	∂²L/∂θⱼ² = −αᵀKⱼK⁻¹Kⱼα + ½ αᵀKⱼⱼα + ½ tr(K⁻¹KⱼK⁻¹Kⱼ) − ½ tr(K⁻¹Kⱼⱼ)
//
// with Kⱼ = ∂K/∂θⱼ and Kⱼⱼ = ∂²K/∂θⱼ² (the second-derivative machinery of
// §5.3). Cost is O(p·n³) time and — unlike the former implementation, which
// materialized p (or 2p) full derivative matrices — O(n²) live memory
// regardless of p: per-pair ParamGrad values are streamed into running
// quadratic-form and trace accumulators against K⁻¹, and the Hessian's
// quartic trace is computed one parameter at a time in a single reused work
// matrix via tr(K⁻¹KⱼK⁻¹Kⱼ) = ‖L⁻¹KⱼL⁻ᵀ‖²_F.
func (g *GP) gradHess(wantHess bool) (grad, hess []float64) {
	n := len(g.xs)
	p := g.kern.NumParams()
	grad = make([]float64, p)
	if wantHess {
		hess = make([]float64, p)
	}
	if n == 0 {
		return grad, hess
	}
	s := &g.gh
	s.resize(n, p, wantHess)
	g.chol.InverseTo(s.kinv)

	if !wantHess {
		// Single streaming sweep: both gradient terms are sums of per-pair
		// products, so no derivative matrix is ever materialized.
		for i := 0; i < n; i++ {
			kinvRow := s.kinv.Row(i)
			for l := 0; l <= i; l++ {
				g.kern.ParamGrad(g.xs[i], g.xs[l], s.gbuf, nil)
				w := 2.0
				if i == l {
					w = 1
				}
				aa := w * g.alpha[i] * g.alpha[l]
				kk := w * kinvRow[l]
				for j := 0; j < p; j++ {
					s.gq[j] += aa * s.gbuf[j]
					s.gt[j] += kk * s.gbuf[j]
				}
			}
		}
		for j := 0; j < p; j++ {
			grad[j] = 0.5*s.gq[j] - 0.5*s.gt[j]
		}
		return grad, hess
	}

	for j := 0; j < p; j++ {
		// Sweep the pairs, materializing only Kⱼ for this parameter; the
		// second-derivative terms (which need no matrix at all) are streamed
		// for every parameter during the first sweep.
		for i := 0; i < n; i++ {
			wrow := s.w.Row(i)
			kinvRow := s.kinv.Row(i)
			for l := 0; l <= i; l++ {
				if j == 0 {
					g.kern.ParamGrad(g.xs[i], g.xs[l], s.gbuf, s.hbuf)
					w := 2.0
					if i == l {
						w = 1
					}
					aa := w * g.alpha[i] * g.alpha[l]
					kk := w * kinvRow[l]
					for q := 0; q < p; q++ {
						s.hq[q] += aa * s.hbuf[q]
						s.ht[q] += kk * s.hbuf[q]
					}
				} else {
					g.kern.ParamGrad(g.xs[i], g.xs[l], s.gbuf, nil)
				}
				wrow[l] = s.gbuf[j]
				s.w.Set(l, i, s.gbuf[j])
			}
		}
		// u = Kⱼα; quadratic forms for gradient and Hessian term 1.
		for i := 0; i < n; i++ {
			s.u[i] = mat.Dot(s.w.Row(i), g.alpha)
		}
		quad := mat.Dot(g.alpha, s.u)
		g.chol.SolveVecTo(s.sv, s.u)
		term1 := -mat.Dot(s.u, s.sv)
		// S = L⁻¹KⱼL⁻ᵀ in place: first each row r (= column r, Kⱼ is
		// symmetric) is forward-solved independently, leaving (L⁻¹Kⱼ)ᵀ; then
		// one blocked forward substitution applies the remaining L⁻¹. Both
		// passes walk rows contiguously.
		for r := 0; r < n; r++ {
			row := s.w.Row(r)
			g.chol.ForwardSolveTo(row, row)
		}
		for r := 0; r < n; r++ {
			row := s.w.Row(r)
			lrow := g.chol.LRow(r)
			for q := 0; q < r; q++ {
				mat.Axpy(-lrow[q], s.w.Row(q), row)
			}
			mat.ScaleVec(1/lrow[r], row)
		}
		var trS, t4 float64
		for r := 0; r < n; r++ {
			row := s.w.Row(r)
			trS += row[r]
			for _, v := range row {
				t4 += v * v
			}
		}
		grad[j] = 0.5*quad - 0.5*trS
		hess[j] = term1 + 0.5*s.hq[j] + 0.5*t4 - 0.5*s.ht[j]
	}
	return grad, hess
}

// Grad returns ∂L/∂θ for the current hyperparameters.
func (g *GP) Grad() []float64 {
	grad, _ := g.gradHess(false)
	return grad
}

// GradHess returns the gradient and diagonal Hessian of the log marginal
// likelihood.
func (g *GP) GradHess() (grad, hess []float64) {
	return g.gradHess(true)
}

// SamplePosterior draws one joint sample of the posterior function values at
// the given points (used to visualize posteriors like Fig. 1(b) and to
// validate confidence-band coverage). dst may be nil.
func (g *GP) SamplePosterior(rng *rand.Rand, points [][]float64, dst []float64) ([]float64, error) {
	m := len(points)
	if cap(dst) < m {
		dst = make([]float64, m)
	}
	dst = dst[:m]
	// Posterior mean and covariance at the points.
	mean := make([]float64, m)
	cov := mat.New(m, m)
	for i := 0; i < m; i++ {
		for j := 0; j <= i; j++ {
			v := g.kern.Eval(points[i], points[j])
			cov.Set(i, j, v)
			cov.Set(j, i, v)
		}
	}
	if len(g.xs) > 0 {
		cross := kernel.Cross(g.kern, g.xs, points) // n×m
		for j := 0; j < m; j++ {
			col := cross.Col(j)
			mean[j] = mat.Dot(col, g.alpha)
		}
		// Σ −= crossᵀ K⁻¹ cross, via forward solves.
		half := make([][]float64, m)
		for j := 0; j < m; j++ {
			half[j] = g.chol.ForwardSolve(cross.Col(j))
		}
		for i := 0; i < m; i++ {
			for j := 0; j <= i; j++ {
				v := cov.At(i, j) - mat.Dot(half[i], half[j])
				cov.Set(i, j, v)
				cov.Set(j, i, v)
			}
		}
	}
	var c mat.Cholesky
	if _, err := c.FactorizeJittered(cov, 1e-10, 10); err != nil {
		return nil, fmt.Errorf("gp: posterior covariance: %w", err)
	}
	z := make([]float64, m)
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	for i := 0; i < m; i++ {
		row := c.LRow(i)
		s := mean[i]
		for j := 0; j <= i; j++ {
			s += row[j] * z[j]
		}
		dst[i] = s
	}
	return dst, nil
}
