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
// Every exact factor is built by one rule: point by point, each point
// extending the factor over the points before it with the kernel row
// k(X*, x) and the diagonal k(x,x) + σ_n² + jitter. Add extends once; Fit
// and Replay reset the factor and extend every point, under the smallest
// jitter in {0, 10σ_n², 100σ_n², …, 10⁸σ_n²} under which all of them
// extend. A later Add extends under that same jitter. The jitter is a
// function of the points: every smaller rung failed on the prefix the last
// refit saw, and fails identically in any rebuild, so Replay over a
// learner's pairs lands on the learner's jitter and on its factor and α bit
// for bit, and a snapshot needs only the pairs and the hyperparameters.
//
// Every predict entry point has a scratch-buffer form that performs no heap
// allocation in the steady state: see Scratch, PredictWith and
// PosteriorCovWith. The evaluator's per-sample predictions (~10⁴ per input
// tuple) do not go through them on an exact GP: core predicts on its local
// factor (localCtx.predictRange) and greedy tuning uses its own rank-1 pass.
// A Sparse model is predicted through Sparse.PredictWith. Mutating methods
// (Add, Fit, Train, Grad/GradHess) reuse GP-owned scratch and must not be
// called concurrently; read-only prediction with caller-owned Scratch values
// is safe from multiple goroutines.
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

	xs     [][]float64
	ys     []float64
	chol   mat.Cholesky
	alpha  []float64
	jitter float64 // diagonal shift of the factor, chosen by the last factor

	addK []float64 // extend: kernel cross-vector scratch
	gh   ghScratch // gradHess scratch
}

// jitterRungs is how many nonzero jitters factor tries: 10σ_n² up to
// 10⁸σ_n², each ten times the last.
const jitterRungs = 8

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

// extend borders the factor over xs with point x: the kernel row k(xs, x)
// and the diagonal k(x,x) + σ_n² + jitter. It is the only writer of factor
// rows, so a factor's bits depend on nothing but its points, the kernel,
// the noise and the jitter. Its row scratch grows by doubling, and at once
// to the training-set size when factor rebuilds a prefix of it.
func (g *GP) extend(xs [][]float64, x []float64) error {
	if cap(g.addK) < len(xs) {
		g.addK = make([]float64, len(xs), max(2*len(xs)+1, len(g.xs)))
	}
	k := kernel.CrossVec(g.kern, xs, x, g.addK[:len(xs)])
	return g.chol.Extend(k, g.kern.Eval(x, x)+g.noise+g.jitter)
}

// factor rebuilds the factor from the training pairs, extending point by
// point under the smallest jitter rung under which every point extends. It
// keeps that jitter for later Adds and solves α once. If no rung works, the
// factor is left empty and the error names the point that failed last.
func (g *GP) factor() error {
	var err error
	g.jitter = 0
	for rung := 0; rung <= jitterRungs; rung++ {
		g.chol.Reset()
		g.chol.Reserve(len(g.xs))
		i := 0
		for err = nil; err == nil && i < len(g.xs); i++ {
			err = g.extend(g.xs[:i], g.xs[i])
		}
		if err == nil {
			g.refreshAlpha()
			return nil
		}
		err = fmt.Errorf("point %d: %w: %v", i-1, ErrDuplicatePoint, err)
		g.jitter = max(10*g.noise, 10*g.jitter)
	}
	g.chol.Reset()
	return err
}

// Add appends one training pair and borders the factor with it in O(n²)
// (paper §5.2), under the jitter of the last refit. The input slice is
// copied. Together with the capacity-doubling packed factor, steady-state
// Add performs no allocation beyond the copied point itself.
func (g *GP) Add(x []float64, y float64) error {
	if len(g.xs) > 0 && len(x) != len(g.xs[0]) {
		return fmt.Errorf("gp: point dim %d ≠ %d", len(x), len(g.xs[0]))
	}
	if err := g.extend(g.xs, x); err != nil {
		return fmt.Errorf("%w: %v", ErrDuplicatePoint, err)
	}
	cp := make([]float64, len(x))
	copy(cp, x)
	g.xs = append(g.xs, cp)
	g.ys = append(g.ys, y)
	g.refreshAlpha()
	return nil
}

// Replay returns a GP holding the training pairs, factored as Fit factors
// them. That is exactly the factor, jitter and α of any GP that holds the
// same pairs under the same kernel and noise, whatever mix of Fit and Add
// built it (see the package doc): a learner's frozen clones, replicas and
// restores predict its bits. The pairs are copied, the inputs into one
// contiguous block, so predictions walk them in memory order. A point that
// fails every jitter rung is reported as ErrDuplicatePoint with its index.
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
	if err := g.factor(); err != nil {
		return nil, fmt.Errorf("gp: replay %w", err)
	}
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

// Fit refactors from scratch in O(n³), point by point under the smallest
// jitter rung that takes every point (see the package doc), and keeps that
// jitter for later Adds. Call it after changing hyperparameters; Add keeps
// the factorization current otherwise. It allocates nothing once the
// factor and α have held this many points.
func (g *GP) Fit() error {
	if err := g.factor(); err != nil {
		return fmt.Errorf("gp: fit: %w", err)
	}
	return nil
}

// Predict returns the posterior mean and variance at x (Eq. 2).
// With no training data it returns the prior (0, k(x,x)).
// This convenience form allocates; PredictWith takes caller scratch.
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
// This convenience form allocates; PosteriorCovWith takes caller scratch.
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
