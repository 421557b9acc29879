// Package kernel implements the covariance functions used to model UDFs
// with Gaussian processes (paper §3.2): the squared-exponential kernel the
// paper focuses on, plus Matérn 3/2 and 5/2 alternatives for less smooth
// functions, as the paper suggests users may plug in.
//
// Hyperparameters are exposed in log space, the standard parameterization
// for unconstrained maximum-likelihood training (§3.4). Each kernel provides
// analytic first and second derivatives with respect to its log-parameters,
// which drive both gradient-ascent training and the Newton-step retraining
// heuristic of §5.3, and its second spectral moment, which drives the
// simultaneous-confidence-band computation of §4.2.
package kernel

import (
	"fmt"
	"math"

	"olgapro/internal/mat"
)

// Kernel is a stationary covariance function k(x, x′) with log-space
// hyperparameters.
type Kernel interface {
	// Eval returns k(x, y).
	Eval(x, y []float64) float64
	// NumParams returns the number of hyperparameters.
	NumParams() int
	// Params appends the log-space hyperparameters to dst and returns it.
	// After SetParams(p) it appends exactly p, so SetParams(Params()) is
	// the identity.
	Params(dst []float64) []float64
	// SetParams sets the log-space hyperparameters.
	SetParams(p []float64)
	// ParamGrad fills grad[j] = ∂k/∂θ_j and, if hess is non-nil,
	// hess[j] = ∂²k/∂θ_j² evaluated at (x, y), θ in log space.
	ParamGrad(x, y []float64, grad, hess []float64)
	// SecondSpectralMoment returns λ₂ = −r″(0) of the correlation
	// function r(t) = k(t)/k(0) along one input dimension, used for
	// expected-Euler-characteristic confidence bands.
	SecondSpectralMoment() float64
	// Clone returns an independent copy.
	Clone() Kernel
	// String describes the kernel and its current hyperparameters.
	String() string
}

// BatchEvaler is implemented by kernels that can fill a whole row of
// covariances k(xs[i], y) in one call. Batching hoists the per-pair interface
// dispatch and length validation out of the inner loop and splits the work
// into a tight squared-distance pass (mat.SqDistRowsTo) followed by a tight
// transform pass — the restructuring that lets the compiler keep both loops
// branch-free. CrossVec and GramInto use it automatically, which is how the
// speedup reaches gp.PredictBatchWith, local inference, and online tuning
// without any caller changes. Implementations must produce values identical
// to per-pair Eval calls.
type BatchEvaler interface {
	// EvalBatch fills dst[i] = k(xs[i], y); len(dst) must equal len(xs).
	EvalBatch(dst []float64, xs [][]float64, y []float64)
}

// logMemo remembers the log-space value SetParams last gave one
// hyperparameter and the value it set from it. Params answers with the
// remembered log value while the hyperparameter still holds that value, which
// makes SetParams(Params()) the identity: recomputing log(exp(θ)) can land an
// ulp away from θ, so a kernel passed through Params/SetParams twice (a
// snapshot restore, then a frozen clone) would otherwise predict differently
// from one passed through once (a frozen clone of the owner).
type logMemo struct{ log, val float64 }

// set remembers p and returns exp(p), the hyperparameter value to store.
func (m *logMemo) set(p float64) float64 {
	m.log, m.val = p, math.Exp(p)
	return m.val
}

// of returns the log-space value of the hyperparameter v: the remembered
// one if v is still what set produced, log(v) otherwise (v was never set
// through SetParams, or was assigned directly since). The zero memo has
// val 0, which no positive hyperparameter matches.
func (m logMemo) of(v float64) float64 {
	if v == m.val && v != 0 {
		return m.log
	}
	return math.Log(v)
}

// Gram returns a freshly allocated n×n covariance matrix
// K[i][j] = k(xs[i], xs[j]).
func Gram(k Kernel, xs [][]float64) *mat.Matrix {
	return GramInto(nil, k, xs)
}

// GramInto fills dst with the covariance matrix K[i][j] = k(xs[i], xs[j]),
// resizing it in place (reusing its backing store) to n×n. A nil dst is
// allocated. It returns dst, letting callers that rebuild Gram matrices of
// slowly varying size — the local-inference context of §5.1 does so once per
// input tuple — avoid the O(n²) allocation. Each lower-triangle row is
// produced by one batched evaluation when the kernel supports it.
func GramInto(dst *mat.Matrix, k Kernel, xs [][]float64) *mat.Matrix {
	n := len(xs)
	if dst == nil {
		dst = mat.New(n, n)
	} else {
		dst.Reset(n, n)
	}
	if be, ok := k.(BatchEvaler); ok {
		for i := 0; i < n; i++ {
			row := dst.Row(i)
			be.EvalBatch(row[:i+1], xs[:i+1], xs[i])
			for j := 0; j < i; j++ {
				dst.Set(j, i, row[j])
			}
		}
		return dst
	}
	for i := 0; i < n; i++ {
		row := dst.Row(i)
		for j := 0; j <= i; j++ {
			v := k.Eval(xs[i], xs[j])
			row[j] = v
			dst.Set(j, i, v)
		}
	}
	return dst
}

// Cross fills the n×m covariance matrix K[i][j] = k(xs[i], ys[j]).
func Cross(k Kernel, xs, ys [][]float64) *mat.Matrix {
	out := mat.New(len(xs), len(ys))
	if be, ok := k.(BatchEvaler); ok {
		col := make([]float64, len(xs))
		for j := range ys {
			be.EvalBatch(col, xs, ys[j])
			for i := range xs {
				out.Set(i, j, col[i])
			}
		}
		return out
	}
	for i := range xs {
		row := out.Row(i)
		for j := range ys {
			row[j] = k.Eval(xs[i], ys[j])
		}
	}
	return out
}

// CrossVec fills dst[i] = k(xs[i], y), batching the row when the kernel
// implements BatchEvaler.
func CrossVec(k Kernel, xs [][]float64, y []float64, dst []float64) []float64 {
	if cap(dst) < len(xs) {
		dst = make([]float64, len(xs))
	}
	dst = dst[:len(xs)]
	if be, ok := k.(BatchEvaler); ok {
		be.EvalBatch(dst, xs, y)
		return dst
	}
	for i := range xs {
		dst[i] = k.Eval(xs[i], y)
	}
	return dst
}

// SqExp is the isotropic squared-exponential (RBF) kernel
//
//	k(x, x′) = σ_f² exp(−‖x−x′‖² / (2 ℓ²)),
//
// the paper's default covariance function. Hyperparameters in log space are
// θ = (log σ_f, log ℓ).
type SqExp struct {
	SigmaF float64 // signal standard deviation σ_f
	Len    float64 // lengthscale ℓ
	logs   [2]logMemo
}

// NewSqExp returns a squared-exponential kernel with the given signal
// standard deviation and lengthscale.
func NewSqExp(sigmaF, length float64) *SqExp {
	if sigmaF <= 0 || length <= 0 {
		panic(fmt.Sprintf("kernel: non-positive SqExp parameters σf=%g ℓ=%g", sigmaF, length))
	}
	return &SqExp{SigmaF: sigmaF, Len: length}
}

// Eval returns k(x, y).
func (k *SqExp) Eval(x, y []float64) float64 {
	s := mat.SqDist(x, y)
	return k.SigmaF * k.SigmaF * math.Exp(-0.5*s/(k.Len*k.Len))
}

// NumParams returns 2.
func (k *SqExp) NumParams() int { return 2 }

// Params appends (log σ_f, log ℓ).
func (k *SqExp) Params(dst []float64) []float64 {
	return append(dst, k.logs[0].of(k.SigmaF), k.logs[1].of(k.Len))
}

// SetParams sets (log σ_f, log ℓ).
func (k *SqExp) SetParams(p []float64) {
	if len(p) != 2 {
		panic(fmt.Sprintf("kernel: SqExp wants 2 params, got %d", len(p)))
	}
	k.SigmaF = k.logs[0].set(p[0])
	k.Len = k.logs[1].set(p[1])
}

// ParamGrad fills the log-space derivatives:
//
//	∂k/∂logσ_f = 2k            ∂²k/∂logσ_f² = 4k
//	∂k/∂logℓ  = k·s/ℓ²         ∂²k/∂logℓ²  = k·(s²/ℓ⁴ − 2s/ℓ²)
//
// with s = ‖x−y‖².
func (k *SqExp) ParamGrad(x, y []float64, grad, hess []float64) {
	s := mat.SqDist(x, y)
	l2 := k.Len * k.Len
	kv := k.SigmaF * k.SigmaF * math.Exp(-0.5*s/l2)
	grad[0] = 2 * kv
	grad[1] = kv * s / l2
	if hess != nil {
		hess[0] = 4 * kv
		hess[1] = kv * (s*s/(l2*l2) - 2*s/l2)
	}
}

// EvalBatch fills dst[i] = k(xs[i], y) via one squared-distance pass and one
// transform pass. Both passes follow the exact operation order of Eval, so
// the batched and per-pair paths agree bit-for-bit.
func (k *SqExp) EvalBatch(dst []float64, xs [][]float64, y []float64) {
	mat.SqDistRowsTo(dst, xs, y)
	sf2 := k.SigmaF * k.SigmaF
	l2 := k.Len * k.Len
	for i, s := range dst {
		dst[i] = sf2 * math.Exp(-0.5*s/l2)
	}
}

// SecondSpectralMoment returns 1/ℓ².
func (k *SqExp) SecondSpectralMoment() float64 { return 1 / (k.Len * k.Len) }

// Clone returns a copy.
func (k *SqExp) Clone() Kernel { c := *k; return &c }

// String describes the kernel.
func (k *SqExp) String() string {
	return fmt.Sprintf("SqExp(σf=%.4g, ℓ=%.4g)", k.SigmaF, k.Len)
}

// Matern32 is the Matérn ν=3/2 kernel
//
//	k(x, x′) = σ_f² (1 + a t) exp(−a t),  a = √3/ℓ,  t = ‖x−x′‖,
//
// suited to once-mean-square-differentiable functions (paper §3.2).
type Matern32 struct {
	SigmaF float64
	Len    float64
	logs   [2]logMemo
}

// NewMatern32 returns a Matérn 3/2 kernel.
func NewMatern32(sigmaF, length float64) *Matern32 {
	if sigmaF <= 0 || length <= 0 {
		panic(fmt.Sprintf("kernel: non-positive Matern32 parameters σf=%g ℓ=%g", sigmaF, length))
	}
	return &Matern32{SigmaF: sigmaF, Len: length}
}

// Eval returns k(x, y).
func (k *Matern32) Eval(x, y []float64) float64 {
	t := mat.Dist2(x, y)
	a := math.Sqrt(3) / k.Len
	return k.SigmaF * k.SigmaF * (1 + a*t) * math.Exp(-a*t)
}

// NumParams returns 2.
func (k *Matern32) NumParams() int { return 2 }

// Params appends (log σ_f, log ℓ).
func (k *Matern32) Params(dst []float64) []float64 {
	return append(dst, k.logs[0].of(k.SigmaF), k.logs[1].of(k.Len))
}

// SetParams sets (log σ_f, log ℓ).
func (k *Matern32) SetParams(p []float64) {
	if len(p) != 2 {
		panic(fmt.Sprintf("kernel: Matern32 wants 2 params, got %d", len(p)))
	}
	k.SigmaF = k.logs[0].set(p[0])
	k.Len = k.logs[1].set(p[1])
}

// ParamGrad fills the log-space derivatives; with a = √3/ℓ, t = ‖x−y‖:
//
//	∂k/∂logℓ = σ_f² a² t² e^{−at},  ∂²k/∂logℓ² = σ_f² t² e^{−at}(a³t − 2a²)·(−1)
//
// (the sign worked out below), and the σ_f derivatives are 2k and 4k.
func (k *Matern32) ParamGrad(x, y []float64, grad, hess []float64) {
	t := mat.Dist2(x, y)
	a := math.Sqrt(3) / k.Len
	e := math.Exp(-a * t)
	sf2 := k.SigmaF * k.SigmaF
	kv := sf2 * (1 + a*t) * e
	grad[0] = 2 * kv
	// ∂k/∂a = −σ_f² a t² e^{−at}; ∂a/∂logℓ = −a ⇒ ∂k/∂logℓ = σ_f² a² t² e^{−at}.
	grad[1] = sf2 * a * a * t * t * e
	if hess != nil {
		hess[0] = 4 * kv
		// ∂/∂logℓ [σ_f² a² t² e^{−at}] = σ_f² t² e^{−at} (−2a² + a³ t)·(∂a/∂logℓ = −a applied)
		hess[1] = sf2 * t * t * e * (a*a*a*t - 2*a*a)
	}
}

// EvalBatch fills dst[i] = k(xs[i], y), batched like SqExp.EvalBatch.
func (k *Matern32) EvalBatch(dst []float64, xs [][]float64, y []float64) {
	mat.SqDistRowsTo(dst, xs, y)
	sf2 := k.SigmaF * k.SigmaF
	a := math.Sqrt(3) / k.Len
	for i, s := range dst {
		t := math.Sqrt(s)
		dst[i] = sf2 * (1 + a*t) * math.Exp(-a*t)
	}
}

// SecondSpectralMoment returns 3/ℓ².
func (k *Matern32) SecondSpectralMoment() float64 { return 3 / (k.Len * k.Len) }

// Clone returns a copy.
func (k *Matern32) Clone() Kernel { c := *k; return &c }

// String describes the kernel.
func (k *Matern32) String() string {
	return fmt.Sprintf("Matern32(σf=%.4g, ℓ=%.4g)", k.SigmaF, k.Len)
}

// Matern52 is the Matérn ν=5/2 kernel
//
//	k(x, x′) = σ_f² (1 + a t + a²t²/3) exp(−a t),  a = √5/ℓ.
type Matern52 struct {
	SigmaF float64
	Len    float64
	logs   [2]logMemo
}

// NewMatern52 returns a Matérn 5/2 kernel.
func NewMatern52(sigmaF, length float64) *Matern52 {
	if sigmaF <= 0 || length <= 0 {
		panic(fmt.Sprintf("kernel: non-positive Matern52 parameters σf=%g ℓ=%g", sigmaF, length))
	}
	return &Matern52{SigmaF: sigmaF, Len: length}
}

// Eval returns k(x, y).
func (k *Matern52) Eval(x, y []float64) float64 {
	t := mat.Dist2(x, y)
	a := math.Sqrt(5) / k.Len
	return k.SigmaF * k.SigmaF * (1 + a*t + a*a*t*t/3) * math.Exp(-a*t)
}

// NumParams returns 2.
func (k *Matern52) NumParams() int { return 2 }

// Params appends (log σ_f, log ℓ).
func (k *Matern52) Params(dst []float64) []float64 {
	return append(dst, k.logs[0].of(k.SigmaF), k.logs[1].of(k.Len))
}

// SetParams sets (log σ_f, log ℓ).
func (k *Matern52) SetParams(p []float64) {
	if len(p) != 2 {
		panic(fmt.Sprintf("kernel: Matern52 wants 2 params, got %d", len(p)))
	}
	k.SigmaF = k.logs[0].set(p[0])
	k.Len = k.logs[1].set(p[1])
}

// ParamGrad fills the log-space derivatives; with a = √5/ℓ, t = ‖x−y‖:
//
//	∂k/∂logℓ  = σ_f² e^{−at} (a²t²/3)(1 + at)
//	∂²k/∂logℓ² = σ_f² (t²/3) e^{−at} (a⁴t² − 2a³t − 2a²)
func (k *Matern52) ParamGrad(x, y []float64, grad, hess []float64) {
	t := mat.Dist2(x, y)
	a := math.Sqrt(5) / k.Len
	e := math.Exp(-a * t)
	sf2 := k.SigmaF * k.SigmaF
	kv := sf2 * (1 + a*t + a*a*t*t/3) * e
	grad[0] = 2 * kv
	grad[1] = sf2 * e * (a * a * t * t / 3) * (1 + a*t)
	if hess != nil {
		hess[0] = 4 * kv
		hess[1] = sf2 * (t * t / 3) * e * (a*a*a*a*t*t - 2*a*a*a*t - 2*a*a)
	}
}

// EvalBatch fills dst[i] = k(xs[i], y), batched like SqExp.EvalBatch.
func (k *Matern52) EvalBatch(dst []float64, xs [][]float64, y []float64) {
	mat.SqDistRowsTo(dst, xs, y)
	sf2 := k.SigmaF * k.SigmaF
	a := math.Sqrt(5) / k.Len
	for i, s := range dst {
		t := math.Sqrt(s)
		dst[i] = sf2 * (1 + a*t + a*a*t*t/3) * math.Exp(-a*t)
	}
}

// SecondSpectralMoment returns 5/(3ℓ²).
func (k *Matern52) SecondSpectralMoment() float64 { return 5 / (3 * k.Len * k.Len) }

// Clone returns a copy.
func (k *Matern52) Clone() Kernel { c := *k; return &c }

// String describes the kernel.
func (k *Matern52) String() string {
	return fmt.Sprintf("Matern52(σf=%.4g, ℓ=%.4g)", k.SigmaF, k.Len)
}

// Isotropic is implemented by kernels that are functions of the Euclidean
// distance only: k(x, y) = κ(‖x−y‖) with κ non-increasing. Local inference
// (paper §5.1) relies on this to bound the covariance between a sample
// bounding box and an excluded training point via the box's nearest and
// farthest points.
type Isotropic interface {
	Kernel
	// EvalDist returns κ(d) for distance d ≥ 0.
	EvalDist(d float64) float64
}

// EvalDist returns κ(d) for the squared-exponential kernel.
func (k *SqExp) EvalDist(d float64) float64 {
	return k.SigmaF * k.SigmaF * math.Exp(-0.5*d*d/(k.Len*k.Len))
}

// EvalDist returns κ(d) for the Matérn 3/2 kernel.
func (k *Matern32) EvalDist(d float64) float64 {
	a := math.Sqrt(3) / k.Len
	return k.SigmaF * k.SigmaF * (1 + a*d) * math.Exp(-a*d)
}

// EvalDist returns κ(d) for the Matérn 5/2 kernel.
func (k *Matern52) EvalDist(d float64) float64 {
	a := math.Sqrt(5) / k.Len
	return k.SigmaF * k.SigmaF * (1 + a*d + a*a*d*d/3) * math.Exp(-a*d)
}

// RadiusFor returns the smallest distance r at which κ(r) ≤ target, found by
// doubling then bisection (κ is non-increasing). It returns 0 if already
// κ(0) ≤ target and maxR if κ(maxR) > target.
func RadiusFor(k Isotropic, target, maxR float64) float64 {
	if k.EvalDist(0) <= target {
		return 0
	}
	if k.EvalDist(maxR) > target {
		return maxR
	}
	lo, hi := 0.0, maxR
	for i := 0; i < 100 && hi-lo > 1e-9*(1+hi); i++ {
		mid := (lo + hi) / 2
		if k.EvalDist(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}
