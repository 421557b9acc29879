package kernel

import (
	"fmt"
	"math"
)

// SqExpARD is the squared-exponential kernel with Automatic Relevance
// Determination: one lengthscale per input dimension,
//
//	k(x, x′) = σ_f² exp(−½ Σ_j (x_j − x′_j)²/ℓ_j²).
//
// The paper's future work calls out "a wider range of functions such as
// high-dimensional input" (§8); ARD lets maximum-likelihood training learn
// which of many input dimensions actually matter — irrelevant dimensions
// get long lengthscales and stop inflating the training-point requirement.
//
// SqExpARD is not isotropic, so OLGAPRO falls back to global inference for
// it unless the lengthscales happen to be equal; see NormalizedIsotropic.
type SqExpARD struct {
	SigmaF float64
	Lens   []float64 // per-dimension lengthscales ℓ_j
	logs   []logMemo // σ_f, then one per lengthscale
}

// NewSqExpARD returns an ARD kernel with the given per-dimension
// lengthscales.
func NewSqExpARD(sigmaF float64, lens []float64) *SqExpARD {
	if sigmaF <= 0 {
		panic(fmt.Sprintf("kernel: non-positive ARD σf=%g", sigmaF))
	}
	if len(lens) == 0 {
		panic("kernel: ARD needs at least one lengthscale")
	}
	cp := make([]float64, len(lens))
	for i, l := range lens {
		if l <= 0 {
			panic(fmt.Sprintf("kernel: non-positive ARD ℓ[%d]=%g", i, l))
		}
		cp[i] = l
	}
	return &SqExpARD{SigmaF: sigmaF, Lens: cp}
}

// Dim returns the number of input dimensions.
func (k *SqExpARD) Dim() int { return len(k.Lens) }

// Eval returns k(x, y).
func (k *SqExpARD) Eval(x, y []float64) float64 {
	if len(x) != len(k.Lens) || len(y) != len(k.Lens) {
		panic(fmt.Sprintf("kernel: ARD dims %d/%d ≠ %d", len(x), len(y), len(k.Lens)))
	}
	var s float64
	for j, l := range k.Lens {
		d := (x[j] - y[j]) / l
		s += d * d
	}
	return k.SigmaF * k.SigmaF * math.Exp(-0.5*s)
}

// SelfCov returns k(x, x) = σ_f² without the exp when every scaled
// coordinate difference (x_j − x_j)/ℓ_j is zero: each x_j finite and each
// ℓ_j > 0.
func (k *SqExpARD) SelfCov(x []float64) float64 {
	if len(x) != len(k.Lens) {
		return k.Eval(x, x)
	}
	for j, l := range k.Lens {
		if !(l > 0) || x[j]-x[j] != 0 {
			return k.Eval(x, x)
		}
	}
	return k.SigmaF * k.SigmaF
}

// EvalBatch fills dst[i] = k(xs[i], y). The scaled squared distance keeps
// Eval's per-dimension division so both paths agree bit-for-bit; batching
// still hoists the interface dispatch and dimension check out of the loop.
func (k *SqExpARD) EvalBatch(dst []float64, xs [][]float64, y []float64) {
	d := len(k.Lens)
	if len(y) != d {
		panic(fmt.Sprintf("kernel: ARD dim %d ≠ %d", len(y), d))
	}
	if len(dst) != len(xs) {
		panic(fmt.Sprintf("kernel: ARD batch dst length %d ≠ %d", len(dst), len(xs)))
	}
	sf2 := k.SigmaF * k.SigmaF
	for i, row := range xs {
		if len(row) != d {
			panic(fmt.Sprintf("kernel: ARD dims %d ≠ %d", len(row), d))
		}
		var s float64
		for j, l := range k.Lens {
			v := (row[j] - y[j]) / l
			s += v * v
		}
		dst[i] = sf2 * math.Exp(-0.5*s)
	}
}

// NumParams returns 1 + d: (log σ_f, log ℓ_1, …, log ℓ_d).
func (k *SqExpARD) NumParams() int { return 1 + len(k.Lens) }

// Params appends the log-space hyperparameters.
func (k *SqExpARD) Params(dst []float64) []float64 {
	dst = append(dst, k.memo(0).of(k.SigmaF))
	for j, l := range k.Lens {
		dst = append(dst, k.memo(j+1).of(l))
	}
	return dst
}

// memo returns hyperparameter i's logMemo (0 is σ_f); a kernel never passed
// through SetParams has none.
func (k *SqExpARD) memo(i int) logMemo {
	if i < len(k.logs) {
		return k.logs[i]
	}
	return logMemo{}
}

// SetParams sets the log-space hyperparameters.
func (k *SqExpARD) SetParams(p []float64) {
	if len(p) != k.NumParams() {
		panic(fmt.Sprintf("kernel: ARD wants %d params, got %d", k.NumParams(), len(p)))
	}
	if len(k.logs) != len(p) {
		k.logs = make([]logMemo, len(p))
	}
	k.SigmaF = k.logs[0].set(p[0])
	for j := range k.Lens {
		k.Lens[j] = k.logs[j+1].set(p[j+1])
	}
}

// ParamGrad fills log-space derivatives. With s_j = (x_j−y_j)²/ℓ_j²:
//
//	∂k/∂logσ_f = 2k             ∂²k/∂logσ_f² = 4k
//	∂k/∂logℓ_j = k·s_j          ∂²k/∂logℓ_j² = k·(s_j² − 2 s_j)
func (k *SqExpARD) ParamGrad(x, y []float64, grad, hess []float64) {
	var total float64
	sj := make([]float64, len(k.Lens))
	for j, l := range k.Lens {
		d := (x[j] - y[j]) / l
		sj[j] = d * d
		total += d * d
	}
	kv := k.SigmaF * k.SigmaF * math.Exp(-0.5*total)
	grad[0] = 2 * kv
	if hess != nil {
		hess[0] = 4 * kv
	}
	for j := range k.Lens {
		grad[j+1] = kv * sj[j]
		if hess != nil {
			hess[j+1] = kv * (sj[j]*sj[j] - 2*sj[j])
		}
	}
}

// SecondSpectralMoment returns the most conservative (largest) per-dimension
// moment 1/min(ℓ)² — confidence bands built from it are valid (wider) for
// every axis.
func (k *SqExpARD) SecondSpectralMoment() float64 {
	min := k.Lens[0]
	for _, l := range k.Lens[1:] {
		if l < min {
			min = l
		}
	}
	return 1 / (min * min)
}

// Clone returns a deep copy.
func (k *SqExpARD) Clone() Kernel {
	c := NewSqExpARD(k.SigmaF, k.Lens)
	c.logs = append([]logMemo(nil), k.logs...)
	return c
}

// String describes the kernel.
func (k *SqExpARD) String() string {
	return fmt.Sprintf("SqExpARD(σf=%.4g, ℓ=%v)", k.SigmaF, k.Lens)
}
