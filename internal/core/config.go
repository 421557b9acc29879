// Package core implements OLGAPRO (ONline GAussian PROcess), the paper's
// complete online algorithm for computing output distributions of black-box
// UDFs over uncertain input with (ε,δ) accuracy guarantees (Algorithm 5).
//
// Per uncertain input tuple X ~ p(x), an Evaluator:
//
//  1. draws m Monte-Carlo samples of X, with m chosen so the sampling error
//     is within the ε_MC budget (§2.2);
//  2. retrieves a *local* subset of GP training points around the samples'
//     bounding box from an R-tree, with the dropped-point error bounded by
//     the threshold Γ (§5.1);
//  3. runs GP inference at the samples, builds a simultaneous confidence
//     envelope f̂ ± z_α σ (§4.2), and computes the λ-discrepancy error bound
//     of Algorithm 3;
//  4. while the bound exceeds the ε_GP budget, evaluates the true UDF at the
//     sample with the largest predictive variance and adds it as a training
//     point using the O(n²) incremental update (online tuning, §5.2);
//  5. if points were added, estimates the first Newton step on the log
//     marginal likelihood and retrains the hyperparameters only when the
//     step exceeds Δθ (online retraining, §5.3);
//  6. with a selection predicate, filters tuples whose tuple existence
//     probability upper bound is confidently below the threshold (§5.5).
package core

import (
	"fmt"
	"math"
	"runtime"

	"olgapro/internal/kernel"
	"olgapro/internal/mc"
)

// TuningPolicy selects where online tuning places the next training point
// (Expt 2 compares these).
type TuningPolicy int

const (
	// TuneMaxVariance adds the cached sample with the largest predictive
	// variance — the paper's choice.
	TuneMaxVariance TuningPolicy = iota
	// TuneRandom adds a uniformly random cached sample (baseline).
	TuneRandom
	// TuneOptimalGreedy simulates adding every cached sample and picks the
	// one that most reduces the error bound. Hypothetical reference point:
	// prohibitively expensive for production use.
	TuneOptimalGreedy
)

// String names the policy.
func (p TuningPolicy) String() string {
	switch p {
	case TuneRandom:
		return "random"
	case TuneOptimalGreedy:
		return "optimal-greedy"
	default:
		return "largest-variance"
	}
}

// RetrainPolicy selects when hyperparameters are relearned (Expt 3).
type RetrainPolicy int

const (
	// RetrainThreshold retrains when the first Newton step on the log
	// likelihood exceeds Δθ — the paper's strategy (§5.3).
	RetrainThreshold RetrainPolicy = iota
	// RetrainEager retrains whenever any training point was added.
	RetrainEager
	// RetrainNever never retrains.
	RetrainNever
)

// String names the policy.
func (p RetrainPolicy) String() string {
	switch p {
	case RetrainEager:
		return "eager"
	case RetrainNever:
		return "never"
	default:
		return "threshold"
	}
}

// Config parameterizes an Evaluator. The zero value selects the paper's
// defaults (§6.1): ε = 0.1, δ = 0.05, ε_MC = 0.7ε, λ = 1% of the output
// range, Γ = 5% of the output range, Δθ = 0.05.
type Config struct {
	// Eps is the total discrepancy error budget ε.
	Eps float64
	// Delta is the total failure probability δ, split evenly between the
	// MC and GP sources so that (1−δ) = (1−δ_MC)(1−δ_GP).
	Delta float64
	// MCFrac is the fraction of ε allocated to Monte-Carlo sampling error
	// (Profile 3 finds 0.7 performs well).
	MCFrac float64
	// Lambda is the minimum interval length λ of the λ-discrepancy. When 0,
	// 1% of the observed output range is used.
	Lambda float64
	// Gamma is the local-inference error threshold Γ. When 0, 5% of the
	// observed output range is used.
	Gamma float64
	// GlobalInference disables local inference, using every training point
	// (the paper's "global inference" baseline in Expt 1).
	GlobalInference bool
	// Tuning selects the online-tuning point-placement policy.
	Tuning TuningPolicy
	// MaxAddPerInput caps how many training points one Eval may add
	// (default 10, the cap the paper uses "for performance" in Expt 2).
	// A negative value disables online tuning entirely, which Expt 1 uses
	// to compare inference techniques at a fixed training-set size.
	MaxAddPerInput int
	// SampleOverride, when positive, replaces the ε_MC-derived Monte-Carlo
	// sample count — an experiment knob matching the paper's Expt 2 setup
	// ("we assume that each input has 400 samples for 'optimal greedy' to
	// be feasible"). It voids the ε_MC part of the guarantee.
	SampleOverride int
	// Retrain selects the retraining policy.
	Retrain RetrainPolicy
	// DeltaTheta is the Newton-step threshold Δθ for RetrainThreshold
	// (default 0.05, the paper's conservative recommendation).
	DeltaTheta float64
	// Kernel is the GP covariance function (default SqExp(1, 1)).
	Kernel kernel.Kernel
	// Noise is the GP jitter variance (default gp.DefaultNoise).
	Noise float64
	// Predicate enables online filtering (§5.5) when non-nil.
	Predicate *mc.Predicate
	// Parallelism fans GP inference over the Monte-Carlo samples out across
	// this many goroutines (the O(m·l²) dominant cost). 0 or 1 is
	// sequential; negative uses GOMAXPROCS. Model updates (online tuning,
	// retraining) remain sequential — they are inherently ordered.
	Parallelism int
	// SparseBudget, when positive, replaces the exact GP emulator with the
	// budgeted sparse inducing-point approximation (gp.Sparse): all factor
	// work is O(SparseBudget²) per absorbed point and per prediction,
	// independent of how many training points the evaluator has ever
	// learned — the knob that makes "serve forever" affordable. Local
	// R-tree inference (§5.1) is bypassed on this path: the inducing set
	// itself is the sparsity. 0 keeps the exact model.
	SparseBudget int
	// SparseInflate multiplies the sparse model's predictive standard
	// deviation (≥ 1), widening the §4.2 confidence band so the ε_GP bound
	// stays valid under the approximation. 0 selects the gp.Sparse default
	// (1.1); values below 1 are clamped to 1. Larger values trade more
	// online-tuning UDF calls (cost) for a more conservative band.
	SparseInflate float64
	// SparseSwapEvery is the inducing-set maintenance cadence in absorbed
	// points once the budget is full (0 selects the budget itself,
	// negative disables swap maintenance). Ignored when SparseBudget is 0.
	SparseSwapEvery int
	// FilterTrustModel skips the filter verification call. By default,
	// before a tuple is dropped, the true UDF is evaluated once at the
	// sample most likely to satisfy the predicate; if the observation
	// contradicts the confidence envelope the point becomes training data
	// and the tuple is processed fully instead. This guards against a
	// confidently wrong emulator in unexplored regions (filtered tuples
	// never trigger online tuning, so without the check the model can
	// mis-filter forever). One UDF call per dropped tuple preserves nearly
	// all of the filtering speedup. Set true for the paper's unguarded §5.5
	// behavior.
	FilterTrustModel bool
}

// Implementation defaults that no configuration changes.
const (
	// lambdaFrac is λ relative to the observed output range when
	// Config.Lambda is 0.
	lambdaFrac = 0.01
	// gammaFrac is Γ relative to the observed output range when
	// Config.Gamma is 0.
	gammaFrac = 0.05
	// trainMaxIter caps gradient-ascent iterations per retraining.
	trainMaxIter = 30
	// filterChunk is the number of samples per incremental inference chunk
	// when filtering.
	filterChunk = 64
)

func (c Config) normalize() (Config, error) {
	if c.Eps <= 0 {
		c.Eps = 0.1
	}
	if c.Delta <= 0 {
		c.Delta = 0.05
	}
	if c.Eps >= 1 || c.Delta >= 1 {
		return c, fmt.Errorf("core: ε=%g and δ=%g must be in (0,1)", c.Eps, c.Delta)
	}
	if c.MCFrac <= 0 || c.MCFrac >= 1 {
		c.MCFrac = 0.7
	}
	if c.MaxAddPerInput == 0 {
		c.MaxAddPerInput = 10
	} else if c.MaxAddPerInput < 0 {
		c.MaxAddPerInput = -1 // tuning disabled
	}
	if c.DeltaTheta <= 0 {
		c.DeltaTheta = 0.05
	}
	if c.Kernel == nil {
		c.Kernel = kernel.NewSqExp(1, 1)
	}
	if c.SparseBudget < 0 {
		c.SparseBudget = 0
	}
	if c.SparseBudget > 0 && c.SparseBudget < 2 {
		return c, fmt.Errorf("core: sparse budget %d must be ≥ 2 (bootstrap needs two basis points)", c.SparseBudget)
	}
	if c.Parallelism < 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c, nil
}

// Split returns the error/confidence allocation of Theorem 4.1:
// ε = ε_MC + ε_GP and (1−δ) = (1−δ_MC)(1−δ_GP) with δ split evenly.
func (c Config) Split() (epsMC, epsGP, deltaMC, deltaGP float64) {
	epsMC = c.MCFrac * c.Eps
	epsGP = c.Eps - epsMC
	d := 1 - math.Sqrt(1-c.Delta)
	return epsMC, epsGP, d, d
}
