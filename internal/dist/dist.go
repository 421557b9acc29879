// Package dist models uncertain scalar attributes as univariate probability
// distributions and uncertain tuples as multivariate random vectors (paper
// §2.1: "an uncertain input tuple modeled as a random vector X").
//
// The package has two layers:
//
//   - Dist, a closed interface over the concrete scalar families Normal,
//     Uniform, Gamma, Exponential, and Constant. Every operation that needs
//     randomness takes an injected *rand.Rand so callers control determinism
//     (the engines replay seeds in tests and benchmarks).
//   - Vector, the joint distribution of a whole input tuple. The only
//     composition the paper needs is the independent product (per-attribute
//     measurement errors are modeled independently), provided by Independent
//     and the IsoGaussianVec convenience for N(μ, σ²I) inputs.
//
// Everything is pure stdlib; the numeric helpers (StdNormalQuantile, the
// regularized incomplete gamma behind Gamma.CDF) are implemented here.
package dist

import "math/rand"

// Dist is a univariate probability distribution: the model of one uncertain
// scalar attribute. Implementations are small value types, safe to copy and
// to share across goroutines; all randomness flows through the *rand.Rand
// passed to Sample.
type Dist interface {
	// Sample draws one value using rng.
	Sample(rng *rand.Rand) float64
	// PDF returns the probability density at x (for Constant, a point
	// mass, it is +Inf at the atom and 0 elsewhere).
	PDF(x float64) float64
	// CDF returns Pr[X ≤ x].
	CDF(x float64) float64
	// Mean returns E[X].
	Mean() float64
	// Variance returns Var[X].
	Variance() float64
	// Support returns bounds (lo, hi) with Pr[lo ≤ X ≤ hi] = 1; unbounded
	// sides are ±Inf.
	Support() (lo, hi float64)
}
