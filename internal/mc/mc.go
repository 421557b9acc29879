// Package mc implements the paper's Monte-Carlo baseline (§2.2): sample the
// uncertain input, evaluate the UDF on every sample, and return the
// empirical CDF of the outputs (Algorithm 1), plus Hoeffding-based online
// filtering for selection predicates (Remark 2.1).
package mc

import (
	"fmt"
	"math"
	"math/rand"

	"olgapro/internal/dist"
	"olgapro/internal/ecdf"
	"olgapro/internal/udf"
)

// Metric selects which distance the (ε,δ) guarantee is stated in.
type Metric int

const (
	// MetricKS targets the Kolmogorov–Smirnov distance; m = ln(2/δ)/(2ε²)
	// samples make the ECDF an (ε,δ)-approximation (DKW inequality, §2.2).
	MetricKS Metric = iota
	// MetricDiscrepancy targets the two-sided discrepancy measure; since
	// D ≤ 2·KS, the KS bound is run at ε/2.
	MetricDiscrepancy
)

// String names the metric.
func (m Metric) String() string {
	if m == MetricDiscrepancy {
		return "discrepancy"
	}
	return "KS"
}

// SampleSize returns the number of Monte-Carlo samples required for an
// (ε,δ)-approximation under the given metric: ceil(ln(2/δ)/(2ε²)), with ε
// halved for the discrepancy metric. For the paper's example ε=0.02, δ=0.05
// under discrepancy this exceeds 18000.
func SampleSize(eps, delta float64, metric Metric) int {
	if metric == MetricDiscrepancy {
		eps /= 2
	}
	return int(math.Ceil(math.Log(2/delta) / (2 * eps * eps)))
}

// HoeffdingRadius returns the half-width ε̃ of the two-sided (1−δ)
// confidence interval for a Bernoulli mean after m samples (Remark 2.1):
// ε̃ = sqrt(ln(2/δ)/(2m)).
func HoeffdingRadius(m int, delta float64) float64 {
	if m <= 0 {
		return 1
	}
	return math.Sqrt(math.Log(2/delta) / (2 * float64(m)))
}

// Predicate is a selection predicate f(X) ∈ [A, B] on the UDF output with a
// tuple-existence-probability threshold: outputs whose probability of
// falling in [A, B] is confidently below Theta are filtered (§2.2-B).
type Predicate struct {
	A, B  float64
	Theta float64
}

// Config controls Monte-Carlo evaluation. The zero value is usable: it
// defaults to (ε=0.1, δ=0.05) under the discrepancy metric.
type Config struct {
	Eps    float64 // accuracy target ε (default 0.1)
	Delta  float64 // confidence parameter δ (default 0.05)
	Metric Metric  // distance the guarantee is stated in

	// Predicate enables online filtering when non-nil.
	Predicate *Predicate
}

// filterCheckEvery is how many samples Evaluate draws between filter
// checks.
const filterCheckEvery = 64

func (c Config) normalize() Config {
	if c.Eps <= 0 {
		c.Eps = 0.1
	}
	if c.Delta <= 0 {
		c.Delta = 0.05
	}
	return c
}

// Result is the outcome of evaluating one uncertain tuple.
type Result struct {
	// Dist is the empirical output distribution Y′ (nil if Filtered).
	Dist *ecdf.ECDF
	// Samples is the number of Monte-Carlo samples drawn.
	Samples int
	// UDFCalls is the number of UDF evaluations performed (= Samples here;
	// the GP engine does better).
	UDFCalls int
	// Filtered reports that the tuple was dropped by the predicate filter.
	Filtered bool
	// TEP is the estimated tuple existence probability Pr[f(X) ∈ [A,B]]
	// when a predicate was supplied.
	TEP float64
}

// Evaluate runs Algorithm 1 on one uncertain input: it draws the required
// number of samples from input, evaluates f on each, and returns the
// empirical output CDF. With a predicate configured it checks the Hoeffding
// interval every filterCheckEvery samples and stops early once the tuple is
// confidently below the TEP threshold.
func Evaluate(f udf.Func, input dist.Vector, cfg Config, rng *rand.Rand) (Result, error) {
	if f.Dim() != input.Dim() {
		return Result{}, fmt.Errorf("mc: UDF dim %d ≠ input dim %d", f.Dim(), input.Dim())
	}
	cfg = cfg.normalize()
	m := SampleSize(cfg.Eps, cfg.Delta, cfg.Metric)
	outs := make([]float64, 0, m)
	var hits int
	buf := make([]float64, input.Dim())
	res := Result{}
	for i := 0; i < m; i++ {
		buf = input.SampleVec(rng, buf)
		y := f.Eval(buf)
		outs = append(outs, y)
		if cfg.Predicate != nil {
			if y >= cfg.Predicate.A && y <= cfg.Predicate.B {
				hits++
			}
			if (i+1)%filterCheckEvery == 0 {
				rho := float64(hits) / float64(i+1)
				if rho+HoeffdingRadius(i+1, cfg.Delta) < cfg.Predicate.Theta {
					res.Filtered = true
					res.Samples = i + 1
					res.UDFCalls = i + 1
					res.TEP = rho
					return res, nil
				}
			}
		}
	}
	res.Dist = ecdf.New(outs)
	res.Samples = m
	res.UDFCalls = m
	if cfg.Predicate != nil {
		res.TEP = float64(hits) / float64(m)
		if res.TEP < cfg.Predicate.Theta {
			// Not confidently filterable early, but below threshold at full
			// precision: report it filtered with the final estimate.
			res.Filtered = true
			res.Dist = nil
		}
	}
	return res, nil
}

// GroundTruth evaluates f on samples input draws with no (ε,δ) accounting;
// it is used by tests and the harness to build high-resolution reference
// distributions.
func GroundTruth(f udf.Func, input dist.Vector, samples int, rng *rand.Rand) *ecdf.ECDF {
	outs := make([]float64, samples)
	buf := make([]float64, input.Dim())
	for i := range outs {
		buf = input.SampleVec(rng, buf)
		outs[i] = f.Eval(buf)
	}
	return ecdf.New(outs)
}
