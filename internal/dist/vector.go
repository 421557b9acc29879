package dist

import (
	"fmt"
	"math/rand"
)

// Vector is the joint distribution of a whole uncertain input tuple: the
// random vector X the engines sample from. SampleVec reuses buf when it has
// the right length so the Monte-Carlo hot loop allocates nothing per draw.
type Vector interface {
	// Dim returns the number of components.
	Dim() int
	// SampleVec draws one joint sample into buf (allocated when nil or the
	// wrong length) and returns it.
	SampleVec(rng *rand.Rand, buf []float64) []float64
	// MeanVec returns the component-wise mean E[X] as a fresh slice.
	MeanVec() []float64
}

// Independent is the product distribution of independent scalar components —
// the paper's uncertain-tuple model, where each attribute carries its own
// measurement error.
type Independent struct {
	comps []Dist
}

// NewIndependent builds the product of the given components. The slice is
// copied; the component values themselves are immutable by convention.
func NewIndependent(components ...Dist) *Independent {
	return &Independent{comps: append([]Dist(nil), components...)}
}

// SetComponents makes v the product of components without copying the
// slice, so a caller that builds one input per request line can reuse one
// vector and one component slice across lines. The caller must not change
// components while v is in use.
func (v *Independent) SetComponents(components []Dist) { v.comps = components }

// Dim returns the number of components.
func (v *Independent) Dim() int { return len(v.comps) }

// SampleVec draws each component independently.
func (v *Independent) SampleVec(rng *rand.Rand, buf []float64) []float64 {
	if len(buf) != len(v.comps) {
		buf = make([]float64, len(v.comps))
	}
	for i, c := range v.comps {
		buf[i] = c.Sample(rng)
	}
	return buf
}

// MeanVec returns the component means.
func (v *Independent) MeanVec() []float64 {
	out := make([]float64, len(v.comps))
	for i, c := range v.comps {
		out[i] = c.Mean()
	}
	return out
}

// IsoGaussianVec returns the isotropic Gaussian input N(mu, σ²I), the
// paper's default uncertain-tuple model (§6.1: "σ_I = 0.5"). It fails only
// for σ ≤ 0 or an empty mean vector.
func IsoGaussianVec(mu []float64, sigma float64) (*Independent, error) {
	if sigma <= 0 {
		return nil, fmt.Errorf("dist: IsoGaussianVec needs σ > 0, got %g", sigma)
	}
	if len(mu) == 0 {
		return nil, fmt.Errorf("dist: IsoGaussianVec needs a non-empty mean vector")
	}
	comps := make([]Dist, len(mu))
	for i, m := range mu {
		comps[i] = Normal{Mu: m, Sigma: sigma}
	}
	return &Independent{comps: comps}, nil
}
