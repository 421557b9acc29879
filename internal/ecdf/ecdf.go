// Package ecdf implements empirical cumulative distribution functions and
// the accuracy metrics of the paper (§2.1): the Kolmogorov–Smirnov distance,
// the discrepancy measure over two-sided intervals, the λ-discrepancy
// restricted to intervals of length ≥ λ, and the envelope error bound of
// Algorithm 3 (§4.2), computed in O(m) over the three sorted supports.
//
// Interval probabilities follow the paper's convention
// Pr[Y ∈ [a,b]] = Pr[Y ≤ b] − Pr[Y ≤ a]; for the continuous distributions in
// scope the boundary-atom distinction is immaterial.
package ecdf

import (
	"fmt"
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function over a sorted sample.
type ECDF struct {
	xs []float64 // ascending
}

// New builds an ECDF from samples. The input slice is copied and sorted.
func New(samples []float64) *ECDF {
	xs := make([]float64, len(samples))
	copy(xs, samples)
	sort.Float64s(xs)
	return &ECDF{xs: xs}
}

// FromSorted builds an ECDF from an already-ascending slice without copying.
// It panics if the slice is not sorted, since a mis-sorted ECDF silently
// corrupts every downstream metric.
func FromSorted(xs []float64) *ECDF {
	return new(ECDF).SetSorted(xs)
}

// SetSorted repoints e at the already-ascending slice xs (with FromSorted's
// sortedness check) and returns e. It is the struct-reusing form of
// FromSorted for scratch-owned ECDFs on hot paths: a loop that rebuilds an
// envelope per iteration can keep three ECDF structs alive across
// iterations instead of heap-allocating three per call.
func (e *ECDF) SetSorted(xs []float64) *ECDF {
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			panic(fmt.Sprintf("ecdf: FromSorted input not sorted at %d", i))
		}
	}
	e.xs = xs
	return e
}

// SetSortedShifted is FromSortedShifted into a reused struct: dst is filled
// with base[i]+shift and e is repointed at it. Like FromSortedShifted it
// skips the sortedness re-check — a constant shift of an ascending base is
// ascending by construction.
func (e *ECDF) SetSortedShifted(dst, base []float64, shift float64) *ECDF {
	if len(dst) != len(base) {
		panic(fmt.Sprintf("ecdf: FromSortedShifted dst length %d ≠ %d", len(dst), len(base)))
	}
	for i, v := range base {
		dst[i] = v + shift
	}
	e.xs = dst
	return e
}

// FromSortedShifted builds an ECDF whose support is base[i] + shift, filling
// dst (which must have length len(base)) and aliasing it like FromSorted.
// A constant shift is an order-preserving transform of the sorted base, so no
// re-sort — and, unlike FromSorted, no O(m) sortedness re-check — is needed:
// the fill is the entire cost. This is what makes envelope construction
// sort-free when every sample shares one predictive variance (the lower and
// upper supports are then pure shifts of the sorted mean support): the
// prior-only regime before any local training point is selected, and any
// workload with homoscedastic predictions. base must be ascending.
func FromSortedShifted(dst, base []float64, shift float64) *ECDF {
	return new(ECDF).SetSortedShifted(dst, base, shift)
}

// Len returns the number of samples.
func (e *ECDF) Len() int { return len(e.xs) }

// Values returns the sorted sample values (not a copy).
func (e *ECDF) Values() []float64 { return e.xs }

// CDF returns the fraction of samples ≤ y.
func (e *ECDF) CDF(y float64) float64 {
	if len(e.xs) == 0 {
		return 0
	}
	n := sort.Search(len(e.xs), func(i int) bool { return e.xs[i] > y })
	return float64(n) / float64(len(e.xs))
}

// Quantile returns the p-quantile (0 ≤ p ≤ 1) using the inverse-CDF
// (type-1) definition.
func (e *ECDF) Quantile(p float64) float64 {
	if len(e.xs) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return e.xs[0]
	}
	if p >= 1 {
		return e.xs[len(e.xs)-1]
	}
	idx := int(math.Ceil(p*float64(len(e.xs)))) - 1
	if idx < 0 {
		idx = 0
	}
	return e.xs[idx]
}

// Mean returns the sample mean.
func (e *ECDF) Mean() float64 {
	if len(e.xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range e.xs {
		s += x
	}
	return s / float64(len(e.xs))
}

// Variance returns the (biased, 1/n) sample variance.
func (e *ECDF) Variance() float64 {
	if len(e.xs) == 0 {
		return math.NaN()
	}
	m := e.Mean()
	var s float64
	for _, x := range e.xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(e.xs))
}

// Min returns the smallest sample.
func (e *ECDF) Min() float64 {
	if len(e.xs) == 0 {
		return math.NaN()
	}
	return e.xs[0]
}

// Max returns the largest sample.
func (e *ECDF) Max() float64 {
	if len(e.xs) == 0 {
		return math.NaN()
	}
	return e.xs[len(e.xs)-1]
}

// Range returns Max − Min.
func (e *ECDF) Range() float64 { return e.Max() - e.Min() }

// IntervalProb returns Pr[a < Y ≤ b] = CDF(b) − CDF(a).
func (e *ECDF) IntervalProb(a, b float64) float64 {
	if b < a {
		return 0
	}
	return e.CDF(b) - e.CDF(a)
}

// Histogram bins the sample into n equal-width bins over [Min, Max] and
// returns the bin left edges and normalized densities (integrating to 1).
// It is used to render output PDFs such as Fig. 6(a).
func (e *ECDF) Histogram(n int) (edges, density []float64) {
	if n <= 0 || len(e.xs) == 0 {
		return nil, nil
	}
	lo, hi := e.Min(), e.Max()
	if hi == lo {
		hi = lo + 1
	}
	w := (hi - lo) / float64(n)
	edges = make([]float64, n)
	density = make([]float64, n)
	for i := range edges {
		edges[i] = lo + float64(i)*w
	}
	for _, x := range e.xs {
		idx := int((x - lo) / w)
		if idx >= n {
			idx = n - 1
		}
		density[idx]++
	}
	norm := 1 / (float64(len(e.xs)) * w)
	for i := range density {
		density[i] *= norm
	}
	return edges, density
}

// mergedValues returns the ascending union of the support points of the
// given ECDFs, with exact duplicates collapsed.
func mergedValues(es ...*ECDF) []float64 {
	return appendMerged(nil, es...)
}

// appendMerged is mergedValues into a reusable buffer: the union is built in
// dst[:0], so callers on the hot path avoid the O(m) allocation.
func appendMerged(dst []float64, es ...*ECDF) []float64 {
	dst = dst[:0]
	for _, e := range es {
		dst = append(dst, e.xs...)
	}
	sort.Float64s(dst)
	out := dst[:0]
	for i, v := range dst {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// Truncate returns the conditional distribution of Y given Y ∈ [a, b]: the
// paper's query Q2 notes that a selection predicate "truncates the
// distribution ... to the region [l, u], and hence yields a tuple existence
// probability". The second return value is that existence probability (the
// fraction of mass in [a, b]); when it is zero the returned ECDF is empty.
func (e *ECDF) Truncate(a, b float64) (*ECDF, float64) {
	if b < a {
		return FromSorted(nil), 0
	}
	lo := sort.Search(len(e.xs), func(i int) bool { return e.xs[i] >= a })
	hi := sort.Search(len(e.xs), func(i int) bool { return e.xs[i] > b })
	if hi <= lo {
		return FromSorted(nil), 0
	}
	kept := make([]float64, hi-lo)
	copy(kept, e.xs[lo:hi])
	tep := float64(hi-lo) / float64(len(e.xs))
	return FromSorted(kept), tep
}
