package ecdf

import (
	"math"
)

// KS returns the Kolmogorov–Smirnov distance
// sup_y |F(y) − G(y)| between two empirical CDFs (Definition 2).
func KS(f, g *ECDF) float64 {
	vals := mergedValues(f, g)
	var max float64
	for _, v := range vals {
		if d := math.Abs(f.CDF(v) - g.CDF(v)); d > max {
			max = d
		}
	}
	return max
}

// Discrepancy returns the discrepancy measure (Definition 1)
// sup_{a≤b} |Pr_F[a,b] − Pr_G[a,b]| between two empirical CDFs.
// It always satisfies Discrepancy ≤ 2·KS.
func Discrepancy(f, g *ECDF) float64 {
	return DiscrepancyLambda(f, g, 0)
}

// DiscrepancyLambda returns the λ-discrepancy (Definition 3)
// sup_{b−a≥λ} |Pr_F[a,b] − Pr_G[a,b]|.
//
// Writing h(y) = F(y) − G(y), the interval difference is h(b) − h(a), so the
// measure is sup over pairs (a, b) with b ≥ a+λ of |h(b) − h(a)|, where
// a = −∞ and b = +∞ (h = 0) cover the one-sided intervals. Both ECDFs are
// right-continuous steps that jump only at points of the merged support, so
// h at any y equals h at y's predecessor, the last support point ≤ y. Within
// a step the support point therefore dominates as a left endpoint (same h,
// a wider b-window), and the values h takes over b ≥ a+λ are its values on a
// suffix of the merged support: from the predecessor of fl(a+λ) when λ > 0
// (never below a, since fl(a+λ) ≥ a), from the first support point ≥ a+λ
// when λ ≤ 0. The supremum is found in O(m log m) with suffix max/min
// arrays over the support.
func DiscrepancyLambda(f, g *ECDF, lambda float64) float64 {
	vals := mergedValues(f, g)
	m := len(vals)
	if m == 0 {
		return 0
	}
	hv := make([]float64, m)
	for i, v := range vals {
		hv[i] = f.CDF(v) - g.CDF(v)
	}
	// Suffix maxima/minima of h over the support, +∞ sentinel h = 0.
	sufMax := make([]float64, m+1)
	sufMin := make([]float64, m+1)
	for i := m - 1; i >= 0; i-- {
		sufMax[i] = math.Max(hv[i], sufMax[i+1])
		sufMin[i] = math.Min(hv[i], sufMin[i+1])
	}
	// a = −∞ sentinel: h(a) = 0, every b admissible.
	best := math.Max(sufMax[0], -sufMin[0])
	j := 0
	for i := 0; i < m; i++ {
		lo := vals[i] + lambda
		if lambda > 0 {
			for j+1 < m && vals[j+1] <= lo {
				j++
			}
		} else {
			for j < m && vals[j] < lo {
				j++
			}
		}
		if rise := sufMax[j] - hv[i]; rise > best {
			best = rise
		}
		if fall := hv[i] - sufMin[j]; fall > best {
			best = fall
		}
	}
	return best
}

// KSAgainst returns sup_y |F(y) − C(y)| between the empirical CDF f and an
// analytic CDF c, evaluating the analytic CDF on both sides of each jump
// (the standard one-sample KS statistic).
func KSAgainst(f *ECDF, c func(float64) float64) float64 {
	n := len(f.xs)
	if n == 0 {
		return 0
	}
	var max float64
	for i, x := range f.xs {
		cv := c(x)
		hi := float64(i+1)/float64(n) - cv
		lo := cv - float64(i)/float64(n)
		if hi > max {
			max = hi
		}
		if lo > max {
			max = lo
		}
	}
	return max
}
