package ecdf

import (
	"math"
)

// Envelope packs the three empirical output CDFs of the GP approach
// (paper §4): Mean is Ŷ′ from the posterior mean f̂, Lower is Y′_S from
// f_S = f̂ − z_α σ, and Upper is Y′_L from f_L = f̂ + z_α σ. Because the
// three functions are ordered pointwise and evaluated on the same input
// samples, Lower's outputs are sample-wise ≤ Mean's ≤ Upper's, which makes
// F_S(y) ≥ F̂(y) ≥ F_L(y) for every y (the smaller the function values, the
// larger the CDF).
type Envelope struct {
	Mean  *ECDF // Ŷ′, the distribution returned to the user
	Lower *ECDF // Y′_S, from the lower envelope function f_S
	Upper *ECDF // Y′_L, from the upper envelope function f_L
}

// MeanBounds returns the range the output mean can take over functions
// inside the confidence envelope. Because Lower's samples are pointwise ≤
// Mean's ≤ Upper's, the mean of any enveloped function's output lies in
// [Lower.Mean(), Upper.Mean()]. This is the value interval the uncertain
// relational algebra (internal/query) ranks and aggregates on.
func (e Envelope) MeanBounds() (lo, hi float64) {
	return e.Lower.Mean(), e.Upper.Mean()
}

// QuantileBounds returns the range the output p-quantile can take over
// functions inside the confidence envelope. F_S ≥ F̂ ≥ F_L pointwise implies
// the inverse CDFs are ordered the other way, so the p-quantile of any
// enveloped output lies in [Lower.Quantile(p), Upper.Quantile(p)].
func (e Envelope) QuantileBounds(p float64) (lo, hi float64) {
	return e.Lower.Quantile(p), e.Upper.Quantile(p)
}

// IntervalBounds returns the envelope bounds (ρ′_L, ρ̂′, ρ′_U) for the
// probability that the output falls in [a, b] (Eqs. 3–4):
//
//	ρ′_U = F_S(b) − F_L(a)
//	ρ′_L = max(0, F_L(b) − F_S(a))
func (e Envelope) IntervalBounds(a, b float64) (lo, mid, hi float64) {
	mid = e.Mean.CDF(b) - e.Mean.CDF(a)
	hi = e.Lower.CDF(b) - e.Upper.CDF(a)
	lo = math.Max(0, e.Upper.CDF(b)-e.Lower.CDF(a))
	if hi > 1 {
		hi = 1
	}
	if hi < 0 {
		hi = 0
	}
	return lo, mid, hi
}

// DiscrepancyBound implements Algorithm 3: it returns
//
//	ε_GP = sup_{[a,b]: b−a ≥ λ} max(ρ′_U − ρ̂′, ρ̂′ − ρ′_L)
//
// the λ-discrepancy error bound between the returned distribution Ŷ′ and
// any output Y˜′ produced by a function inside the confidence envelope.
//
// Decomposition used (writing F̂, F_S, F_L for the three CDFs):
//
//	ρ′_U − ρ̂′ = u(b) + v(a),   u = F_S − F̂ ≥ 0,  v = F̂ − F_L ≥ 0
//	ρ̂′ − ρ′_L = F̂(b) − F̂(a)                 when F_L(b) ≤ F_S(a)
//	          = w(b) + s(a), w = F̂ − F_L, s = F_S − F̂   otherwise
//
// For each left endpoint a the first regime's best b is just below the
// crossing point b₁ where F_L first exceeds F_S(a) (paper Step 4b), and the
// second regime uses a suffix maximum of w (paper Step 2). The paper finds
// b₁ by binary search, for O(m log m); here the crossing index is monotone
// in a, so sweeping a from the largest support point down finds every b₁ in
// one backward scan, the suffix maxima become running maxima, and the total
// cost is O(m) over the three sorted supports.
//
// Both endpoints range over the merged support only. A left endpoint a
// within a step of the CDFs is dominated by the step's support point (same
// CDF values, a wider b-window), and so is a right endpoint b: all three
// ECDFs are right-continuous steps that jump only at support points, so
// (F̂, F_S, F_L) at any b ≥ a+λ equals the triple at b's predecessor, the
// last support point ≤ b. For λ > 0 the admissible b's predecessors are
// exactly the support points from the predecessor of fl(a+λ) up — which is
// never below a itself, since fl(a+λ) ≥ a — so the triples the supremum
// ranges over are those of a suffix of the merged support. For λ ≤ 0 the
// suffix starts at the first support point ≥ a+λ. A supremum over the same
// triples is the same float, whichever points carry them.
//
// A NaN support point has no place in a CDF, so an envelope holding one
// gets the vacuous bound 1.
func (e Envelope) DiscrepancyBound(lambda float64) float64 {
	return e.DiscrepancyBoundWith(nil, lambda)
}

// BoundScratch holds the reusable work buffers of DiscrepancyBoundWith.
// The zero value is ready to use; buffers grow on demand and are retained,
// so the per-tuning-iteration bound computation stops allocating once warm.
type BoundScratch struct {
	ds, fh, fs, fl []float64
}

// DiscrepancyBoundWith is DiscrepancyBound with caller-provided scratch
// buffers (nil behaves like DiscrepancyBound and allocates).
//
// This is the per-tuple inner loop of Algorithm 5, so on top of the scratch
// reuse it exploits monotonicity throughout: the three supports are already
// sorted, so one streaming merge (mergeSupport) yields the distinct merged
// support and all three CDFs at every point of it; the two search indices of
// the left-endpoint sweep (j0 at a+λ and the envelope crossing jt) are
// monotone in a, so one pass over the support serves every a. Total cost is
// O(m) after envelope construction.
func (e Envelope) DiscrepancyBoundWith(s *BoundScratch, lambda float64) float64 {
	if s == nil {
		s = &BoundScratch{}
	}
	hx, sx, lx := e.Mean.xs, e.Lower.xs, e.Upper.xs
	if hasNaN(hx) || hasNaN(sx) || hasNaN(lx) {
		return 1
	}
	s.mergeSupport(hx, sx, lx)
	ds, fh, fs, fl := s.ds, s.fh, s.fs, s.fl
	mb := len(ds)
	if mb == 0 {
		return 0
	}
	// The left endpoint a sweeps the merged support from the largest point
	// down (index i, with its own CDF triple), then the −∞ sentinel (i = −1,
	// where every CDF is 0). Both search indices only move backward as a
	// shrinks:
	// j0: the first index of the admissible suffix (see DiscrepancyBound);
	// jt: the first index with F_L(b) > F_S(a) (F_S(a) shrinks with a, and
	// fl is non-decreasing over the support).
	// The suffix maxima over [j0, mb] of u = F_S − F̂ and over
	// [max(j0, jt), mb] of w = F̂ − F_L then only grow, as running maxima;
	// both are 0 at the +∞ sentinel mb.
	shifted := lambda > 0
	j0, jt, kw := mb, mb, mb
	var best, maxU, maxW float64
	if shifted {
		// fl(a+λ) ≥ a, so the largest support point is admissible for every a.
		j0 = mb - 1
		if u := fs[j0] - fh[j0]; u > maxU {
			maxU = u
		}
	}
	for i := mb - 1; i >= -1; i-- {
		fhA, fsA, flA, aPlusLambda := 0.0, 0.0, 0.0, math.Inf(-1)
		if i >= 0 {
			fhA, fsA, flA, aPlusLambda = fh[i], fs[i], fl[i], ds[i]+lambda
		}
		if shifted {
			// j0: the predecessor of fl(a+λ), the last ds[j0] ≤ a+λ.
			for j0 > 0 && ds[j0] > aPlusLambda {
				j0--
				if u := fs[j0] - fh[j0]; u > maxU {
					maxU = u
				}
			}
		} else {
			// j0: the first ds[j0] ≥ a+λ (mb when past the end).
			for j0 > 0 && ds[j0-1] >= aPlusLambda {
				j0--
				if u := fs[j0] - fh[j0]; u > maxU {
					maxU = u
				}
			}
		}
		// Term 1: u(b) + v(a) over b ≥ a+λ.
		if t := maxU + (fhA - flA); t > best {
			best = t
		}
		for jt > 0 && fl[jt-1] > fsA {
			jt--
		}
		// Regime 1 (ρ′_L clamped to 0): b ∈ [a+λ, b₁); F̂ is non-decreasing,
		// so its supremum there is F̂ at the suffix's last index before jt.
		if jt > j0 {
			if t := fh[jt-1] - fhA; t > best {
				best = t
			}
		}
		// Regime 2: b ≥ max(a+λ, b₁) with ρ′_L > 0.
		for kw > max(j0, jt) {
			kw--
			if w := fh[kw] - fl[kw]; w > maxW {
				maxW = w
			}
		}
		if t := maxW + (fsA - fhA); t > best {
			best = t
		}
	}
	if best < 0 {
		best = 0
	}
	return best
}

// hasNaN reports whether a sorted support holds a NaN. Supports sorted in
// the NaN-first order of slices.Sort and sort.Float64s can hold one only at
// the front; a constant shift of such a support by an infinite offset
// (SetSortedShifted, +∞ − ∞) can also put one at the back.
func hasNaN(xs []float64) bool {
	return len(xs) > 0 && (xs[0] != xs[0] || xs[len(xs)-1] != xs[len(xs)-1])
}

// cdfScale returns 1/len(xs), the per-rank CDF increment (0 when empty,
// matching ECDF.CDF's empty-distribution convention).
func cdfScale(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return 1 / float64(len(xs))
}

// mergeSupport is the one streaming merge behind DiscrepancyBoundWith. It
// fills s.ds with the distinct ascending union of the three sorted supports
// hx (F̂), sx (F_S), lx (F_L), and s.fh, s.fs, s.fl with each CDF at every
// point of it plus the +∞ sentinel 1. The CDFs come straight from the
// merge's live counters: a support's CDF at v is its count of points ≤ v.
//
// Which support the next point comes from is data dependent — a coin flip
// for the branch predictor — so each step is written as selects (min,
// conditional increments) the compiler lowers without branches. A value
// repeated within one support takes one step per copy: the repeat re-emits
// the point, which overwrites the previous entry with the larger counts.
// A head advances unless it is above the step's minimum, so even a NaN out
// of sorted order (which makes the minimum NaN) cannot stall the merge.
func (s *BoundScratch) mergeSupport(hx, sx, lx []float64) {
	n := len(hx) + len(sx) + len(lx)
	ds := growFloats(s.ds, n)
	fh := growFloats(s.fh, n+1)
	fs := growFloats(s.fs, n+1)
	fl := growFloats(s.fl, n+1)
	invH, invS, invL := cdfScale(hx), cdfScale(sx), cdfScale(lx)
	inf := math.Inf(1)
	last := math.NaN() // the previous point; NaN equals nothing
	ih, is, il, nd := 0, 0, 0, 0
	for {
		// 1 while a stream has points left. An exhausted support reads as
		// +∞ but must never advance, or a +∞ support point would over-count.
		hOK, sOK, lOK := b2i(ih < len(hx)), b2i(is < len(sx)), b2i(il < len(lx))
		if hOK|sOK|lOK == 0 {
			break
		}
		h, sv, l := inf, inf, inf
		if hOK == 1 {
			h = hx[ih]
		}
		if sOK == 1 {
			sv = sx[is]
		}
		if lOK == 1 {
			l = lx[il]
		}
		v := min(h, sv, l)
		ih += hOK & b2i(!(h > v))
		is += sOK & b2i(!(sv > v))
		il += lOK & b2i(!(l > v))
		nd -= b2i(v == last)
		ds[nd] = v
		fh[nd] = float64(ih) * invH
		fs[nd] = float64(is) * invS
		fl[nd] = float64(il) * invL
		nd++
		last = v
	}
	fh[nd], fs[nd], fl[nd] = 1, 1, 1
	s.ds = ds[:nd]
	s.fh, s.fs, s.fl = fh[:nd+1], fs[:nd+1], fl[:nd+1]
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag
// move, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// growFloats resizes buf to length n, reusing capacity.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
