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
func (e Envelope) DiscrepancyBound(lambda float64) float64 {
	return e.DiscrepancyBoundWith(nil, lambda)
}

// BoundScratch holds the reusable work buffers of DiscrepancyBoundWith.
// The zero value is ready to use; buffers grow on demand and are retained,
// so the per-tuning-iteration bound computation stops allocating once warm.
type BoundScratch struct {
	vals, bs   []float64
	fh, fs, fl []float64
}

// DiscrepancyBoundWith is DiscrepancyBound with caller-provided scratch
// buffers (nil behaves like DiscrepancyBound and allocates).
//
// This is the per-tuple inner loop of Algorithm 5, so on top of the scratch
// reuse it exploits monotonicity throughout: the three supports are already
// sorted, so one streaming merge (mergeCandidates) yields the merged support,
// the b-candidate set, and all three CDFs at every candidate; the two search
// indices of the left-endpoint sweep (j0 at a+λ and the envelope crossing
// jt) are monotone in a, so one pass over the candidates serves every a.
// Total cost is O(m) after envelope construction.
func (e Envelope) DiscrepancyBoundWith(s *BoundScratch, lambda float64) float64 {
	if s == nil {
		s = &BoundScratch{}
	}
	s.mergeCandidates(e.Mean.xs, e.Lower.xs, e.Upper.xs, lambda)
	vals, bs := s.vals, s.bs
	if len(vals) == 0 {
		return 0
	}
	mb := len(bs)
	fh, fs, fl := s.fh, s.fs, s.fl
	// The left endpoint a sweeps the merged support from the largest point
	// down, then the −∞ sentinel (i = −1, where every CDF is 0). Every
	// support point is itself a b-candidate (index p), so its three CDF
	// values are already in fh/fs/fl. Both search indices only move
	// backward as a shrinks:
	// j0: first b-candidate ≥ a+λ (the sentinel mb when past the end);
	// jt: first b-candidate with F_L(b) > F_S(a) (F_S(a) shrinks with a, and
	// fl is non-decreasing over candidates).
	// The suffix maxima over [j0, mb] of u = F_S − F̂ and over
	// [max(j0, jt), mb] of w = F̂ − F_L then only grow, as running maxima;
	// both are 0 at the +∞ sentinel.
	j0, jt, kw, p := mb, mb, mb, mb-1
	var best, maxU, maxW float64
	for i := len(vals) - 1; i >= -1; i-- {
		fhA, fsA, flA, aPlusLambda := 0.0, 0.0, 0.0, math.Inf(-1)
		if i >= 0 {
			a := vals[i]
			for bs[p] > a {
				p--
			}
			fhA, fsA, flA, aPlusLambda = fh[p], fs[p], fl[p], a+lambda
		}
		for j0 > 0 && bs[j0-1] >= aPlusLambda {
			j0--
			if u := fs[j0] - fh[j0]; u > maxU {
				maxU = u
			}
		}
		// Term 1: u(b) + v(a) over b ≥ a+λ.
		if t := maxU + (fhA - flA); t > best {
			best = t
		}
		for jt > 0 && fl[jt-1] > fsA {
			jt--
		}
		// Regime 1 (ρ′_L clamped to 0): b ∈ [a+λ, b₁); F̂ is constant on
		// candidate gaps, so its supremum there is F̂ at candidate jt−1.
		if jt > j0 {
			if t := fh[jt-1] - fhA; t > best {
				best = t
			}
		} else if jt == j0 && j0 < mb && bs[j0] > aPlusLambda {
			// The gap [a+λ, bs[j0]) is regime 1 with F̂ constant at fh[j0-1]
			// (or 0 when j0 == 0). Only matters when a+λ is not itself a
			// candidate, which cannot happen for support a; kept for safety.
			prev := 0.0
			if j0 > 0 {
				prev = fh[j0-1]
			}
			if t := prev - fhA; t > best {
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

// cdfScale returns 1/len(xs), the per-rank CDF increment (0 when empty,
// matching ECDF.CDF's empty-distribution convention).
func cdfScale(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return 1 / float64(len(xs))
}

// mergeCandidates is the one streaming merge behind DiscrepancyBoundWith. It
// fills s.vals with the ascending union of the three sorted supports hx
// (F̂), sx (F_S), lx (F_L); s.bs with the deduplicated ascending union of
// vals and vals+λ (the b-candidates, vals alone when λ ≤ 0); and s.fh, s.fs,
// s.fl with each CDF at every candidate plus the +∞ sentinel 1.
//
// The CDFs come straight from the merge's live counters: a support's CDF at
// b is its count of points ≤ b, and when a candidate is emitted every point
// below the next unmerged value has been consumed — for a shifted candidate
// vals[q]+λ, which is emitted only while it is below that next value, this
// is exactly the points ≤ it. The shifted stream reads vals as the merge
// writes it: vals[q]+λ ≥ vals[q], so its head never outruns the output.
//
// Each step emits one candidate, and which stream it comes from is data
// dependent — a coin flip for the branch predictor — so the step is written
// as selects (min, conditional increments) the compiler lowers without
// branches. A value repeated within one support takes one step per copy: the
// repeat re-emits the candidate, which overwrites the previous entry with
// the larger counts, and appears twice in vals, which the bound's maximum
// over left endpoints does not notice.
func (s *BoundScratch) mergeCandidates(hx, sx, lx []float64, lambda float64) {
	n := len(hx) + len(sx) + len(lx)
	vals := growFloats(s.vals, n+1)
	bs := growFloats(s.bs, 2*n+1)
	fh := growFloats(s.fh, 2*n+1)
	fs := growFloats(s.fs, 2*n+1)
	fl := growFloats(s.fl, 2*n+1)
	invH, invS, invL := cdfScale(hx), cdfScale(sx), cdfScale(lx)
	inf := math.Inf(1)
	last := math.NaN() // the previous candidate; NaN equals nothing
	ih, is, il, q, nv, nb := 0, 0, 0, 0, 0, 0
	shifted := lambda > 0
	for {
		// 1 while a stream has points left. An exhausted support reads as
		// +∞ but must never advance, or a +∞ support point would over-count.
		hOK, sOK, lOK := b2i(ih < len(hx)), b2i(is < len(sx)), b2i(il < len(lx))
		hasC := b2i(shifted && q < nv)
		if hOK|sOK|lOK|hasC == 0 {
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
		c := inf
		if hasC == 1 {
			c = vals[q] + lambda
		}
		// u: the unshifted head is emitted; on a tie with the shifted head
		// both streams advance, as they name the same candidate.
		u := (hOK | sOK | lOK) & b2i(v <= c)
		ih += u & hOK & b2i(h == v)
		is += u & sOK & b2i(sv == v)
		il += u & lOK & b2i(l == v)
		q += hasC & b2i(c <= v)
		vals[nv] = v
		nv += u
		e := min(v, c)
		nb -= b2i(e == last)
		bs[nb] = e
		fh[nb] = float64(ih) * invH
		fs[nb] = float64(is) * invS
		fl[nb] = float64(il) * invL
		nb++
		last = e
	}
	fh[nb], fs[nb], fl[nb] = 1, 1, 1
	s.vals, s.bs = vals[:nv], bs[:nb]
	s.fh, s.fs, s.fl = fh[:nb+1], fs[:nb+1], fl[:nb+1]
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

// discrepancyBoundNaive is the O(m²) reference used to validate
// DiscrepancyBound in tests: it enumerates the candidate grid directly.
func (e Envelope) discrepancyBoundNaive(lambda float64) float64 {
	vals := mergedValues(e.Mean, e.Lower, e.Upper)
	if len(vals) == 0 {
		return 0
	}
	as := append([]float64{vals[0] - lambda - 1}, vals...)
	bs := append(bCandidates(vals, lambda), vals[len(vals)-1]+lambda+1)
	var best float64
	for _, a := range as {
		for _, b := range bs {
			// Same floating-point admissibility expression as the fast
			// path (see discLambdaNaive): b ≥ fl(a+λ).
			if b < a+lambda {
				continue
			}
			lo, mid, hi := e.IntervalBounds(a, b)
			if d := hi - mid; d > best {
				best = d
			}
			if d := mid - lo; d > best {
				best = d
			}
		}
	}
	return best
}

// KSBound returns the KS-metric error bound of Proposition 4.2:
// the KS distance between Ŷ′ and the envelope output is maximized when the
// emulated function sits on an envelope boundary, so the bound is
// max(KS(Ŷ′, Y′_S), KS(Ŷ′, Y′_L)).
func (e Envelope) KSBound() float64 {
	return math.Max(KS(e.Mean, e.Lower), KS(e.Mean, e.Upper))
}
