package ecdf

import (
	"math"
	"sort"
)

// This file holds the reference implementations the production metrics are
// checked against: the O(m²) enumerations over the exhaustive candidate
// grid, and the earlier O(m) forms that also visit every shifted candidate
// a+λ. The production code visits the merged support only; the differential
// tests require it to return the same bits as these.

// bCandidates returns the ascending candidate set for interval right
// endpoints: the merged support plus every support point shifted by +λ.
// Because every involved empirical CDF is a right-continuous step function
// whose jumps lie in the merged support, the supremum over real intervals
// [a, b] with a in the support (or −∞) and b ≥ a+λ is attained on this set
// (b = a+λ exactly, or b at a support point), plus the +∞ sentinel. A
// shifted candidate a+λ carries the CDF values of its predecessor in the
// merged support, which is why the production code can drop it.
func bCandidates(vals []float64, lambda float64) []float64 {
	out := append([]float64(nil), vals...)
	if lambda > 0 {
		for _, v := range vals {
			out = append(out, v+lambda)
		}
		sort.Float64s(out)
		dedup := out[:0]
		for i, v := range out {
			if i == 0 || v != dedup[len(dedup)-1] {
				dedup = append(dedup, v)
			}
		}
		out = dedup
	}
	return out
}

// discrepancyBoundNaive is the O(m²) reference for DiscrepancyBound: it
// enumerates the candidate grid directly.
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

// discLambdaNaive is the O(m²) reference for DiscrepancyLambda: it
// enumerates the same exhaustive candidate grid directly.
func discLambdaNaive(f, g *ECDF, lambda float64) float64 {
	vals := mergedValues(f, g)
	if len(vals) == 0 {
		return 0
	}
	as := append([]float64{vals[0] - lambda - 1}, vals...) // −∞ sentinel
	bs := append(bCandidates(vals, lambda), vals[len(vals)-1]+lambda+1)
	var best float64
	for _, a := range as {
		for _, b := range bs {
			// Admissibility must use the same floating-point expression as
			// the fast path (b ≥ fl(a+λ)): a candidate constructed as
			// fl(v+λ) represents an interval of width exactly λ, and
			// re-deriving the width as b−a can round the other way and
			// reject the pair the fast path legitimately scores.
			if b < a+lambda {
				continue
			}
			d := math.Abs((f.CDF(b) - f.CDF(a)) - (g.CDF(b) - g.CDF(a)))
			if d > best {
				best = d
			}
		}
	}
	return best
}

// discLambdaCandidates is the O(m log m) λ-discrepancy over the b-candidate
// grid (support plus shifted support), with a binary-searched CDF per
// candidate.
func discLambdaCandidates(f, g *ECDF, lambda float64) float64 {
	vals := mergedValues(f, g)
	m := len(vals)
	if m == 0 {
		return 0
	}
	bs := bCandidates(vals, lambda)
	mb := len(bs)
	hb := make([]float64, mb)
	for i, v := range bs {
		hb[i] = f.CDF(v) - g.CDF(v)
	}
	sufMax := make([]float64, mb+1)
	sufMin := make([]float64, mb+1)
	for i := mb - 1; i >= 0; i-- {
		sufMax[i] = math.Max(hb[i], sufMax[i+1])
		sufMin[i] = math.Min(hb[i], sufMin[i+1])
	}
	best := math.Max(sufMax[0], -sufMin[0])
	j := 0
	for i := 0; i < m; i++ {
		ha := f.CDF(vals[i]) - g.CDF(vals[i])
		lo := vals[i] + lambda
		for j < mb && bs[j] < lo {
			j++
		}
		if rise := sufMax[j] - ha; rise > best {
			best = rise
		}
		if fall := ha - sufMin[j]; fall > best {
			best = fall
		}
	}
	return best
}

// twoStreamScratch holds the buffers of discrepancyBoundTwoStream.
type twoStreamScratch struct {
	vals, bs   []float64
	fh, fs, fl []float64
}

// discrepancyBoundTwoStream is Algorithm 3 over the doubled b-candidate
// array: the merged support merged once more with its λ-shifted copy, and
// the sweep's j0 at the first candidate ≥ a+λ. It panics or loops on a NaN
// support point, so callers keep NaN out.
func (e Envelope) discrepancyBoundTwoStream(s *twoStreamScratch, lambda float64) float64 {
	s.mergeCandidates(e.Mean.xs, e.Lower.xs, e.Upper.xs, lambda)
	vals, bs := s.vals, s.bs
	if len(vals) == 0 {
		return 0
	}
	mb := len(bs)
	fh, fs, fl := s.fh, s.fs, s.fl
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
		if t := maxU + (fhA - flA); t > best {
			best = t
		}
		for jt > 0 && fl[jt-1] > fsA {
			jt--
		}
		if jt > j0 {
			if t := fh[jt-1] - fhA; t > best {
				best = t
			}
		} else if jt == j0 && j0 < mb && bs[j0] > aPlusLambda {
			prev := 0.0
			if j0 > 0 {
				prev = fh[j0-1]
			}
			if t := prev - fhA; t > best {
				best = t
			}
		}
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

// mergeCandidates fills s.vals with the ascending union of the three sorted
// supports (repeats kept), s.bs with the deduplicated ascending union of
// vals and vals+λ (vals alone when λ ≤ 0), and s.fh, s.fs, s.fl with each
// CDF at every candidate plus the +∞ sentinel 1. The shifted stream reads
// vals as the merge writes it: vals[q]+λ ≥ vals[q], so its head never
// outruns the output.
func (s *twoStreamScratch) mergeCandidates(hx, sx, lx []float64, lambda float64) {
	n := len(hx) + len(sx) + len(lx)
	vals := growFloats(s.vals, n+1)
	bs := growFloats(s.bs, 2*n+1)
	fh := growFloats(s.fh, 2*n+1)
	fs := growFloats(s.fs, 2*n+1)
	fl := growFloats(s.fl, 2*n+1)
	invH, invS, invL := cdfScale(hx), cdfScale(sx), cdfScale(lx)
	inf := math.Inf(1)
	last := math.NaN()
	ih, is, il, q, nv, nb := 0, 0, 0, 0, 0, 0
	shifted := lambda > 0
	for {
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
