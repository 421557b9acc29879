package core

import (
	"math"

	"olgapro/internal/ecdf"
	"olgapro/internal/mat"
	"olgapro/internal/rtree"
)

// evalScratch is the persistent per-evaluator workspace behind the
// near-zero-allocation evaluation hot path: every buffer whose size depends
// only on the Monte-Carlo sample count m, the training-set size n, or the
// local-subset size l lives here and is reused across Eval calls. An
// Evaluator is documented as single-goroutine, which is what makes one
// workspace per evaluator sound; the predictBuf pool additionally gives each
// predictInto worker goroutine its own buffers.
type evalScratch struct {
	sampleData []float64   // flat backing array for Eval's m×d sample matrix
	samples    [][]float64 // row headers into sampleData

	means, vars []float64 // per-sample posterior moments

	lc localCtx // the per-tuple local inference context, rebuilt in place

	env     envScratch        // envelope buffers for the error-bound loop
	tuneEnv envScratch        // separate buffers for pickOptimalGreedy's trials
	bound   ecdf.BoundScratch // DiscrepancyBound work buffers

	sel  markSet // selectLocal membership (per radius step)
	skip markSet // per-tuple skip set for tuning picks

	idBuf []int       // selectLocal id staging (copied into lc by buildLocal)
	gram  *mat.Matrix // local Gram staging for buildLocal

	box          boxScratch // sample bounding-box and sub-box buffers
	domLo, domHi []float64  // domainDiameter extent buffers

	pbufs []predictBuf // per-worker inference buffers; index 0 is sequential

	tuneMeans, tuneVars []float64 // pickOptimalGreedy evaluation-subset moments
	tuneY               []float64 // pickOptimalGreedy local observations

	// rank-1 greedy fast-path buffers (greedyBestRank1).
	tuneCands  []int       // candidate pool, by descending variance
	tuneAlpha  []float64   // local-solve weights α_L = K_L⁻¹ y_L
	tuneMHat   []float64   // local-solve means at the evaluation subset
	tuneEvalXs [][]float64 // evaluation-subset sample rows
	tuneCross  *mat.Matrix // eval×l cross-covariance rows K_eval
	tuneK      []float64   // candidate cross-vector k_c
	tuneU      []float64   // candidate solve u_c = K_L⁻¹ k_c
	tuneCC     []float64   // candidate↔eval kernel values k(x_c, x_j)
}

// boxScratch owns the per-tuple sample bounding box and the §5.1 sub-box
// partition. Both are recomputed every tuple from scratch-backed slices, so
// the steady state pays no allocation for them; the returned rects alias the
// scratch and are valid only until the next bounding/sub call.
type boxScratch struct {
	lo, hi []float64          // overall bounding-box backing
	mid    []float64          // sub's split point, the overall box center
	cells  [1 << 3]rtree.Rect // per-cell tight boxes (d ≤ 3), backings reused
	used   [1 << 3]bool
	out    []rtree.Rect // returned sub-box headers
}

// bounding computes the tight bounding box of samples into the reused
// backing arrays.
func (b *boxScratch) bounding(samples [][]float64) rtree.Rect {
	b.lo = append(b.lo[:0], samples[0]...)
	b.hi = append(b.hi[:0], samples[0]...)
	for _, p := range samples[1:] {
		for i, v := range p {
			if v < b.lo[i] {
				b.lo[i] = v
			}
			if v > b.hi[i] {
				b.hi[i] = v
			}
		}
	}
	return rtree.Rect{Lo: b.lo, Hi: b.hi}
}

// sub partitions samples into up-to-2^d sub-boxes split at the overall box
// center and returns the tight bounding box of each non-empty cell — the
// refinement the paper notes makes γ tighter. For d > 3 (2^d cells stop
// paying off) or few samples a single box is used. box must be the bounding
// box of samples.
func (b *boxScratch) sub(samples [][]float64, box rtree.Rect) []rtree.Rect {
	d := len(samples[0])
	out := b.out[:0]
	if d > 3 || len(samples) < 16 {
		b.out = append(out, box)
		return b.out
	}
	for k := range b.used {
		b.used[k] = false
	}
	mid := resizeFloats(&b.mid, d)
	for j := range mid {
		mid[j] = (box.Lo[j] + box.Hi[j]) / 2
	}
	for _, s := range samples {
		key := 0
		for j, c := range mid {
			if s[j] > c {
				key |= 1 << j
			}
		}
		c := &b.cells[key]
		if !b.used[key] {
			b.used[key] = true
			c.Lo = append(c.Lo[:0], s...)
			c.Hi = append(c.Hi[:0], s...)
		} else {
			for j, v := range s {
				if v < c.Lo[j] {
					c.Lo[j] = v
				}
				if v > c.Hi[j] {
					c.Hi[j] = v
				}
			}
		}
	}
	for k := 0; k < 1<<d; k++ {
		if b.used[k] {
			out = append(out, b.cells[k])
		}
	}
	b.out = out
	return out
}

// resizeRows grows *buf to n row headers, reusing capacity.
func resizeRows(buf *[][]float64, n int) [][]float64 {
	if cap(*buf) < n {
		*buf = make([][]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// buf returns worker buffer w, growing the pool as needed.
func (s *evalScratch) buf(w int) *predictBuf {
	s.growBufs(w + 1)
	return &s.pbufs[w]
}

// growBufs ensures the pool holds at least p buffers. It must be called
// before worker goroutines take pointers into the pool, since growth moves
// the backing array.
func (s *evalScratch) growBufs(p int) {
	for len(s.pbufs) < p {
		s.pbufs = append(s.pbufs, predictBuf{})
	}
}

// resizeFloats grows *buf to length n, reusing capacity, and returns it.
func resizeFloats(buf *[]float64, n int) []float64 {
	*buf = resizeFloatsVal(*buf, n)
	return *buf
}

// resizeFloatsVal grows buf to length n, reusing capacity, and returns it.
func resizeFloatsVal(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// markSet is an epoch-stamped integer set over [0, n): reset is O(1) — one
// epoch bump — instead of the O(n) rebuild of the map[int]bool it replaces,
// and membership is a single slice load.
type markSet struct {
	marks []int32
	epoch int32
	count int
}

// reset empties the set and sizes it for ids in [0, n).
func (m *markSet) reset(n int) {
	if cap(m.marks) < n {
		grown := make([]int32, n)
		copy(grown, m.marks)
		m.marks = grown
	}
	m.marks = m.marks[:n]
	if m.epoch == math.MaxInt32 {
		// Epoch wrap: clear stamps so stale entries cannot collide.
		for i := range m.marks {
			m.marks[i] = 0
		}
		m.epoch = 0
	}
	m.epoch++
	m.count = 0
}

// add inserts id (idempotently).
func (m *markSet) add(id int) {
	if m.marks[id] != m.epoch {
		m.marks[id] = m.epoch
		m.count++
	}
}

// has reports membership.
func (m *markSet) has(id int) bool { return m.marks[id] == m.epoch }

// size returns the number of distinct ids added since the last reset.
func (m *markSet) size() int { return m.count }

// envScratch owns the three sorted sample buffers an envelope is built from
// and the sort permutation of the mean support. The permutation persists
// across envelopeOf calls: within a tuple's tuning loop consecutive calls
// see means and variances that moved only slightly (one rank-1 model
// update), so writing the new means in the previous sorted order yields a
// handful of ascending runs and the adaptive merge below restores order in
// ~O(m) — the steady-state loop performs no comparison sort at all, where
// each call formerly paid three O(m log m) slices.Sort passes. The lower and
// upper supports need no order of their own: written in the sorted mean's
// order they are already nearly sorted, since a sample's band offset varies
// far less than the means do.
type envScratch struct {
	mean, lower, upper []float64
	permM              []int     // sorted-mean order of the samples
	permN              int       // sample count permM covers
	sideP              []int     // lower/upper sort permutation, discarded
	mergeV             []float64 // natural-merge value scratch
	mergeP             []int     // natural-merge permutation scratch

	// The three ECDF structs the returned envelope points into. Reusing
	// them (ecdf.SetSorted) instead of allocating fresh ones per call is
	// what makes the greedy trial loop — one envelopeOf per candidate —
	// allocation-free in the steady state; it also means an envelope from a
	// previous call is repointed, which the aliasing contract (valid only
	// until the next envelopeOf on the same scratch) already forbade using.
	meanE, lowerE, upperE ecdf.ECDF
}

// syncPerm sizes the mean permutation to n samples. A grown range is
// appended as identity — during chunked filtering the first permN samples
// keep their values exactly, so the previous order stays a sorted prefix run
// and only the new suffix needs merging. A shrunk range (new tuple with a
// smaller budget) resets to identity.
func (s *envScratch) syncPerm(n int) {
	if s.permN > n {
		s.permN = 0
		s.permM = s.permM[:0]
	}
	for i := s.permN; i < n; i++ {
		s.permM = append(s.permM, i)
	}
	s.permN = n
}

// envelopeOf builds the three empirical CDFs Ŷ′, Y′_S, Y′_L from the
// inferred means and variances of the first n samples, reusing the scratch
// buffers. The returned envelope aliases them: it is valid only until the
// next envelopeOf call on the same scratch, and must be deep-copied (see
// ownedEnvelope) before escaping into an Output.
//
// Only the mean support is sorted from the persistent order; the lower and
// upper supports are written in the sorted mean's order, which a fresh
// tuple's supports follow with almost no descents, so their sorts finish in
// sortWithPerm's descent scan or a merge pass instead of a radix sort. A
// stable sort's output values do not depend on the input order (up to the
// order of fless-equal values, ±0 and NaN payloads), so the supports are the
// same as from any other starting order.
func (s *envScratch) envelopeOf(means, vars []float64, zAlpha float64, n int) ecdf.Envelope {
	mean := resizeFloats(&s.mean, n)
	lower := resizeFloats(&s.lower, n)
	upper := resizeFloats(&s.upper, n)
	if n == 0 {
		return ecdf.Envelope{
			Mean:  s.meanE.SetSorted(mean),
			Lower: s.lowerE.SetSorted(lower),
			Upper: s.upperE.SetSorted(upper),
		}
	}
	s.syncPerm(n)
	perm := s.permM[:n]
	for k, i := range perm {
		mean[k] = means[i]
	}
	sortWithPerm(mean, perm, &s.mergeV, &s.mergeP)
	// Homoscedastic fast path: with one shared variance the lower and upper
	// supports are constant shifts of the sorted mean support, so they need
	// no ordering work of their own (ecdf.FromSortedShifted).
	uniform := true
	for i := 1; i < n; i++ {
		if vars[i] != vars[0] {
			uniform = false
			break
		}
	}
	if uniform {
		off := zAlpha * math.Sqrt(vars[0])
		return ecdf.Envelope{
			Mean:  s.meanE.SetSorted(mean),
			Lower: s.lowerE.SetSortedShifted(lower, mean, -off),
			Upper: s.upperE.SetSortedShifted(upper, mean, off),
		}
	}
	for k, i := range perm {
		lower[k] = means[i] - zAlpha*math.Sqrt(vars[i])
		upper[k] = means[i] + zAlpha*math.Sqrt(vars[i])
	}
	// The side sorts' permutation is never read, so its contents are
	// irrelevant and it is not reset.
	side := resizeInts(&s.sideP, n)
	sortWithPerm(lower, side, &s.mergeV, &s.mergeP)
	sortWithPerm(upper, side, &s.mergeV, &s.mergeP)
	return ecdf.Envelope{
		Mean:  s.meanE.SetSorted(mean),
		Lower: s.lowerE.SetSorted(lower),
		Upper: s.upperE.SetSorted(upper),
	}
}

// Radix-path thresholds for sortWithPerm. A fresh tuple's supports arrive in
// sample order — effectively random, one descent every other element — and
// the natural merge then pays ~log₂(n/2) full passes; the radix sort pays a
// fixed handful. Below radixMinN the radix sort's fixed per-pass bucket work
// outweighs the merge's few passes, and input with fewer than n/radixDescents
// descents (a tuning re-sort in the previous order) merges in a pass or two.
const (
	radixMinN     = 512
	radixDescents = 16
)

// sortWithPerm sorts vals ascending in fless order while applying the same
// reordering to perm, stably. Input with many descents at large n — the first
// sort of every fresh tuple — goes through radixSortWithPerm. Otherwise a
// bottom-up natural merge detects maximal ascending runs and merges adjacent
// runs until one remains, ping-ponging through the scratch buffers:
// already-sorted input is a single O(n) scan with zero writes and r runs cost
// O(n log r). This adaptivity is what the persistent mean permutation and
// the mean-ordered side supports exploit. Both paths are stable, so they
// produce identical values and perm.
func sortWithPerm(vals []float64, perm []int, mergeV *[]float64, mergeP *[]int) {
	n := len(vals)
	if n < 2 {
		return
	}
	descents := 0
	for i := 1; i < n; i++ {
		if fless(vals[i], vals[i-1]) {
			descents++
		}
	}
	if descents == 0 {
		return
	}
	sv := resizeFloats(mergeV, n)
	sp := resizeInts(mergeP, n)
	if n >= radixMinN && descents >= n/radixDescents {
		radixSortWithPerm(vals, perm, sv, sp)
		return
	}
	srcV, srcP := vals, perm
	dstV, dstP := sv, sp
	for {
		runs := 0
		out := 0
		i := 0
		for i < n {
			// First run [i, j).
			j := i + 1
			for j < n && !fless(srcV[j], srcV[j-1]) {
				j++
			}
			if j == n {
				copy(dstV[out:], srcV[i:])
				copy(dstP[out:], srcP[i:])
				runs++
				break
			}
			// Second run [j, k); merge the pair into dst.
			k := j + 1
			for k < n && !fless(srcV[k], srcV[k-1]) {
				k++
			}
			a, b := i, j
			for a < j && b < k {
				if fless(srcV[b], srcV[a]) {
					dstV[out], dstP[out] = srcV[b], srcP[b]
					b++
				} else {
					dstV[out], dstP[out] = srcV[a], srcP[a]
					a++
				}
				out++
			}
			for ; a < j; a++ {
				dstV[out], dstP[out] = srcV[a], srcP[a]
				out++
			}
			for ; b < k; b++ {
				dstV[out], dstP[out] = srcV[b], srcP[b]
				out++
			}
			runs++
			i = k
		}
		if runs <= 1 {
			if &dstV[0] != &vals[0] {
				copy(vals, dstV)
				copy(perm, dstP)
			}
			return
		}
		srcV, srcP, dstV, dstP = dstV, dstP, srcV, srcP
	}
}

// fless is the NaN-first strict weak order slices.Sort applies to float64 —
// a *total* order, which is what guarantees the natural merge's run count
// shrinks every pass (plain < stalls on NaN: it breaks every run containing
// one and the merge loops forever).
func fless(a, b float64) bool { return a < b || (a != a && b == b) }

// radixKey maps v to a uint64 whose unsigned order is fless: every NaN gets
// key 0 (first, and all NaNs equivalent), −0 and +0 share one key (fless
// treats them as equal), and the remaining floats follow the usual
// sign-flip encoding. Equal keys for exactly fless's equivalence classes are
// what make the stable radix sort reproduce the stable merge bit for bit.
func radixKey(v float64) uint64 {
	if v != v {
		return 0
	}
	if v == 0 {
		return 1 << 63
	}
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// radixBits is the digit width of radixSortWithPerm: six 11-bit digits
// cover a key, and samples of one output distribution typically share the
// top digit (sign and exponent), leaving five scatter passes — two fewer
// than byte digits, for a 2048-entry prefix sum per pass that stays small
// next to the m ≈ 1784 sample supports it is for.
const radixBits = 11

// radixSortWithPerm is a stable LSD radix sort of vals on radixKey, carrying
// perm along. It ping-pongs between (vals, perm) and the caller's equally
// long (bufV, bufP) — no buffer of its own — and skips the digits every key
// shares, on which a pass would be the identity.
func radixSortWithPerm(vals []float64, perm []int, bufV []float64, bufP []int) {
	const buckets = 1 << radixBits
	var counts [(64 + radixBits - 1) / radixBits][buckets]uint32
	for _, v := range vals {
		k := radixKey(v)
		for d := range counts {
			counts[d][(k>>(radixBits*d))&(buckets-1)]++
		}
	}
	n := uint32(len(vals))
	k0 := radixKey(vals[0])
	srcV, srcP, dstV, dstP := vals, perm, bufV, bufP
	for d := range counts {
		shift := uint(radixBits * d)
		c := &counts[d]
		if c[(k0>>shift)&(buckets-1)] == n {
			continue
		}
		var off uint32
		for b, k := range c {
			c[b] = off
			off += k
		}
		for i, v := range srcV {
			j := &c[(radixKey(v)>>shift)&(buckets-1)]
			dstV[*j], dstP[*j] = v, srcP[i]
			*j++
		}
		srcV, srcP, dstV, dstP = dstV, dstP, srcV, srcP
	}
	if &srcV[0] != &vals[0] {
		copy(vals, srcV)
		copy(perm, srcP)
	}
}

// resizeInts grows *buf to length n, reusing capacity, and returns it.
func resizeInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// ownedEnvelope deep-copies a scratch-backed envelope so it can outlive the
// evaluator's workspace — the one O(m) allocation a non-filtered tuple pays,
// for the distribution it hands back to the caller.
func ownedEnvelope(env ecdf.Envelope) ecdf.Envelope {
	return ecdf.Envelope{
		Mean:  ecdf.FromSorted(mat.CloneVec(env.Mean.Values())),
		Lower: ecdf.FromSorted(mat.CloneVec(env.Lower.Values())),
		Upper: ecdf.FromSorted(mat.CloneVec(env.Upper.Values())),
	}
}
