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

	out    Output        // the borrowed result of the latest evaluation
	outEnv ecdf.Envelope // its envelope, aliasing env's buffers

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
// handful of descents that sortWithPerm's insertion pass restores in ~O(m)
// — the steady-state loop performs no comparison sort at all, where
// each call formerly paid three O(m log m) slices.Sort passes. The lower and
// upper supports need no order of their own: written in the sorted mean's
// order they are already nearly sorted, since a sample's band offset varies
// far less than the means do.
type envScratch struct {
	mean, lower, upper []float64
	permM              []int       // sorted-mean order of the samples
	permN              int         // sample count permM covers
	sideP              []int       // lower/upper sort permutation, discarded
	sort               sortScratch // sortWithPerm's buffers

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
// sortWithPerm's descent scan or insertion pass without a distribution. A
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
	sortWithPerm(mean, perm, &s.sort)
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
	sortWithPerm(lower, side, &s.sort)
	sortWithPerm(upper, side, &s.sort)
	return ecdf.Envelope{
		Mean:  s.meanE.SetSorted(mean),
		Lower: s.lowerE.SetSorted(lower),
		Upper: s.upperE.SetSorted(upper),
	}
}

// sortScratch owns sortWithPerm's reusable buffers, so a warm sort
// allocates nothing.
type sortScratch struct {
	v      []float64 // distribution scatter and natural-merge value buffer
	p      []int     // the matching permutation buffer
	counts []int     // distribution bucket offsets
}

// Path thresholds for sortWithPerm. Input with fewer than n/sortDescents
// descents (a support written in a previous or related order) is nearly
// sorted and goes straight to the insertion pass; anything further from
// sorted — a fresh tuple's supports arrive in sample order, a descent every
// other element — is distributed first. The insertion pass gives up after
// insertionBudget moves per element, which bounds its cost on input the
// distribution could not spread (one far outlier crams every other value
// into one bucket). A bucket of equal values costs it no moves.
const (
	sortDescents    = 16
	insertionBudget = 8
)

// sortWithPerm sorts vals ascending in fless order while applying the same
// reordering to perm, stably. Already-sorted input costs one descent scan.
// Input with many descents is scattered into ~n/2 value buckets
// (distribute), which leaves only short runs of inversions inside each
// bucket; a budgeted insertion pass then finishes it, and also sorts nearly
// sorted input on its own. The bottom-up natural merge is the O(n log n)
// fallback for value ranges the distribution cannot bucket (±Inf, an
// overflowing span, all values equal) and for input that exhausts the
// insertion budget. Every pass is stable and each leaves fless-equal values
// in their input order, so all paths produce identical values and perm.
func sortWithPerm(vals []float64, perm []int, sc *sortScratch) {
	n := len(vals)
	if n < 2 {
		return
	}
	// The scan stops once the input has many descents: only whether it has
	// none, a few or many decides the path.
	many := max(n/sortDescents, 1)
	descents := 0
	for i := 1; i < n && descents < many; i++ {
		if fless(vals[i], vals[i-1]) {
			descents++
		}
	}
	if descents == 0 {
		return
	}
	if descents == many && !distribute(vals, perm, sc) {
		mergeWithPerm(vals, perm, sc)
		return
	}
	if !insertionWithPerm(vals, perm, insertionBudget*n) {
		mergeWithPerm(vals, perm, sc)
	}
}

// distribute stably scatters vals, carrying perm, into n/2 buckets of equal
// width over [lo, hi], the range of the non-NaN values, with the NaNs in a
// bucket of their own at the front. The bucket index is monotone in fless
// (−0 and +0 share one, since v − lo is the same for both), so the result is
// a stable partial sort that a stable finish completes exactly. It reports
// false, leaving vals and perm untouched, when the range admits no finite
// bucket width: lo or hi infinite, no non-NaN value, a span that overflows,
// or all values equal.
func distribute(vals []float64, perm []int, sc *sortScratch) bool {
	n := len(vals)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	// Each declined case makes hi − lo infinite, NaN or 0, and none of
	// those leaves a finite, positive scale.
	b := n / 2
	scale := float64(b) / (hi - lo)
	if !(scale > 0 && scale <= math.MaxFloat64) {
		return false
	}
	counts := resizeInts(&sc.counts, b+1)
	clear(counts)
	for _, v := range vals {
		counts[bucketOf(v, lo, scale, b)]++
	}
	off := 0
	for k, c := range counts {
		counts[k] = off
		off += c
	}
	sv := resizeFloats(&sc.v, n)
	sp := resizeInts(&sc.p, n)
	for i, v := range vals {
		j := &counts[bucketOf(v, lo, scale, b)]
		sv[*j], sp[*j] = v, perm[i]
		*j++
	}
	copy(vals, sv)
	copy(perm, sp)
	return true
}

// bucketOf is distribute's bucket index of v: 0 for NaN, 1 + ⌊(v − lo)·scale⌋
// clamped to [1, b] otherwise.
func bucketOf(v, lo, scale float64, b int) int {
	if v != v {
		return 0
	}
	k := int((v - lo) * scale)
	if k >= b {
		k = b - 1
	}
	return k + 1
}

// insertionWithPerm is a stable insertion sort under fless carrying perm,
// which gives up once it has made more than budget element moves and
// reports whether it finished. A value only ever moves past strictly
// greater ones, so even an abandoned pass leaves fless-equal values in
// their input order and a stable sort of its result is the stable sort of
// its input.
func insertionWithPerm(vals []float64, perm []int, budget int) bool {
	for i := 1; i < len(vals); i++ {
		v := vals[i]
		if !fless(v, vals[i-1]) {
			continue
		}
		p := perm[i]
		j := i
		for j > 0 && fless(v, vals[j-1]) {
			vals[j], perm[j] = vals[j-1], perm[j-1]
			j--
		}
		vals[j], perm[j] = v, p
		if budget -= i - j; budget < 0 {
			return false
		}
	}
	return true
}

// mergeWithPerm is a stable bottom-up natural merge sort under fless
// carrying perm: it detects maximal ascending runs and merges adjacent runs
// until one remains, ping-ponging through the scratch buffers, so r runs
// cost O(n log r).
func mergeWithPerm(vals []float64, perm []int, sc *sortScratch) {
	n := len(vals)
	srcV, srcP := vals, perm
	dstV, dstP := resizeFloats(&sc.v, n), resizeInts(&sc.p, n)
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

// resizeInts grows *buf to length n, reusing capacity, and returns it.
func resizeInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// ownedEnvelope deep-copies a scratch-backed envelope so it can outlive the
// evaluator's workspace — the one O(m) allocation a non-filtered tuple pays
// when its caller keeps the distribution it is handed.
func ownedEnvelope(env ecdf.Envelope) ecdf.Envelope {
	return ecdf.Envelope{
		Mean:  ecdf.FromSorted(mat.CloneVec(env.Mean.Values())),
		Lower: ecdf.FromSorted(mat.CloneVec(env.Lower.Values())),
		Upper: ecdf.FromSorted(mat.CloneVec(env.Upper.Values())),
	}
}
