package gp

import (
	"fmt"
	"math"

	"olgapro/internal/kernel"
	"olgapro/internal/mat"
)

// Sparse is a budgeted inducing-point GP approximation in the
// subset-of-regressors family. It breaks the exact model's O(n²)-per-add /
// O(n³)-cumulative growth wall: all working factors are m×m over a fixed
// budget of m ≪ n inducing points, so absorbing a point and predicting both
// cost O(m²) regardless of how many points the model has ever seen.
//
// Parameterization. Instead of the classical SoR normal equations
// Σ = K_mm + σ⁻²K_mn K_nm — which are catastrophically ill-scaled at the
// tiny jitter noise the paper's deterministic UDFs use — the model works in
// the whitened feature space φ(x) = L⁻¹ k_m(x) with L = chol(K_mm + jitter).
// A Bayesian linear regression over these features with unit prior is
// exactly SoR: maintaining
//
//	M = ρ²I + ΦᵀΦ   (Cholesky factor, m×m)
//	c = Φᵀy          w = M⁻¹c
//
// gives mean(x) = φ(x)ᵀw and the deterministic-training-conditional (DTC)
// variance
//
//	σ²(x) = [ k(x,x) − ‖φ(x)‖² + ρ²·φ(x)ᵀM⁻¹φ(x) ] · Inflate²
//
// whose first term — the novelty residual γ(x) — restores the prior
// uncertainty away from the inducing set, so the approximate posterior never
// claims confidence the basis cannot support. With Z = X (budget ≥ n,
// Inflate = 1) the DTC posterior is algebraically identical to the exact GP
// posterior in both mean and variance, which is what lets the §4.2
// confidence-band machinery keep producing a valid ε_GP on this path; at
// smaller budgets the Inflate knob widens the band to absorb the remaining
// approximation error (validated empirically by the conformance suite).
//
// Incremental maintenance. A new point is either *admitted* to the inducing
// set — while m is under budget and its novelty γ(x) clears the admission
// floor max(Tau·k(x,x), 4·jitter), i.e. it is both relatively novel and
// numerically resolvable — via a bordered extension of both factors
// (O(n·m) once, amortized over the budget), or *absorbed* as a pure
// observation via a rank-1
// Cholesky update of M (mat.Cholesky.Rank1Update, O(m²)). Once the budget
// is full, the highest-novelty absorbed point is tracked as a swap
// candidate; every SwapEvery absorbs the inducing point with the smallest
// deletion score w_j²/(M⁻¹)_jj — the increase in regularized least-squares
// error from deleting basis j, the rank-1 information-gain machinery in
// reverse — is evicted for it, followed by a full O(n·m²) rebuild (rare in
// steady state).
//
// Mutating methods must not be called concurrently; PredictWith with a
// caller-owned Scratch is safe from multiple goroutines on a frozen model.
type Sparse struct {
	kern  kernel.Kernel
	noise float64
	ridge float64 // BLR regularizer ρ² = max(noise, minRidge)
	cfg   SparseConfig

	xs [][]float64 // all absorbed inputs (copies)
	ys []float64   // all absorbed outputs

	zidx []int        // indices into xs of the inducing points, factor order
	zxs  [][]float64  // aliases xs[zidx[j]] for batched kernel evaluation
	lk   mat.Cholesky // chol(K_mm + jitter·I)
	fe   []float64    // n×Budget row-major feature rows φ(x_i) (first m live)
	mch  mat.Cholesky // chol(M), M = ρ²I + ΦᵀΦ
	cvec []float64    // Φᵀy
	wvec []float64    // M⁻¹c

	// Swap maintenance: best (most novel) absorbed candidate since the last
	// maintenance pass, as an index into xs plus its residual γ and prior.
	candIdx   int
	candGamma float64
	candPrior float64
	sinceMnt  int

	// priorScale is the running max of k(x,x) over every point ever added.
	// The K_mm jitter scales with it, which keeps the whitening factor's
	// condition number — and hence the smallest novelty γ the solve can
	// resolve — independent of the kernel's output amplitude. It is a max
	// over the training set, so restores and clones recompute it exactly.
	priorScale float64

	// Subset-of-data trainer: an exact GP over just the inducing pairs,
	// sharing the kernel, rebuilt lazily when the inducing set changes.
	sub      *GP
	subDirty bool

	buf1 []float64   // kernel / solve scratch, length Budget
	buf2 []float64   // rank-1 update scratch, length Budget
	buf3 []float64   // backward-solve scratch, length Budget
	gram *mat.Matrix // rebuild scratch
	minv *mat.Matrix // deletion-score scratch (M⁻¹)
}

// SparseConfig controls the budgeted approximation. The zero value of every
// field except Budget selects a sensible default.
type SparseConfig struct {
	// Budget is the maximum number of inducing points m (required, ≥ 1).
	Budget int
	// Tau is the relative-novelty admission threshold: a point joins the
	// inducing set while under budget only if its residual γ(x) exceeds
	// max(Tau·k(x,x), 4·jitter) — relatively novel AND numerically
	// resolvable (the jitter floor rejects points whose residual is
	// indistinguishable from factorization round-off). Default 1e-7.
	// Relative-to-prior thresholds are only meaningful because Train
	// recalibrates the amplitude to the data scale; see
	// calibrateAmplitude.
	Tau float64
	// Inflate multiplies the predictive standard deviation (≥ 1), widening
	// the §4.2 confidence band to cover approximation error at small
	// budgets. Default 1.1; 1 recovers the raw DTC variance.
	Inflate float64
	// SwapEvery is the inducing-set maintenance cadence in absorbed points
	// once the budget is full: 0 defaults to Budget, < 0 disables swapping.
	SwapEvery int
}

func (c SparseConfig) normalize() SparseConfig {
	if c.Tau <= 0 {
		c.Tau = 1e-7
	}
	if c.Inflate <= 0 {
		c.Inflate = 1.1
	}
	if c.Inflate < 1 {
		c.Inflate = 1
	}
	if c.SwapEvery == 0 {
		c.SwapEvery = c.Budget
	}
	return c
}

// minRidge floors the BLR regularizer: with jitter-level noise (1e-8) the
// Schur complements of M updates sit below float64 cancellation error at
// large n, and the floor costs nothing statistically because the DTC
// variance term ρ²φᵀM⁻¹φ only grows with ρ².
const minRidge = 1e-8

// MaxSparseBudget caps SparseConfig.Budget. A model's factors grow to
// Budget² floats, so the cap (16× the largest budget the benchmarks use)
// keeps a budget read from the network or from disk from asking for an
// allocation no host can make.
const MaxSparseBudget = 4096

// NewSparse returns an empty budgeted sparse GP. noise ≤ 0 selects
// DefaultNoise; cfg.Budget must be in [1, MaxSparseBudget].
func NewSparse(k kernel.Kernel, noise float64, cfg SparseConfig) (*Sparse, error) {
	if cfg.Budget < 1 || cfg.Budget > MaxSparseBudget {
		return nil, fmt.Errorf("gp: sparse budget %d outside [1, %d]", cfg.Budget, MaxSparseBudget)
	}
	if noise <= 0 {
		noise = DefaultNoise
	}
	ridge := noise
	if ridge < minRidge {
		ridge = minRidge
	}
	s := &Sparse{kern: k, noise: noise, ridge: ridge, cfg: cfg.normalize(), candIdx: -1}
	s.buf1 = make([]float64, cfg.Budget)
	s.buf2 = make([]float64, cfg.Budget)
	s.buf3 = make([]float64, cfg.Budget)
	return s, nil
}

// NewSparseFromState reconstructs a sparse GP from persisted state: the full
// training history plus the inducing-set indices, deterministically
// rebuilding all factors. It is the restore path of snapshot v3 and the
// basis of Clone, so two models restored from the same state predict
// bit-identically.
func NewSparseFromState(k kernel.Kernel, noise float64, cfg SparseConfig, xs [][]float64, ys []float64, inducing []int) (*Sparse, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("gp: sparse state lengths %d ≠ %d", len(xs), len(ys))
	}
	s, err := NewSparse(k, noise, cfg)
	if err != nil {
		return nil, err
	}
	if len(inducing) > cfg.Budget {
		return nil, fmt.Errorf("gp: %d inducing points exceed budget %d", len(inducing), cfg.Budget)
	}
	s.xs = make([][]float64, len(xs))
	for i, x := range xs {
		cp := make([]float64, len(x))
		copy(cp, x)
		s.xs[i] = cp
	}
	s.ys = append(s.ys, ys...)
	s.zidx = append(s.zidx, inducing...)
	for _, zi := range s.zidx {
		if zi < 0 || zi >= len(s.xs) {
			return nil, fmt.Errorf("gp: inducing index %d out of range [0,%d)", zi, len(s.xs))
		}
		s.zxs = append(s.zxs, s.xs[zi])
	}
	if err := s.rebuild(); err != nil {
		return nil, err
	}
	return s, nil
}

// Kernel returns the model's kernel (shared, not a copy).
func (s *Sparse) Kernel() kernel.Kernel { return s.kern }

// Noise returns the observation-noise variance.
func (s *Sparse) Noise() float64 { return s.noise }

// Len returns the number of absorbed training points.
func (s *Sparse) Len() int { return len(s.xs) }

// X returns training input i (not a copy).
func (s *Sparse) X(i int) []float64 { return s.xs[i] }

// Y returns training output i.
func (s *Sparse) Y(i int) float64 { return s.ys[i] }

// Inputs returns the slice of absorbed inputs (shared storage). The model
// only ever appends to it, so a prefix stays valid while the model learns.
func (s *Sparse) Inputs() [][]float64 { return s.xs }

// Outputs returns the slice of absorbed outputs (shared storage, append-only
// like Inputs).
func (s *Sparse) Outputs() []float64 { return s.ys }

// InducingLen returns the current number of inducing points m ≤ Budget.
func (s *Sparse) InducingLen() int { return len(s.zidx) }

// Inducing returns the indices (into the training history) of the inducing
// set in factor order. The slice is shared storage; do not modify.
func (s *Sparse) Inducing() []int { return s.zidx }

// Config returns the normalized sparse configuration.
func (s *Sparse) Config() SparseConfig { return s.cfg }

// featRow returns feature row i (capacity Budget, first m entries live).
func (s *Sparse) featRow(i int) []float64 {
	off := i * s.cfg.Budget
	return s.fe[off : off+s.cfg.Budget]
}

// appendFeatRow grows the flat feature store by one zeroed row, doubling
// capacity so steady-state absorbs stay amortized allocation-free.
func (s *Sparse) appendFeatRow() []float64 {
	old := len(s.fe)
	need := old + s.cfg.Budget
	if cap(s.fe) < need {
		nf := make([]float64, need, max(2*cap(s.fe), need))
		copy(nf, s.fe)
		s.fe = nf
	} else {
		s.fe = s.fe[:need]
	}
	row := s.fe[old:need]
	for i := range row {
		row[i] = 0
	}
	return row
}

// Add absorbs one training pair in O(m²) amortized: the point either joins
// the inducing set (bordered factor extension, only while under budget) or
// is folded into the information factor by a rank-1 Cholesky update. The
// input slice is copied. Unlike the exact GP, duplicate points are not an
// error — they are absorbed as repeated observations.
func (s *Sparse) Add(x []float64, y float64) error {
	if len(s.xs) > 0 && len(x) != len(s.xs[0]) {
		return fmt.Errorf("gp: point dim %d ≠ %d", len(x), len(s.xs[0]))
	}
	m := len(s.zidx)
	prior := kernel.SelfCov(s.kern, x)
	if prior > s.priorScale {
		s.priorScale = prior
	}
	kz := s.buf1[:m]
	kernel.CrossVec(s.kern, s.zxs, x, kz)
	phi := s.buf2[:m]
	s.lk.ForwardSolveTo(phi, kz)
	gamma := s.residual(prior, phi, s.buf3)

	cp := make([]float64, len(x))
	copy(cp, x)

	if m < s.cfg.Budget && (m == 0 || gamma > s.admitFloor(prior)) {
		if err := s.admit(cp, y, kz, phi, prior); err == nil {
			return nil
		}
		// Numerically inadmissible (e.g. duplicate of an inducing point
		// slipping past the floor): fall through and absorb as an observation.
	}
	s.absorb(cp, y, phi, gamma, prior)
	return nil
}

// admitFloor returns the novelty a point must exceed to join the inducing
// set: relatively novel (Tau·prior) and numerically resolvable (2·jitter —
// the debiased residual of an exact duplicate of an inducing point computes
// to round-off noise of order machEps·prior²/jitter ≈ jitter·prior at the
// sqrt(machEps) jitter scale, so anything below a couple of jitters is
// indistinguishable from zero).
func (s *Sparse) admitFloor(prior float64) float64 {
	f := s.cfg.Tau * prior
	if j := 2 * s.jitter(); j > f {
		f = j
	}
	return f
}

// residual returns the jitter-debiased novelty residual at a point whose
// whitened features are phi:
//
//	γ̂ = k(x,x) − ‖φ‖² − τ·‖α‖²,  α = L⁻ᵀφ = (K_mm+τI)⁻¹k_m(x)
//
// clamped at 0. The naive whitened residual k(x,x) − ‖φ‖² is the residual
// of the *jittered* Gram matrix and so floors at τ·‖α‖² even where the true
// residual is far smaller — at tight ε that floor alone exceeds the variance
// resolution the §4.2 band needs. Subtracting the exact first-order jitter
// term recovers that resolution while remaining an upper bound on the
// unjittered residual: in K_mm's eigenbasis the per-eigenvalue surplus is
// 1/λ − 1/(λ+τ) − τ/(λ+τ)² = τ²/(λ(λ+τ)²) ≥ 0, so the band stays
// conservative. alphaBuf is caller scratch of length ≥ m (PredictWith passes
// its own so frozen-model predictions stay goroutine-safe).
func (s *Sparse) residual(prior float64, phi, alphaBuf []float64) float64 {
	alpha := s.lk.BackSolveTo(alphaBuf[:len(phi)], phi)
	r := prior - mat.Dot(phi, phi) - s.jitter()*mat.Dot(alpha, alpha)
	if r < 0 {
		r = 0
	}
	return r
}

// admit appends x to both the data and the inducing set, extending the two
// Cholesky factors in place: O(n·(d+m)) for the new feature column —
// amortized over the budget this happens at most Budget times plus rare
// swaps — and O(m²) for the factor borders.
func (s *Sparse) admit(x []float64, y float64, kz, phi []float64, prior float64) error {
	m := len(s.zidx)
	// Bordered K_mm factor: new row is exactly phi with pivot √(γ+jitter).
	if err := s.lk.Extend(kz, prior+s.jitter()); err != nil {
		return err
	}
	lrow := s.lk.LRow(m)
	ld := lrow[m]

	// Every existing feature row gains one component:
	// a_i[m] = (k(z_new, x_i) − lrow·a_i[:m]) / l_d.
	for i, xi := range s.xs {
		row := s.featRow(i)
		row[m] = (s.kern.Eval(x, xi) - mat.Dot(lrow[:m], row[:m])) / ld
	}
	// The new point's own row: first m components are its features under the
	// old basis, the last its whitened novelty.
	newRow := s.appendFeatRow()
	copy(newRow[:m], phi)
	newRow[m] = (prior - mat.Dot(lrow[:m], phi)) / ld

	s.xs = append(s.xs, x)
	s.ys = append(s.ys, y)
	s.zidx = append(s.zidx, len(s.xs)-1)
	s.zxs = append(s.zxs, x)

	// Border M = ρ²I + ΦᵀΦ over the PRE-EXISTING rows only, new column
	// Σ_i a_i[j]·a_i[m]. Restricted to the old rows the bordered matrix is
	// exactly ρ²I + Φ_oldᵀΦ_old in the grown basis — SPD with spectrum ≥ ρ²
	// — so the extension pivot cannot go negative short of roundoff. (The
	// new row must NOT be folded into the border alone: its φφᵀ block would
	// be missing from the top-left factor, and that asymmetric matrix can
	// have a genuinely negative Schur complement, forcing an O(n·m²)
	// rebuild on every such admission.)
	nOld := len(s.xs) - 1
	col := s.buf1[:m]
	for j := range col {
		col[j] = 0
	}
	diag := s.ridge
	var cm float64
	for i := 0; i < nOld; i++ {
		row := s.featRow(i)
		am := row[m]
		mat.Axpy(am, row[:m], col)
		diag += am * am
		cm += am * s.ys[i]
	}
	if err := s.mch.Extend(col, diag); err != nil {
		// Roundoff pushed the pivot below the ρ² floor; the jittered batch
		// factorization is the deterministic fallback.
		return s.rebuild()
	}
	s.cvec = append(s.cvec, cm)
	// Fold the admitted point's own row in as an ordinary observation: one
	// rank-1 update of the bordered factor plus its c contribution. M is now
	// exactly ρ²I + ΦᵀΦ over all rows — the matrix rebuild() factorizes.
	v := s.buf1[:m+1]
	copy(v, newRow[:m+1])
	if err := s.mch.Rank1Update(v); err != nil {
		// NaN contamination — rebuild deterministically.
		return s.rebuild()
	}
	mat.Axpy(y, newRow[:m+1], s.cvec)
	s.refreshW()
	s.subDirty = true
	return nil
}

// absorb folds x into the information factor without touching the basis:
// one rank-1 Cholesky update of M, O(m²).
func (s *Sparse) absorb(x []float64, y float64, phi []float64, gamma, prior float64) {
	m := len(s.zidx)
	n := len(s.xs)
	row := s.appendFeatRow()
	copy(row[:m], phi)
	s.xs = append(s.xs, x)
	s.ys = append(s.ys, y)

	v := s.buf1[:m]
	copy(v, phi)
	if err := s.mch.Rank1Update(v); err != nil {
		// NaN contamination — rebuild deterministically.
		if rerr := s.rebuild(); rerr != nil {
			return
		}
	} else {
		mat.Axpy(y, phi, s.cvec)
		s.refreshW()
	}

	if m == s.cfg.Budget {
		if gamma > s.candGamma {
			s.candGamma = gamma
			s.candPrior = prior
			s.candIdx = n
		}
		s.sinceMnt++
		if s.cfg.SwapEvery > 0 && s.sinceMnt >= s.cfg.SwapEvery {
			s.maintain()
		}
	}
}

// maintain runs one inducing-set maintenance pass: if the best absorbed
// candidate since the last pass is novel enough (its residual exceeds the
// admission threshold with headroom), it replaces the inducing point with
// the smallest deletion score w_j²/(M⁻¹)_jj, followed by a full rebuild.
func (s *Sparse) maintain() {
	s.sinceMnt = 0
	cand, gamma, prior := s.candIdx, s.candGamma, s.candPrior
	s.candIdx, s.candGamma, s.candPrior = -1, 0, 0
	if cand < 0 || gamma <= 4*s.admitFloor(prior) {
		return
	}
	m := len(s.zidx)
	if s.minv == nil {
		s.minv = mat.New(m, m)
	} else {
		s.minv.Reset(m, m)
	}
	s.mch.InverseTo(s.minv)
	victim, best := -1, 0.0
	for j := 0; j < m; j++ {
		d := s.minv.At(j, j)
		if d <= 0 {
			continue
		}
		score := s.wvec[j] * s.wvec[j] / d
		if victim < 0 || score < best {
			victim, best = j, score
		}
	}
	if victim < 0 {
		return
	}
	old := s.zidx[victim]
	s.zidx[victim] = cand
	s.zxs[victim] = s.xs[cand]
	if err := s.rebuild(); err != nil {
		// Revert to the previous basis, which did factorize.
		s.zidx[victim] = old
		s.zxs[victim] = s.xs[old]
		_ = s.rebuild()
	}
}

// relJitter sets the K_mm jitter relative to the largest prior variance seen,
// capping cond(K_mm + jitter·I) near 1/relJitter at any kernel amplitude.
// The scale matters in both directions: a jitter too small for the amplitude
// (K_mm entries scale with k(x,x), which training can push to 1e2 or a
// catalog UDF to 1e14) lets round-off swallow the whitened residual —
// computed ‖φ‖² reaches the prior, γ clamps to 0, and admission freezes even
// where the true residual is orders of magnitude above the floor — while an
// over-large jitter inflates the residual floor τ·‖α‖² that even the
// debiased residual cannot resolve below. The forward-solve round-off noise
// grows as machEps/relJitter while the floor shrinks with relJitter, so the
// resolution-optimal choice sits near sqrt(machEps) ≈ 1.5e-8.
const relJitter = 2e-8

// jitter returns the K_mm diagonal jitter: the observation noise, floored at
// relJitter·(max prior variance seen) to keep the whitening factor
// well-conditioned regardless of output scale.
func (s *Sparse) jitter() float64 {
	j := relJitter * s.priorScale
	if s.noise > j {
		j = s.noise
	}
	if j < 1e-12 {
		j = 1e-12
	}
	return j
}

// refreshW recomputes w = M⁻¹c into the retained buffer.
func (s *Sparse) refreshW() {
	m := len(s.cvec)
	if cap(s.wvec) < m {
		s.wvec = make([]float64, m, s.cfg.Budget)
	}
	s.wvec = s.wvec[:m]
	s.mch.SolveVecTo(s.wvec, s.cvec)
}

// rebuild deterministically reconstructs every factor from (xs, ys, zidx):
// O(n·m²). It is the canonical state all replicas and restores share, and
// the fallback whenever an incremental update goes numerically bad.
func (s *Sparse) rebuild() error {
	// Hyperparameter training changes k(x,x); recompute the jitter scale from
	// the full history (a max, so order-independent — restores and clones land
	// on the same value and thus bit-identical factors).
	s.priorScale = 0
	for _, xi := range s.xs {
		if p := s.kern.Eval(xi, xi); p > s.priorScale {
			s.priorScale = p
		}
	}
	m := len(s.zidx)
	if m == 0 {
		s.lk = mat.Cholesky{}
		s.mch = mat.Cholesky{}
		s.cvec = s.cvec[:0]
		s.wvec = s.wvec[:0]
		s.subDirty = true
		return nil
	}
	s.gram = kernel.GramInto(s.gram, s.kern, s.zxs)
	for i := 0; i < m; i++ {
		s.gram.Add(i, i, s.jitter())
	}
	if _, err := s.lk.FactorizeJittered(s.gram, s.jitter()*10, 8); err != nil {
		return fmt.Errorf("gp: sparse rebuild K_mm: %w", err)
	}
	// Feature rows under the new basis (the restore path arrives here with
	// an empty store, so size it for the whole history first).
	if need := len(s.xs) * s.cfg.Budget; cap(s.fe) < need {
		s.fe = make([]float64, need)
	} else {
		s.fe = s.fe[:need]
	}
	for i, xi := range s.xs {
		row := s.featRow(i)
		kz := s.buf1[:m]
		kernel.CrossVec(s.kern, s.zxs, xi, kz)
		s.lk.ForwardSolveTo(row[:m], kz)
	}
	// M = ρ²I + ΦᵀΦ and c = Φᵀy.
	s.gram.Reset(m, m)
	if cap(s.cvec) < m {
		s.cvec = make([]float64, m, s.cfg.Budget)
	}
	s.cvec = s.cvec[:m]
	for j := range s.cvec {
		s.cvec[j] = 0
	}
	for i := range s.xs {
		row := s.featRow(i)[:m]
		for a := 0; a < m; a++ {
			ga := s.gram.Row(a)
			ra := row[a]
			for b := 0; b <= a; b++ {
				ga[b] += ra * row[b]
			}
		}
		mat.Axpy(s.ys[i], row, s.cvec)
	}
	for a := 0; a < m; a++ {
		s.gram.Add(a, a, s.ridge)
		for b := 0; b < a; b++ {
			s.gram.Set(b, a, s.gram.At(a, b))
		}
	}
	if _, err := s.mch.FactorizeJittered(s.gram, s.ridge*10, 8); err != nil {
		return fmt.Errorf("gp: sparse rebuild M: %w", err)
	}
	s.refreshW()
	s.subDirty = true
	return nil
}

// Predict returns the posterior mean and variance at x. This convenience
// form allocates; the evaluator's hot path uses PredictWith.
func (s *Sparse) Predict(x []float64) (mean, variance float64) {
	var sc Scratch
	return s.PredictWith(&sc, x)
}

// PredictWith returns the DTC posterior mean and (inflated) variance at x in
// O(m²) — independent of the number of absorbed points — with zero heap
// allocations once sc has grown to the budget.
func (s *Sparse) PredictWith(sc *Scratch, x []float64) (mean, variance float64) {
	prior := kernel.SelfCov(s.kern, x)
	m := len(s.zidx)
	infl := s.cfg.Inflate * s.cfg.Inflate
	if m == 0 {
		return 0, prior * infl
	}
	sc.resize(m)
	sc.resize2(m)
	kernel.CrossVec(s.kern, s.zxs, x, sc.k)
	phi := s.lk.ForwardSolveTo(sc.v, sc.k)
	mean = mat.Dot(phi, s.wvec)
	resid := s.residual(prior, phi, sc.v2)
	s.mch.ForwardSolveTo(sc.v2, phi)
	variance = (resid + s.ridge*mat.Dot(sc.v2, sc.v2)) * infl
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

// ensureSub (re)builds the subset-of-data trainer: an exact GP over just the
// inducing pairs, sharing this model's kernel so hyperparameter moves apply
// to both.
func (s *Sparse) ensureSub() error {
	if s.sub != nil && !s.subDirty {
		return nil
	}
	s.sub = New(s.kern, s.noise)
	for _, zi := range s.zidx {
		s.sub.xs = append(s.sub.xs, s.xs[zi])
		s.sub.ys = append(s.sub.ys, s.ys[zi])
	}
	if err := s.sub.Fit(); err != nil {
		s.sub = nil
		return err
	}
	s.subDirty = false
	return nil
}

// NewtonStep returns the §5.3 retraining heuristic evaluated on the
// inducing subset — O(m³) instead of O(n³).
func (s *Sparse) NewtonStep() float64 {
	if len(s.zidx) < 2 {
		return 0
	}
	if err := s.ensureSub(); err != nil {
		return 0
	}
	return s.sub.NewtonStep()
}

// Train learns kernel hyperparameters by maximum likelihood on the inducing
// subset (subset-of-data training, O(m³) per step), recalibrates the kernel
// amplitude to the profile-MLE data scale, then deterministically rebuilds
// all factors from the full history at the new parameters.
func (s *Sparse) Train(cfg TrainConfig) (TrainResult, error) {
	if len(s.zidx) < 2 {
		return TrainResult{}, nil
	}
	if err := s.ensureSub(); err != nil {
		return TrainResult{}, err
	}
	res, err := s.sub.Train(cfg)
	if err != nil {
		return res, err
	}
	s.calibrateAmplitude()
	if err := s.rebuild(); err != nil {
		return res, err
	}
	return res, nil
}

// calibrateAmplitude rescales the kernel's output variance by the profile
// maximum-likelihood factor c = yᵀK⁻¹y/m computed on the trained inducing
// subset. Smooth low-noise data makes the SoD likelihood nearly flat along
// the (σ_f, ℓ) ridge, so gradient training routinely parks the amplitude
// orders of magnitude above the data scale; that is harmless for the exact
// GP, whose posterior variance contracts to the noise level near data
// regardless of σ_f, but fatal for the sparse path, whose band is limited by
// the novelty residual γ ∝ σ_f². Rescaling by the concentrated MLE leaves
// every posterior mean bit-for-bit unchanged (mean = kᵀ(K⁻¹y) is invariant
// under K → cK) and shrinks the predictive variance to the scale at which
// standardized residuals have unit variance — textbook kriging variance
// calibration. A ×2 safety factor keeps the moved band on the conservative
// (over-covering) side.
//
// Every registry kernel stores log σ_f as its first hyperparameter; the
// rescale is verified by probing k(x,x) and reverted if the kernel does not
// follow that convention.
func (s *Sparse) calibrateAmplitude() {
	if s.sub == nil || s.sub.Len() < 2 || s.kern.NumParams() < 1 {
		return
	}
	m := float64(s.sub.Len())
	c := 2 * mat.Dot(s.sub.ys, s.sub.Alpha()) / m
	// The profile factor alone cannot escape the degenerate (σ_f, ℓ) ridge —
	// an overstretched lengthscale makes K's small eigenvalues blow up
	// yᵀK⁻¹y, so the quadratic form reads "calibrated" at amplitudes far
	// above the data. Cap the amplitude at a small multiple of the observed
	// output variance as well: posterior means are invariant, and no valid
	// band for data of variance v needs prior variance ≫ v.
	var ym, yv float64
	n := float64(len(s.ys))
	for _, y := range s.ys {
		ym += y
	}
	ym /= n
	for _, y := range s.ys {
		d := y - ym
		yv += d * d
	}
	yv /= n
	if prior := s.kern.Eval(s.sub.xs[0], s.sub.xs[0]); prior > 0 {
		if cap2 := 2 * yv / prior; cap2 < c {
			c = cap2
		}
	}
	if !(c > 0) || math.IsInf(c, 0) || c >= 1 {
		// Only ever shrink an inflated amplitude; an under-scaled kernel
		// already errs in the conservative direction.
		return
	}
	x0 := s.sub.xs[0]
	before := s.kern.Eval(x0, x0)
	p := s.kern.Params(nil)
	old0 := p[0]
	p[0] += 0.5 * math.Log(c)
	s.kern.SetParams(p)
	after := s.kern.Eval(x0, x0)
	if !(math.Abs(after-before*c) <= 1e-9*math.Abs(before*c)) {
		p[0] = old0
		s.kern.SetParams(p)
		return
	}
	s.subDirty = true
}
