package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"olgapro/internal/band"
	"olgapro/internal/dist"
	"olgapro/internal/ecdf"
	"olgapro/internal/gp"
	"olgapro/internal/mc"
	"olgapro/internal/rtree"
	"olgapro/internal/udf"
)

// Evaluator runs OLGAPRO (Algorithm 5) for one black-box UDF: it owns the
// GP emulator, the R-tree over training points, and the accuracy budgets,
// and processes a stream of uncertain input tuples via Eval.
//
// An Evaluator is not safe for concurrent use; run one per goroutine.
type Evaluator struct {
	modelState

	stats Stats

	// scratch is the persistent workspace behind the near-zero-allocation
	// hot path; see evalScratch. Its presence is why an Evaluator must not
	// be shared between goroutines.
	scratch evalScratch
}

// modelState is everything an evaluator reads of its model: the
// configuration, the UDF, the emulator and its index, the accuracy budgets
// and the observed output range. A learning evaluator owns its modelState;
// an evaluator made from a Frozen model holds a copy of the model's, sharing
// the emulator and the index read-only with every other evaluator made from
// it.
type modelState struct {
	cfg Config
	f   udf.Func
	// Exactly one of g (exact, O(n²)-per-add) and sg (budgeted sparse,
	// O(m²)-per-add) is non-nil; model is whichever is active. The R-tree
	// only backs local-subset selection, which the sparse path bypasses.
	g     *gp.GP
	sg    *gp.Sparse
	model gp.Model
	tree  *rtree.Tree

	epsMC, epsGP     float64
	deltaMC, deltaGP float64
	samples          int // Monte-Carlo samples per input

	yMin, yMax float64
	haveY      bool
}

// NewEvaluator validates the configuration and returns an evaluator with an
// empty training set ("starting with no training points", §5.2).
func NewEvaluator(f udf.Func, cfg Config) (*Evaluator, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if f == nil || f.Dim() <= 0 {
		return nil, errors.New("core: evaluator needs a UDF with positive dimension")
	}
	e := &Evaluator{modelState: modelState{cfg: cfg, f: f, tree: new(rtree.Tree)}}
	if cfg.SparseBudget > 0 {
		sg, err := gp.NewSparse(cfg.Kernel, cfg.Noise, gp.SparseConfig{
			Budget:    cfg.SparseBudget,
			Inflate:   cfg.SparseInflate,
			SwapEvery: cfg.SparseSwapEvery,
		})
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		e.sg, e.model = sg, sg
	} else {
		e.g = gp.New(cfg.Kernel, cfg.Noise)
		e.model = e.g
	}
	e.epsMC, e.epsGP, e.deltaMC, e.deltaGP = cfg.Split()
	e.samples = mc.SampleSize(e.epsMC, e.deltaMC, mc.MetricDiscrepancy)
	if cfg.SampleOverride > 0 {
		e.samples = cfg.SampleOverride
	}
	return e, nil
}

// Stats returns aggregate counters.
func (e *Evaluator) Stats() Stats {
	s := e.stats
	s.TrainingPoints = e.model.Len()
	return s
}

// GP exposes the underlying exact Gaussian process (read-mostly; used by the
// benchmark harness and tests). It is nil when the evaluator runs the
// budgeted sparse emulator — use Model or Sparse then.
func (e *Evaluator) GP() *gp.GP { return e.g }

// Sparse exposes the budgeted sparse emulator, nil on the exact path.
func (e *Evaluator) Sparse() *gp.Sparse { return e.sg }

// Model exposes whichever emulator is active.
func (e *Evaluator) Model() gp.Model { return e.model }

// Points returns the number of absorbed training points on either path.
func (e *Evaluator) Points() int { return e.model.Len() }

// SampleBudget returns the per-input Monte-Carlo sample count m.
func (e *Evaluator) SampleBudget() int { return e.samples }

// Config returns the normalized configuration in effect.
func (e *Evaluator) Config() Config { return e.cfg }

// AddTrainingAt evaluates the UDF at x and adds the pair to the model. It is
// the bootstrap hook experiments use to start with n initial points.
func (e *Evaluator) AddTrainingAt(x []float64) error {
	return e.addPoint(x, nil)
}

// addPoint evaluates the UDF at x and adds the result as a training point,
// updating the R-tree, output range, and counters (out may be nil).
func (e *Evaluator) addPoint(x []float64, out *Output) error {
	y := e.f.Eval(x)
	e.stats.UDFCalls++
	if out != nil {
		out.UDFCalls++
	}
	if math.IsNaN(y) || math.IsInf(y, 0) {
		// A single bad observation would poison α and every subsequent
		// posterior; reject it loudly instead.
		return fmt.Errorf("core: UDF returned %g at %v", y, x)
	}
	if err := e.model.Add(x, y); err != nil {
		return err
	}
	if e.g != nil {
		// The R-tree only serves local-subset selection on the exact path;
		// the sparse model's inducing set is its own spatial summary.
		id := e.g.Len() - 1
		if err := e.tree.Insert(e.g.X(id), id); err != nil {
			return fmt.Errorf("core: index insert: %w", err)
		}
	}
	if !e.haveY || y < e.yMin {
		e.yMin = y
	}
	if !e.haveY || y > e.yMax {
		e.yMax = y
	}
	e.haveY = true
	e.stats.PointsAdded++
	if out != nil {
		out.PointsAdded++
	}
	return nil
}

// outputRange estimates the spread of the UDF's output from the training
// observations, used to scale λ and Γ, which the paper sets as percentages
// of the function range.
func (e *Evaluator) outputRange() float64 {
	if !e.haveY {
		return 1
	}
	if r := e.yMax - e.yMin; r > 1e-12 {
		return r
	}
	return math.Max(math.Abs(e.yMax), 1e-9)
}

func (e *Evaluator) gammaThreshold() float64 {
	if e.cfg.Gamma > 0 {
		return e.cfg.Gamma
	}
	return e.cfg.GammaFrac * e.outputRange()
}

func (e *Evaluator) lambda(means []float64) float64 {
	if e.cfg.Lambda > 0 {
		return e.cfg.Lambda
	}
	r := e.outputRange()
	if len(means) > 0 {
		lo, hi := means[0], means[0]
		for _, v := range means[1:] {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		r = math.Max(r, hi-lo)
	}
	return math.Max(e.cfg.LambdaFrac*r, 1e-12)
}

// zAlpha computes the simultaneous band multiplier over the sample box.
func (e *Evaluator) zAlpha(box rtree.Rect) float64 {
	return band.ZAlphaForKernel(e.deltaGP, e.cfg.Kernel, box.Lo, box.Hi)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Eval processes one uncertain input tuple and returns its approximate
// output distribution with an error bound (Algorithm 5). The Monte-Carlo
// sample matrix is drawn into one flat, evaluator-owned backing array that
// is reused by the next Eval call; the returned output is the caller's.
func (e *Evaluator) Eval(input dist.Vector, rng *rand.Rand) (*Output, error) {
	return owned(e.EvalBorrowed(input, rng))
}

// EvalBorrowed is Eval without the copy of its result: the returned output,
// its Dist and its Envelope live in the evaluator's scratch and are valid
// only until the evaluator's next evaluation. A caller that encodes each
// result before evaluating the next tuple (a frozen serving worker) skips
// the three m-float support copies an owned output costs.
func (e *Evaluator) EvalBorrowed(input dist.Vector, rng *rand.Rand) (*Output, error) {
	if input.Dim() != e.f.Dim() {
		return nil, fmt.Errorf("core: input dim %d ≠ UDF dim %d", input.Dim(), e.f.Dim())
	}
	// Step 1: draw the Monte-Carlo input samples.
	sc := &e.scratch
	m, d := e.samples, e.f.Dim()
	data := resizeFloats(&sc.sampleData, m*d)
	if cap(sc.samples) < m {
		sc.samples = make([][]float64, m)
	}
	sc.samples = sc.samples[:m]
	for i := range sc.samples {
		row := data[i*d : (i+1)*d : (i+1)*d]
		sc.samples[i] = input.SampleVec(rng, row)
	}
	return e.evalSamples(sc.samples, rng)
}

// EvalSamples runs Algorithm 5 on pre-drawn input samples. Callers that
// evaluate several UDFs (or output components) on the same uncertain tuple
// can share one sample set across them — MultiEvaluator relies on this so
// its per-component training points coincide and the vector-UDF cache pays
// for each point once. The samples must not be mutated afterwards.
func (e *Evaluator) EvalSamples(samples [][]float64, rng *rand.Rand) (*Output, error) {
	return owned(e.evalSamples(samples, rng))
}

// owned copies a borrowed output (see EvalBorrowed) so it outlives the
// evaluator's scratch.
func owned(b *Output, err error) (*Output, error) {
	if err != nil {
		return nil, err
	}
	out := *b
	if b.Envelope != nil {
		env := ownedEnvelope(*b.Envelope)
		out.Dist, out.Envelope = env.Mean, &env
	}
	return &out, nil
}

// evalSamples is EvalSamples with a borrowed result (see EvalBorrowed).
func (e *Evaluator) evalSamples(samples [][]float64, rng *rand.Rand) (*Output, error) {
	if len(samples) == 0 {
		return nil, errors.New("core: EvalSamples needs at least one sample")
	}
	if len(samples[0]) != e.f.Dim() {
		return nil, fmt.Errorf("core: sample dim %d ≠ UDF dim %d", len(samples[0]), e.f.Dim())
	}
	e.stats.Inputs++
	m := len(samples)
	sc := &e.scratch
	sc.out = Output{BoundMC: e.epsMC, Samples: m, Engine: EngineGP}
	out := &sc.out

	// Bootstrap: the online algorithm needs at least two observations to
	// know anything about the output scale.
	if err := e.bootstrap(samples, out); err != nil {
		return nil, err
	}

	// Step 2: local inference subset around the sample bounding box. On the
	// sparse path the inducing set IS the sparsity — every prediction is
	// already O(budget²) — so R-tree subset selection is bypassed and the
	// local context routes predictions straight to the sparse model.
	box := sc.box.bounding(samples)
	lc := &sc.lc
	if e.sg != nil {
		lc.bindSparse(e.sg)
	} else {
		ids, gamma := e.selectLocal(samples, box, e.gammaThreshold())
		if err := e.buildLocal(lc, ids, gamma); err != nil {
			return nil, err
		}
	}

	means := resizeFloats(&sc.means, m)
	vars := resizeFloats(&sc.vars, m)
	zA := e.zAlpha(box)

	// Steps 3–4 (filtering fast path): run inference in chunks and drop the
	// tuple as soon as its TEP upper bound is confidently below θ (§5.5).
	processed := 0
	if e.cfg.Predicate != nil {
		pred := e.cfg.Predicate
		checking := true
		for processed < m {
			hi := processed + e.cfg.FilterChunk
			if hi > m {
				hi = m
			}
			lc.predictInto(e, samples, means, vars, processed, hi)
			processed = hi
			if !checking {
				continue
			}
			env := sc.env.envelopeOf(means, vars, zA, processed)
			rhoU := clamp01(env.Lower.CDF(pred.B) - env.Upper.CDF(pred.A))
			if rhoU+mc.HoeffdingRadius(processed, e.deltaMC) < pred.Theta {
				if !e.cfg.FilterTrustModel {
					ok, err := e.verifyFilter(samples, means, vars, lc, zA, processed, out, rng)
					if err != nil {
						return nil, err
					}
					if !ok {
						// The emulator was wrong here; a training point was
						// added. Stop filter checks and process fully so
						// online tuning can learn this region.
						lc.predictInto(e, samples, means, vars, 0, processed)
						checking = false
						continue
					}
				}
				out.Filtered = true
				out.SamplesInferred = processed
				out.TEPUpper = rhoU
				out.LocalPoints = e.localPoints(lc)
				out.ZAlpha = zA
				e.stats.Filtered++
				return out, nil
			}
		}
	} else {
		lc.predictInto(e, samples, means, vars, 0, m)
		processed = m
	}
	out.SamplesInferred = processed

	// Steps 5–7: error-bound loop with online tuning.
	lambda := e.lambda(means)
	out.Lambda = lambda
	sc.skip.reset(m)
	var env ecdf.Envelope
	var boundGP float64
	for iter := 0; ; iter++ {
		env = sc.env.envelopeOf(means, vars, zA, m)
		boundGP = env.DiscrepancyBoundWith(&sc.bound, lambda)
		if boundGP <= e.epsGP {
			out.MetBudget = true
			break
		}
		if iter >= e.cfg.MaxAddPerInput {
			break
		}
		idx := e.pickSample(samples, means, vars, lc, lambda, zA, &sc.skip, rng)
		if idx < 0 {
			break
		}
		sc.skip.add(idx)
		if err := e.addPoint(samples[idx], out); err != nil {
			if errors.Is(err, gp.ErrDuplicatePoint) {
				continue // try a different sample next iteration
			}
			return nil, err
		}
		if e.g != nil {
			// The sparse model self-updates on Add; only the exact path's
			// local factorization needs the incremental extension.
			newID := e.g.Len() - 1
			if err := lc.extend(e, newID); err != nil {
				// Fall back to a full rebuild if the incremental update failed.
				if err := e.rebuildLocal(lc, samples); err != nil {
					return nil, err
				}
			}
		}
		// α changed globally, so every sample's mean and variance moves.
		lc.predictInto(e, samples, means, vars, 0, m)
	}

	// Steps 8–14: retraining decision.
	if out.PointsAdded > 0 && e.cfg.Retrain != RetrainNever {
		retrain := e.cfg.Retrain == RetrainEager
		if !retrain {
			retrain = e.model.NewtonStep() > e.cfg.DeltaTheta
		}
		if retrain {
			if _, err := e.model.Train(gp.TrainConfig{MaxIter: e.cfg.TrainMaxIter}); err != nil {
				return nil, fmt.Errorf("core: retrain: %w", err)
			}
			e.stats.Retrainings++
			out.Retrained = true
			// Rerun inference under the new hyperparameters.
			if err := e.rebuildLocal(lc, samples); err != nil {
				return nil, err
			}
			lc.predictInto(e, samples, means, vars, 0, m)
			zA = e.zAlpha(box)
			env = sc.env.envelopeOf(means, vars, zA, m)
			boundGP = env.DiscrepancyBoundWith(&sc.bound, lambda)
			out.MetBudget = boundGP <= e.epsGP
		}
	}

	// Final TEP bounds and late filtering.
	if e.cfg.Predicate != nil {
		pred := e.cfg.Predicate
		lo, _, hi := env.IntervalBounds(pred.A, pred.B)
		out.TEPLower, out.TEPUpper = lo, hi
		if hi < pred.Theta {
			out.Filtered = true
			e.stats.Filtered++
			out.LocalPoints = e.localPoints(lc)
			out.ZAlpha = zA
			return out, nil
		}
	}

	// The envelope aliases scratch reused by the next evaluation; Eval and
	// EvalSamples hand their callers an owned copy.
	sc.outEnv = env
	out.Dist = env.Mean
	out.Envelope = &sc.outEnv
	out.BoundGP = boundGP
	out.Bound = boundGP + e.epsMC
	out.ZAlpha = zA
	out.LocalPoints = e.localPoints(lc)
	return out, nil
}

// localPoints reports how many model points backed this tuple's inference:
// the local subset size on the exact path, the inducing-set size on the
// sparse path.
func (e *Evaluator) localPoints(lc *localCtx) int {
	if e.sg != nil {
		return e.sg.InducingLen()
	}
	return len(lc.ids)
}

// bootstrap seeds the model with two well-separated samples when the
// training set is (nearly) empty.
func (e *Evaluator) bootstrap(samples [][]float64, out *Output) error {
	if e.model.Len() >= 2 {
		return nil
	}
	if e.model.Len() == 0 {
		if err := e.addPoint(samples[0], out); err != nil {
			return err
		}
	}
	// Farthest sample from the first training point.
	ref := e.model.X(0)
	bestIdx, bestDist := -1, -1.0
	for i, s := range samples {
		var d float64
		for j := range s {
			dd := s[j] - ref[j]
			d += dd * dd
		}
		if d > bestDist {
			bestIdx, bestDist = i, d
		}
	}
	if bestIdx >= 0 {
		if err := e.addPoint(samples[bestIdx], out); err != nil && !errors.Is(err, gp.ErrDuplicatePoint) {
			return err
		}
	}
	return nil
}

// EvalLambda runs Eval with a temporary absolute λ override, used by the
// error-bound profiling experiments to sweep λ on one converged model.
func (e *Evaluator) EvalLambda(input dist.Vector, lambda float64, rng *rand.Rand) (*Output, error) {
	old := e.cfg.Lambda
	e.cfg.Lambda = lambda
	defer func() { e.cfg.Lambda = old }()
	return e.Eval(input, rng)
}

// verifyFilter spot-checks a pending filter decision with true UDF calls at
// (a) the processed sample the model considers most likely to satisfy the
// predicate, (b) the sample the model knows least about (largest predictive
// variance), and (c) one uniformly random sample — a confidently wrong
// model ranks (a) arbitrarily and (b) may share its blind spot, while (c)
// hits the predicate range with probability at least the tuple's true TEP.
// It returns true when every observation is consistent with the confidence
// envelope and outside the predicate range (filtering may proceed).
// Otherwise the observation becomes training data and it returns false.
func (e *Evaluator) verifyFilter(samples [][]float64, means, vars []float64,
	lc *localCtx, zA float64, processed int, out *Output, rng *rand.Rand) (bool, error) {
	pred := e.cfg.Predicate
	best, bestGap := -1, math.Inf(1)
	maxVarIdx, maxVar := -1, -1.0
	for i := 0; i < processed; i++ {
		sd := math.Sqrt(vars[i])
		upper := means[i] + zA*sd
		lower := means[i] - zA*sd
		var gap float64
		switch {
		case upper < pred.A:
			gap = pred.A - upper
		case lower > pred.B:
			gap = lower - pred.B
		default:
			gap = 0
		}
		if gap < bestGap {
			best, bestGap = i, gap
		}
		if vars[i] > maxVar {
			maxVarIdx, maxVar = i, vars[i]
		}
	}
	if best < 0 {
		return true, nil
	}
	var checks [3]int
	nchecks := 0
	checks[nchecks] = best
	nchecks++
	if maxVarIdx >= 0 && maxVarIdx != best {
		checks[nchecks] = maxVarIdx
		nchecks++
	}
	// A model-independent probe: if the tuple truly satisfies the predicate
	// with probability ≥ θ, a uniformly random sample lands in the
	// predicate range with at least that probability — catching exactly the
	// failures the model-guided probes share blind spots on.
	if r := rng.Intn(processed); r != best && r != maxVarIdx {
		checks[nchecks] = r
		nchecks++
	}
	slack := 1e-9 + 0.01*e.outputRange()
	var x []float64
	var y float64
	failed := false
	for _, idx := range checks[:nchecks] {
		x = samples[idx]
		y = e.f.Eval(x)
		e.stats.UDFCalls++
		out.UDFCalls++
		sd := math.Sqrt(vars[idx])
		consistent := math.Abs(y-means[idx]) <= zA*sd+slack
		inRange := y >= pred.A && y <= pred.B
		if !consistent || inRange {
			failed = true
			break
		}
	}
	if !failed {
		return true, nil
	}
	// The observation is informative: keep it as a training point. A
	// duplicate here just means the model already has this point, in which
	// case the envelope disagreement is irreducible noise — still process
	// the tuple fully rather than risk a false drop.
	if err := e.model.Add(x, y); err == nil {
		if y < e.yMin {
			e.yMin = y
		}
		if y > e.yMax {
			e.yMax = y
		}
		e.stats.PointsAdded++
		out.PointsAdded++
		if e.g != nil {
			id := e.g.Len() - 1
			if err := e.tree.Insert(e.g.X(id), id); err != nil {
				return false, fmt.Errorf("core: index insert: %w", err)
			}
			if lerr := lc.extend(e, id); lerr != nil {
				// Rebuild lazily: the caller re-runs predictInto which only
				// needs a valid factorization; rebuild the local model now.
				if berr := e.rebuildLocal(lc, samples); berr != nil {
					return false, berr
				}
			}
		}
	}
	return false, nil
}
