// Package olgapro is a Go implementation of "Supporting User-Defined
// Functions on Uncertain Data" (Tran, Diao, Sutton, Liu — PVLDB 6(6), 2013).
//
// Given a black-box scalar UDF f and an uncertain input tuple modeled as a
// random vector X, the library characterizes the distribution of Y = f(X)
// with a user-specified (ε, δ) accuracy guarantee in the discrepancy or
// Kolmogorov–Smirnov metric. Two engines are provided:
//
//   - Monte Carlo (EvaluateMC): sample X, evaluate f on every sample, return
//     the empirical CDF — simple, but each input costs
//     m = ln(2/δ)/(2ε²) UDF calls.
//   - OLGAPRO (NewEvaluator): model f online with a Gaussian process and
//     sample the emulator instead, with simultaneous confidence bands
//     bounding the combined modeling + sampling error. After convergence an
//     input costs (almost) no UDF calls, which wins by orders of magnitude
//     for expensive UDFs.
//
// NewHybrid measures the UDF's cost on the fly and routes inputs to
// whichever engine is cheaper.
//
// Quick start:
//
//	f := olgapro.Func(1, func(x []float64) float64 { return slowPhysics(x[0]) })
//	ev, err := olgapro.NewEvaluator(f, olgapro.Config{Eps: 0.1, Delta: 0.05})
//	...
//	out, err := ev.Eval(olgapro.NormalInput([]float64{5.0}, 0.5), rng)
//	fmt.Println(out.Dist.Quantile(0.5), out.Bound)
//
// The subpackages under internal implement every substrate from scratch
// (dense linear algebra, GP regression, empirical-CDF metrics, an R-tree,
// confidence bands, the astrophysics case-study UDFs); this package is the
// stable public surface.
package olgapro

import (
	"io"
	"math/rand"

	"olgapro/client"
	"olgapro/internal/astro"
	"olgapro/internal/core"
	"olgapro/internal/dist"
	"olgapro/internal/ecdf"
	"olgapro/internal/exec"
	"olgapro/internal/kernel"
	"olgapro/internal/mc"
	"olgapro/internal/query"
	"olgapro/internal/sdss"
	"olgapro/internal/server"
	"olgapro/internal/udf"
)

// Core engine types.
type (
	// UDF is a black-box scalar user-defined function on ℝᵈ.
	UDF = udf.Func
	// Evaluator is the OLGAPRO online GP engine (paper Algorithm 5).
	Evaluator = core.Evaluator
	// Config parameterizes an Evaluator; the zero value uses the paper's
	// defaults (ε = 0.1, δ = 0.05, ε_MC = 0.7ε, λ = 1 %, Γ = 5 %, Δθ = 0.05).
	Config = core.Config
	// Output is the per-input result: the distribution, its error bound,
	// filtering state, and cost counters.
	Output = core.Output
	// Stats aggregates evaluator activity.
	Stats = core.Stats
	// Hybrid measures UDF cost online and picks the cheaper engine (§5.4).
	Hybrid = core.Hybrid
	// HybridConfig parameterizes a Hybrid.
	HybridConfig = core.HybridConfig
	// Engine identifies which engine (GP or MC) handled an input.
	Engine = core.Engine
	// TuningPolicy selects where online tuning places training points.
	TuningPolicy = core.TuningPolicy
	// RetrainPolicy selects when hyperparameters are relearned.
	RetrainPolicy = core.RetrainPolicy
)

// Re-exported policy and engine constants.
const (
	EngineUnknown     = core.EngineUnknown
	EngineGP          = core.EngineGP
	EngineMC          = core.EngineMC
	TuneMaxVariance   = core.TuneMaxVariance
	TuneRandom        = core.TuneRandom
	TuneOptimalGreedy = core.TuneOptimalGreedy
	RetrainThreshold  = core.RetrainThreshold
	RetrainEager      = core.RetrainEager
	RetrainNever      = core.RetrainNever
)

// Monte-Carlo engine types (§2.2).
type (
	// MCConfig parameterizes Monte-Carlo evaluation.
	MCConfig = mc.Config
	// MCResult is the Monte-Carlo per-input result.
	MCResult = mc.Result
	// MCMetric selects the metric of the (ε,δ) guarantee.
	MCMetric = mc.Metric
	// Predicate is a selection predicate f(X) ∈ [A,B] with TEP threshold θ.
	Predicate = mc.Predicate
)

// Re-exported metric constants.
const (
	MetricKS          = mc.MetricKS
	MetricDiscrepancy = mc.MetricDiscrepancy
)

// Distribution types for uncertain attributes.
type (
	// Dist is a univariate distribution (uncertain scalar attribute).
	Dist = dist.Dist
	// InputVector is the joint distribution of a UDF's input tuple.
	InputVector = dist.Vector
	// Normal, Uniform, Exponential, Gamma, Constant model attribute noise.
	Normal      = dist.Normal
	Uniform     = dist.Uniform
	Exponential = dist.Exponential
	Gamma       = dist.Gamma
	Constant    = dist.Constant
	// ECDF is an empirical CDF (the engines' output representation).
	ECDF = ecdf.ECDF
	// Envelope carries the mean/lower/upper CDFs behind a GP error bound.
	Envelope = ecdf.Envelope
	// Kernel is a GP covariance function.
	Kernel = kernel.Kernel
	// Cosmology is the ΛCDM model behind the astrophysics UDFs.
	Cosmology = astro.Cosmology
	// Galaxy and Catalog model SDSS-style uncertain objects.
	Galaxy  = sdss.Galaxy
	Catalog = sdss.Catalog
)

// NewEvaluator returns an OLGAPRO evaluator for the UDF.
func NewEvaluator(f UDF, cfg Config) (*Evaluator, error) {
	return core.NewEvaluator(f, cfg)
}

// NewHybrid returns a hybrid MC/GP evaluator for the UDF.
func NewHybrid(f UDF, cfg HybridConfig) (*Hybrid, error) {
	return core.NewHybrid(f, cfg)
}

// EvaluateMC runs the Monte-Carlo baseline (Algorithm 1) on one input.
func EvaluateMC(f UDF, input InputVector, cfg MCConfig, rng *rand.Rand) (MCResult, error) {
	return mc.Evaluate(f, input, cfg, rng)
}

// MCSampleSize returns the Monte-Carlo sample count required for an (ε,δ)
// guarantee under the given metric.
func MCSampleSize(eps, delta float64, metric MCMetric) int {
	return mc.SampleSize(eps, delta, metric)
}

// Func wraps a plain Go function as a d-input UDF.
func Func(d int, f func(x []float64) float64) UDF {
	return udf.FuncOf{D: d, F: f}
}

// NormalInput returns an independent Gaussian input vector N(mu, σ²I), the
// paper's default uncertain-tuple model.
func NormalInput(mu []float64, sigma float64) InputVector {
	v, err := dist.IsoGaussianVec(mu, sigma)
	if err != nil {
		panic(err) // only fails for σ ≤ 0 or an empty mean vector
	}
	return v
}

// Input builds a joint input vector from per-attribute distributions.
func Input(components ...Dist) InputVector {
	return dist.NewIndependent(components...)
}

// SqExpKernel returns the squared-exponential covariance function, the
// paper's default.
func SqExpKernel(sigmaF, lengthscale float64) Kernel {
	return kernel.NewSqExp(sigmaF, lengthscale)
}

// Matern32Kernel returns the Matérn ν=3/2 covariance function.
func Matern32Kernel(sigmaF, lengthscale float64) Kernel {
	return kernel.NewMatern32(sigmaF, lengthscale)
}

// Matern52Kernel returns the Matérn ν=5/2 covariance function.
func Matern52Kernel(sigmaF, lengthscale float64) Kernel {
	return kernel.NewMatern52(sigmaF, lengthscale)
}

// KS returns the Kolmogorov–Smirnov distance between two empirical CDFs.
func KS(a, b *ECDF) float64 { return ecdf.KS(a, b) }

// Discrepancy returns the two-sided discrepancy measure between two
// empirical CDFs (paper Definition 1).
func Discrepancy(a, b *ECDF) float64 { return ecdf.Discrepancy(a, b) }

// DiscrepancyLambda returns the λ-discrepancy restricted to intervals of
// length at least lambda (paper Definition 3).
func DiscrepancyLambda(a, b *ECDF, lambda float64) float64 {
	return ecdf.DiscrepancyLambda(a, b, lambda)
}

// DefaultCosmology returns the concordance ΛCDM model (H0=70, Ωm=0.3,
// ΩΛ=0.7) used by the astrophysics case study.
func DefaultCosmology() Cosmology { return astro.Default() }

// GalAgeUDF returns the 1-D galaxy-age UDF of query Q1.
func GalAgeUDF(c Cosmology) UDF { return astro.GalAgeFunc(c) }

// ComoveVolUDF returns the 2-D comoving-volume UDF of query Q2 with a fixed
// survey area in square degrees.
func ComoveVolUDF(c Cosmology, areaSqDeg float64) UDF {
	return astro.ComoveVolFunc(c, areaSqDeg)
}

// AngDistUDF returns the 2-D angular-distance UDF measuring separation from
// a fixed reference position (degrees).
func AngDistUDF(refRA, refDec float64) UDF { return astro.AngDistFunc(refRA, refDec) }

// GenerateCatalog returns a synthetic SDSS-like galaxy catalog with n
// objects (see internal/sdss for knobs).
func GenerateCatalog(n int, seed int64) *Catalog {
	return sdss.Generate(sdss.GenerateConfig{N: n, Seed: seed})
}

// Relational layer re-exports: tuples with uncertain attributes, the
// operators needed for Q1/Q2-style queries, and the bounded uncertain
// algebra (top-k / windows / group-by with [certain, possible] answers).
type (
	Tuple       = query.Tuple
	Value       = query.Value
	Iterator    = query.Iterator
	ScanOp      = query.Scan
	SelectOp    = query.Select
	ProjectOp   = query.Project
	CrossJoinOp = query.CrossJoin
	ApplyUDFOp  = query.ApplyUDF
	QueryEngine = query.Engine

	// Plan is the fluent query builder: From(...).Where(...).Apply(...).
	// Window(...).TopK(...).Run().
	Plan = query.Plan
	// Bounded is a [certain, possible] interval answer.
	Bounded = query.Bounded
	// Stat selects the statistic (mean or quantile) bounded operators
	// rank and aggregate on.
	Stat = query.Stat
	// Agg is one aggregate column of a window or group-by.
	Agg = query.Agg
	// ApplySpec, RankSpec, WindowSpec, GroupBySpec configure Plan stages.
	ApplySpec   = query.ApplySpec
	RankSpec    = query.RankSpec
	WindowSpec  = query.WindowSpec
	GroupBySpec = query.GroupBySpec
	// TopKOp, WindowOp, GroupByOp are the bounded operators themselves,
	// for callers composing iterators directly.
	TopKOp    = query.TopK
	WindowOp  = query.Window
	GroupByOp = query.GroupBy
)

// NewScan returns a scan over an in-memory relation.
func NewScan(tuples []*Tuple) *ScanOp { return query.NewScan(tuples) }

// Drain pulls all tuples from an iterator.
func Drain(it Iterator) ([]*Tuple, error) { return query.Drain(it) }

// From starts a query plan over an in-memory relation.
func From(tuples []*Tuple) *Plan { return query.From(tuples) }

// FromIterator starts a query plan over an existing operator tree.
func FromIterator(it Iterator) *Plan { return query.FromIterator(it) }

// GalaxyTuple converts catalog attributes into an uncertain tuple.
func GalaxyTuple(objID int64, ra, dec, raErr, decErr, z, zErr float64) *Tuple {
	return query.GalaxyTuple(objID, ra, dec, raErr, decErr, z, zErr)
}

// GPEngine adapts an Evaluator for use in query plans. Output.Engine is
// stamped by the returned wrapper, uniformly across all three engines.
func GPEngine(e *Evaluator) QueryEngine { return query.NewEvaluatorEngine(e) }

// MCQueryEngine adapts Monte-Carlo evaluation of f under cfg for use in
// query plans; the engine is stateless and may be shared across workers.
func MCQueryEngine(f UDF, cfg MCConfig) QueryEngine { return query.NewMCEngine(f, cfg) }

// HybridQueryEngine adapts a Hybrid router for use in query plans.
func HybridQueryEngine(h *Hybrid) QueryEngine { return query.NewHybridEngine(h) }

// MeanStat is the mean statistic for bounded rank/aggregate operators.
func MeanStat() Stat { return query.MeanStat() }

// QuantileStat is the p-quantile statistic for bounded rank/aggregate
// operators.
func QuantileStat(p float64) Stat { return query.QuantileStat(p) }

// CountAgg, SumAgg, AvgAgg, MinAgg, MaxAgg build aggregate columns for
// Window/GroupBy specs (see query.Agg for the Stat/As modifiers).
func CountAgg() Agg          { return query.Count() }
func SumAgg(attr string) Agg { return query.Sum(attr) }
func AvgAgg(attr string) Agg { return query.Avg(attr) }
func MinAgg(attr string) Agg { return query.Min(attr) }
func MaxAgg(attr string) Agg { return query.Max(attr) }

// Parallel execution (internal/exec): run the UDF-application stage of a
// query across a worker pool with deterministic, order-preserving semantics
// — for a fixed ParallelOptions.Seed the output is bit-identical to serial
// execution at any worker count.
type (
	// ParallelEngine is a pool of per-worker engines sharing one trained
	// model; build one with NewParallelEngine or NewParallelPool and fan a
	// stage out with its Apply method.
	ParallelEngine = exec.Pool
	// ParallelOptions tunes one parallel apply stage (context, seed,
	// global ordinals, predicate truncation, envelope retention).
	ParallelOptions = exec.Options
	// ParallelEvalOp is the order-preserving parallel UDF-application
	// operator returned by ParallelEngine.Apply.
	ParallelEvalOp = exec.ParallelEval
)

// NewParallelEngine builds one frozen model of a warmed-up evaluator (its
// tuned hyperparameters and training set) and a pool of per-worker frozen
// evaluators sharing it read-only, so the expensive GP fitting is done once,
// not per worker. workers ≤ 0 uses GOMAXPROCS. The evaluator needs at least
// two training points (one warm-up Eval suffices).
func NewParallelEngine(ev *Evaluator, workers int) (*ParallelEngine, error) {
	return exec.NewEvaluatorPool(ev, workers)
}

// NewParallelPool builds a parallel engine pool from caller-supplied
// engines, one per worker (e.g. stateless Monte-Carlo engines).
func NewParallelPool(engines ...QueryEngine) (*ParallelEngine, error) {
	return exec.NewPool(engines...)
}

// NewECDF builds an empirical CDF from samples (copied and sorted).
func NewECDF(samples []float64) *ECDF { return ecdf.New(samples) }

// NewCrossJoin returns the cross product of two relations with prefixed
// attribute names; skipSelfPairs keeps only unordered distinct pairs, the
// usual form of a self-join like query Q2.
func NewCrossJoin(left []*Tuple, leftPrefix string, right []*Tuple, rightPrefix string, skipSelfPairs bool) *CrossJoinOp {
	return query.NewCrossJoin(left, leftPrefix, right, rightPrefix, skipSelfPairs)
}

// AngDist4UDF returns the 4-D angular-distance UDF Distance(G1.pos, G2.pos)
// where both positions are uncertain.
func AngDist4UDF() UDF { return astro.AngDistFunc4() }

// Extensions beyond the paper (its §8 future work and production needs).

// Multivariate-output support: one GP per output component with shared UDF
// evaluations.
type (
	// MultiUDF is a black-box vector-valued UDF f: ℝᵈ → ℝᵏ.
	MultiUDF = core.MultiFunc
	// MultiEvaluator runs OLGAPRO per output component.
	MultiEvaluator = core.MultiEvaluator
	// Snapshot is the serializable state of a trained evaluator.
	Snapshot = core.Snapshot
)

// MultiFunc wraps a plain Go function as a d-input, k-output UDF.
func MultiFunc(d, k int, f func(x []float64, out []float64) []float64) MultiUDF {
	return core.MultiFuncOf{D: d, K: k, F: f}
}

// NewMultiEvaluator builds one OLGAPRO evaluator per output component of a
// vector-valued UDF, sharing UDF evaluations across components.
func NewMultiEvaluator(f MultiUDF, cfg Config) (*MultiEvaluator, error) {
	return core.NewMultiEvaluator(f, cfg)
}

// SqExpARDKernel returns the squared-exponential kernel with per-dimension
// lengthscales (automatic relevance determination) for high-dimensional
// inputs.
func SqExpARDKernel(sigmaF float64, lengthscales []float64) Kernel {
	return kernel.NewSqExpARD(sigmaF, lengthscales)
}

// LoadEvaluator restores a saved evaluator for the UDF from r; save with
// (*Evaluator).Save. The snapshot carries the training pairs and learned
// hyperparameters, so the restored evaluator keeps its accumulated knowledge
// without re-paying UDF calls. Snapshots are versioned on disk
// (core.SnapshotVersion); a file in any other version is refused.
func LoadEvaluator(f UDF, cfg Config, r io.Reader) (*Evaluator, error) {
	return core.Load(f, cfg, r)
}

// MixtureDist returns a finite mixture of scalar distributions with the
// given (unnormalized) weights — the model for multimodal uncertain
// attributes. Empty weights means equal weights.
func MixtureDist(weights []float64, components ...Dist) (Dist, error) {
	return dist.NewMixture(weights, components...)
}

// Serving layer (internal/server): the olgaprod network service. A Server
// owns an evaluator registry — one warm, tuning-enabled evaluator per
// registered UDF behind a one-token lock that serializes its learning, with
// frozen clones fanned out for deterministic read traffic — plus snapshot
// persistence and admission
// control. cmd/olgaprod is the runnable daemon; embedders can mount
// Server.Handler on their own http.Server.
type (
	// Server is the olgaprod HTTP service.
	Server = server.Server
	// ServerConfig parameterizes a Server (snapshot dir, admission bound,
	// request deadline, frozen-clone fan-out).
	ServerConfig = server.Config
	// ServerCatalogEntry describes one built-in UDF clients can register.
	ServerCatalogEntry = server.CatalogEntry
)

// NewServer builds the olgaprod service, restoring any GP snapshots found
// in cfg.SnapshotDir so a restarted server skips re-learning.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// ServerCatalog lists the built-in UDFs the service can register.
func ServerCatalog() []ServerCatalogEntry { return server.Catalog() }

// Client-side access to a running olgaprod shard, olgarouter fleet, or any
// embedder of Server.Handler: the olgapro/client package speaks the
// versioned /v1 wire surface with typed error-envelope decoding, context
// deadlines, and transparent 429 retry. Aliased here so library consumers
// can stay on a single import.
type (
	// Client talks to one olgaprod shard or olgarouter instance.
	Client = client.Client
	// ClientOption configures a Client (token, transport, retries).
	ClientOption = client.Option
	// APIError is a decoded /v1 error envelope plus its HTTP status;
	// dispatch on its stable Code via IsErrorCode.
	APIError = client.APIError
)

// NewClient builds a /v1 API client for the service at baseURL; see
// client.WithToken, client.WithHTTPClient, client.WithRetries for options.
func NewClient(baseURL string, opts ...ClientOption) *Client {
	return client.New(baseURL, opts...)
}

// IsErrorCode reports whether err is an *APIError carrying the given
// stable wire code (e.g. wire codes re-exported as client.CodeNotFound).
func IsErrorCode(err error, code client.ErrorCode) bool {
	return client.IsCode(err, code)
}
