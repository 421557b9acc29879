// Command bench runs the focused performance microbenchmark suite behind the
// BENCH_*.json trajectory files: steady-state GP inference, incremental model
// growth, the full per-tuple evaluation loop (steady and fresh-tuple), the
// λ-discrepancy bound, the filtering fast path, the hyperparameter
// gradient/Hessian used by online retraining, the per-tuple fixed costs
// (tuple RNG reseeding, the z_α band multiplier), and the parallel
// executor's end-to-end throughput at 1/2/4/8 workers.
//
// Usage:
//
//	go run ./cmd/bench -out BENCH_PR3.json [-baseline before.json] [-label name]
//
// The output is a JSON trajectory entry (schema internal/benchfmt) with
// ns/op, B/op, allocs/op — and tuples/sec for the throughput benchmarks —
// so future performance PRs can diff against a recorded baseline;
// cmd/benchdiff is the CI gate that does exactly that. With -baseline, the
// named earlier run is embedded as "before" and per-benchmark speedups are
// computed.
//
// Two throughput families cover the two ways a UDF workload saturates:
//
//   - parallel_eval_table_wN: CPU-bound — frozen GP emulator clones, the
//     steady state of the paper's headline scenario. Scales with physical
//     cores; on a GOMAXPROCS=1 host all N give the same tuples/sec.
//   - parallel_udfio_table_wN: latency-bound — a Monte-Carlo engine over a
//     UDF that blocks ~100µs per call (an external service / native
//     process, the paper's expensive-black-box setting). Pipelining
//     overlaps the blocking, so this family shows near-linear speedup even
//     on a single core.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"testing"
	"time"

	"olgapro/client"
	"olgapro/internal/astro"
	"olgapro/internal/band"
	"olgapro/internal/benchfmt"
	"olgapro/internal/core"
	"olgapro/internal/dist"
	"olgapro/internal/ecdf"
	"olgapro/internal/exec"
	"olgapro/internal/fleet"
	"olgapro/internal/gp"
	"olgapro/internal/kernel"
	"olgapro/internal/mc"
	"olgapro/internal/query"
	"olgapro/internal/sdss"
	"olgapro/internal/server"
	"olgapro/internal/udf"
)

func measure(name string, f func(b *testing.B)) benchfmt.Result {
	r := testing.Benchmark(f)
	res := benchfmt.Result{
		Name:        name,
		Iters:       r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	fmt.Fprintf(os.Stderr, "%-28s %12.0f ns/op %12d B/op %8d allocs/op\n",
		name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	return res
}

// measureThroughput is measure for table benchmarks: one op processes
// tuples tuples, so tuples/sec is derived from ns/op.
func measureThroughput(name string, tuples int, f func(b *testing.B)) benchfmt.Result {
	res := measure(name, f)
	res.TuplesPerSec = float64(tuples) * 1e9 / res.NsPerOp
	fmt.Fprintf(os.Stderr, "%-28s %12.0f tuples/sec\n", "", res.TuplesPerSec)
	return res
}

// smoothUDF is the 2-D test function used throughout: smooth enough for the
// GP to emulate quickly, nonlinear enough to need a real model.
func smoothUDF() udf.Func {
	return udf.FuncOf{D: 2, F: func(x []float64) float64 {
		return x[0]*x[0] + 0.5*x[1] + 0.3*x[0]*x[1]
	}}
}

// trainedGP builds an n-point GP over [0,1]² with well-separated inputs.
func trainedGP(n int) *gp.GP {
	rng := rand.New(rand.NewSource(42))
	g := gp.New(kernel.NewSqExp(1, 0.3), 1e-6)
	f := smoothUDF()
	for g.Len() < n {
		x := []float64{rng.Float64(), rng.Float64()}
		if err := g.Add(x, f.Eval(x)); err != nil {
			continue // numerically duplicate draw; try another
		}
	}
	return g
}

// benchCloneRebuild measures building the frozen model of an n-point
// exact evaluator from a view — what a server does once per model seq a
// read needs: one op takes the view and replays the factor, α and R-tree.
func benchCloneRebuild(n int) func(b *testing.B) {
	return func(b *testing.B) {
		ev, err := core.NewEvaluator(smoothUDF(), core.Config{Kernel: kernel.NewSqExp(1, 0.3), Noise: 1e-6})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(42))
		for ev.Points() < n {
			// A numerically duplicate draw is refused; try another.
			_ = ev.AddTrainingAt([]float64{rng.Float64(), rng.Float64()})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, err := ev.View()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := v.Build(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchPredictBatch measures steady-state batch inference with
// caller-provided output buffers: the per-sample loop of Algorithm 5.
func benchPredictBatch(b *testing.B) {
	g := trainedGP(400)
	rng := rand.New(rand.NewSource(7))
	const m = 1000
	xs := make([][]float64, m)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64()}
	}
	means := make([]float64, m)
	vars := make([]float64, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.PredictBatch(xs, means, vars)
	}
}

// benchPredictBatchScratch measures the same loop through the
// caller-provided-scratch entry point, the form the evaluator hot path
// uses: steady state must be zero allocations per op.
func benchPredictBatchScratch(b *testing.B) {
	g := trainedGP(400)
	rng := rand.New(rand.NewSource(7))
	const m = 1000
	xs := make([][]float64, m)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64()}
	}
	means := make([]float64, m)
	vars := make([]float64, m)
	var s gp.Scratch
	g.PredictBatchWith(&s, xs, means, vars) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.PredictBatchWith(&s, xs, means, vars)
	}
}

// benchAddGrowth measures growing a model point-by-point to n=2000 via the
// incremental bordered Cholesky update (paper §5.2).
func benchAddGrowth(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	f := smoothUDF()
	const n = 2000
	xs := make([][]float64, 0, n)
	ys := make([]float64, 0, n)
	for len(xs) < n {
		x := []float64{rng.Float64() * 10, rng.Float64() * 10}
		xs = append(xs, x)
		ys = append(ys, f.Eval(x))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := gp.New(kernel.NewSqExp(1, 0.3), 1e-6)
		for j := range xs {
			if err := g.Add(xs[j], ys[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// sparseGrowthData draws the same input stream benchAddGrowth uses, extended
// to n points, so the exact-vs-sparse growth numbers are comparable.
func sparseGrowthData(n int) (xs [][]float64, ys []float64) {
	rng := rand.New(rand.NewSource(42))
	f := smoothUDF()
	xs = make([][]float64, 0, n)
	ys = make([]float64, 0, n)
	for len(xs) < n {
		x := []float64{rng.Float64() * 10, rng.Float64() * 10}
		xs = append(xs, x)
		ys = append(ys, f.Eval(x))
	}
	return xs, ys
}

// benchSparseAddGrowth measures growing the budgeted sparse model
// point-by-point to n: the tentpole O(m²)-amortized-per-add path that breaks
// the exact model's O(n²)-per-add growth wall. The 8000-point variant, at 4×
// the points, should cost ≈ 4× the 2000-point one (linear in n) where the
// exact model would cost ≈ 64× (cubic aggregate).
func benchSparseAddGrowth(n int) func(b *testing.B) {
	return func(b *testing.B) {
		xs, ys := sparseGrowthData(n)
		cfg := gp.SparseConfig{Budget: 256, SwapEvery: -1}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := gp.NewSparse(kernel.NewSqExp(1, 0.3), 1e-6, cfg)
			if err != nil {
				b.Fatal(err)
			}
			for j := range xs {
				if err := s.Add(xs[j], ys[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// benchSparsePredictSteady measures steady-state sparse batch inference over
// the same 1000-point workload as predict_batch_scratch: cost is O(budget²)
// per sample regardless of the 4000 points absorbed.
func benchSparsePredictSteady(b *testing.B) {
	xs, ys := sparseGrowthData(4000)
	s, err := gp.NewSparse(kernel.NewSqExp(1, 0.3), 1e-6, gp.SparseConfig{Budget: 256, SwapEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	for j := range xs {
		if err := s.Add(xs[j], ys[j]); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(7))
	const m = 1000
	qs := make([][]float64, m)
	for i := range qs {
		qs[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
	}
	means := make([]float64, m)
	vars := make([]float64, m)
	var sc gp.Scratch
	s.PredictBatchWith(&sc, qs, means, vars) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.PredictBatchWith(&sc, qs, means, vars)
	}
}

// warmEvaluator returns an evaluator whose model has converged on the
// workload, so benchmarked Eval calls measure the steady state.
func warmEvaluator(pred *mc.Predicate) (*core.Evaluator, dist.Vector, [][]float64) {
	cfg := core.Config{
		Kernel:         kernel.NewSqExp(1, 0.5),
		SampleOverride: 1000,
	}
	cfg.Predicate = pred
	ev, err := core.NewEvaluator(smoothUDF(), cfg)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(3))
	in, err := dist.IsoGaussianVec([]float64{0.5, 0.5}, 0.15)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := ev.Eval(in, rng); err != nil {
			panic(err)
		}
	}
	samples := make([][]float64, ev.SampleBudget())
	for i := range samples {
		samples[i] = in.SampleVec(rng, nil)
	}
	return ev, in, samples
}

// benchEvalSamples measures one full steady-state EvalSamples tuple. It
// replays a single sample set, so after the first op the envelope's sort
// permutations already order it and it never pays a fresh tuple's first
// sort (benchEvalFrozenFresh does).
func benchEvalSamples(b *testing.B) {
	ev, _, samples := warmEvaluator(nil)
	rng := rand.New(rand.NewSource(11))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.EvalSamples(samples, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// frozenGalage learns paper query Q1's galaxy-age UDF at the paper's
// ε=0.1, δ=0.05 (m = 1784 Monte-Carlo samples per tuple) over a fixed
// catalog and returns a frozen clone plus held-out galaxies inside the
// learned redshift range.
func frozenGalage() (*core.Evaluator, []dist.Vector) {
	ev, err := core.NewEvaluator(astro.GalAgeFunc(astro.Default()), core.Config{
		Eps: 0.1, Delta: 0.05, Kernel: kernel.NewSqExp(4, 0.3),
	})
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(1))
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, g := range sdss.Generate(sdss.GenerateConfig{N: 64, Seed: 0}).Galaxies {
		if _, err := ev.Eval(dist.NewIndependent(g.RedshiftDist()), rng); err != nil {
			panic(err)
		}
		lo, hi = math.Min(lo, g.Redshift), math.Max(hi, g.Redshift)
	}
	fc, err := ev.CloneFrozen()
	if err != nil {
		panic(err)
	}
	var held []dist.Vector
	for _, g := range sdss.Generate(sdss.GenerateConfig{N: 256, Seed: 7}).Galaxies {
		if len(held) < 64 && g.Redshift-2*g.RedshiftErr >= lo && g.Redshift+2*g.RedshiftErr <= hi {
			held = append(held, dist.NewIndependent(g.RedshiftDist()))
		}
	}
	return fc, held
}

// benchEvalFrozenFresh measures one frozen Q1 tuple as served: each op
// evaluates the next of 64 distinct held-out galaxies, so every op draws a
// fresh sample set whose three envelope supports arrive unsorted.
func benchEvalFrozenFresh(b *testing.B) {
	fc, held := frozenGalage()
	rng := rand.New(rand.NewSource(11))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fc.Eval(held[i%len(held)], rng); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPredictLocal measures the §5.3 local inference of one frozen Q1
// tuple alone: predictInto over one held-out galaxy's 1784 samples, with the
// local subset selected and factorized once outside the timer.
func benchPredictLocal(b *testing.B) {
	fc, held := frozenGalage()
	rng := rand.New(rand.NewSource(11))
	samples := make([][]float64, fc.SampleBudget())
	for i := range samples {
		samples[i] = held[0].SampleVec(rng, nil)
	}
	if n := len(samples); n != 1784 {
		b.Fatalf("sample budget %d, want 1784", n)
	}
	predict, err := fc.PredictLocalForBench(samples)
	if err != nil {
		b.Fatal(err)
	}
	means := make([]float64, len(samples))
	vars := make([]float64, len(samples))
	predict(means, vars) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predict(means, vars)
	}
}

// benchDiscrepancyBound measures Algorithm 3's λ-discrepancy bound alone,
// with reused scratch, on the envelope of one frozen Q1 tuple (three
// 1784-point supports at the evaluator's own λ).
func benchDiscrepancyBound(b *testing.B) {
	fc, held := frozenGalage()
	out, err := fc.Eval(held[0], rand.New(rand.NewSource(11)))
	if err != nil {
		b.Fatal(err)
	}
	if n := out.Envelope.Mean.Len(); n != 1784 {
		b.Fatalf("envelope support %d, want 1784", n)
	}
	var s ecdf.BoundScratch
	out.Envelope.DiscrepancyBoundWith(&s, out.Lambda) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Envelope.DiscrepancyBoundWith(&s, out.Lambda)
	}
}

// benchFilterFastPath measures the chunked filtering fast path (§5.5): the
// predicate range is far from the output distribution, so tuples are dropped
// after the first inference chunk.
func benchFilterFastPath(b *testing.B) {
	pred := &mc.Predicate{A: 100, B: 200, Theta: 0.5}
	ev, _, samples := warmEvaluator(pred)
	rng := rand.New(rand.NewSource(13))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := ev.EvalSamples(samples, rng)
		if err != nil {
			b.Fatal(err)
		}
		if !out.Filtered {
			b.Fatal("tuple unexpectedly not filtered")
		}
	}
}

// benchGradHess measures the gradient+diagonal-Hessian computation driving
// the online retraining heuristic (§5.3) at n=300.
func benchGradHess(b *testing.B) {
	g := trainedGP(300)
	// The first call grows the GP's O(n²) gradient scratch. Warm it outside
	// the timer so allocs/op counts only the steady state: otherwise the
	// dozen setup allocations, amortized over the ~10–14 iterations a run
	// picks, flip the integer count between 2 and 3.
	g.GradHess()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grad, hess := g.GradHess()
		if len(grad) == 0 || len(hess) == 0 {
			b.Fatal("empty gradient")
		}
	}
}

// greedyBenchSetup builds an evaluator with a 60-point trained model and a
// 400-sample tuple (the paper's cap "for 'optimal greedy' to be feasible"),
// under global inference so the local subset — and thus the per-candidate
// cost — is deterministic across runs.
func greedyBenchSetup() (*core.Evaluator, [][]float64) {
	cfg := core.Config{
		Kernel:          kernel.NewSqExp(1, 0.3),
		Noise:           1e-6,
		GlobalInference: true,
		SampleOverride:  400,
		Tuning:          core.TuneOptimalGreedy,
	}
	ev, err := core.NewEvaluator(smoothUDF(), cfg)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(5))
	for ev.GP().Len() < 60 {
		if err := ev.AddTrainingAt([]float64{rng.Float64(), rng.Float64()}); err != nil {
			continue // numerically duplicate draw; try another
		}
	}
	samples := make([][]float64, 400)
	for i := range samples {
		samples[i] = []float64{0.35 + 0.3*rng.Float64(), 0.35 + 0.3*rng.Float64()}
	}
	return ev, samples
}

// benchTupleRNGSeed measures the per-tuple RNG fixed cost: reseeding one
// reused tuple generator with the next tuple's seed, as every serving
// path does before it samples a tuple.
func benchTupleRNGSeed(b *testing.B) {
	rng := query.NewTupleRand()
	for i := 0; i < b.N; i++ {
		rng.Seed(query.TupleSeed(7, int64(i)))
	}
	benchSink = rng.Int63()
}

// benchZAlpha2D measures the simultaneous band multiplier z_α (§4.2) that
// every evaluated tuple pays once: the bisection over a 2-D sample box.
func benchZAlpha2D(b *testing.B) {
	k := kernel.NewSqExp(1, 0.5)
	lo, hi := []float64{0.1, 0.2}, []float64{0.9, 1.4}
	z := 0.0
	for i := 0; i < b.N; i++ {
		z += band.ZAlphaForKernel(0.05, k, lo, hi)
	}
	benchSinkF = z
}

// benchSink and benchSinkF keep the results of the micro benchmarks live.
var (
	benchSink  int64
	benchSinkF float64
)

// benchTuningPick measures one optimal-greedy tuning pick (§5.2): every
// candidate's simulated envelope bound over the evaluation subset. The rank-1
// fast path replaces the clone-based per-candidate refactorization; both are
// kept in the trajectory so the speedup is visible in one file and the fast
// path is gated once this file becomes the baseline.
func benchTuningPick(useClone bool) func(b *testing.B) {
	return func(b *testing.B) {
		ev, samples := greedyBenchSetup()
		rng := rand.New(rand.NewSource(31))
		// One untimed pick grows the tuning scratch, so allocs/op does not
		// depend on how many iterations amortize it (see benchGradHess).
		if _, err := ev.PickGreedyForBench(samples, rng, useClone); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ev.PickGreedyForBench(samples, rng, useClone); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// throughputTuples is the table size of one throughput-benchmark op.
const throughputTuples = 64

// benchTable builds the uncertain input table shared by the throughput
// benchmarks.
func benchTable() []*query.Tuple {
	rng := rand.New(rand.NewSource(21))
	rel := make([]*query.Tuple, throughputTuples)
	for i := range rel {
		rel[i] = query.MustTuple(
			[]string{"id", "x0", "x1"},
			[]query.Value{
				query.Int(int64(i)),
				query.Uncertain(dist.Normal{Mu: 0.35 + 0.3*rng.Float64(), Sigma: 0.15}),
				query.Uncertain(dist.Normal{Mu: 0.35 + 0.3*rng.Float64(), Sigma: 0.15}),
			},
		)
	}
	return rel
}

// benchParallelEvalTable measures the CPU-bound family: one op drains the
// 64-tuple table through a frozen-emulator pool of the given size, the
// steady state of the paper's headline scenario (zero UDF calls, pure GP
// inference per tuple).
func benchParallelEvalTable(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		ev, _, _ := warmEvaluator(nil)
		pool, err := exec.NewEvaluatorPool(ev, workers)
		if err != nil {
			b.Fatal(err)
		}
		rel := benchTable()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pe := pool.Apply(query.NewScan(rel), []string{"x0", "x1"}, "y", exec.Options{Seed: 17})
			out, err := query.Drain(pe)
			if err != nil {
				b.Fatal(err)
			}
			if len(out) != len(rel) {
				b.Fatalf("drained %d of %d tuples", len(out), len(rel))
			}
		}
	}
}

// ioUDF models the paper's expensive black-box setting: each call blocks
// ~100µs, as an external service or spawned native process would.
func ioUDF() udf.Func {
	inner := smoothUDF()
	return udf.FuncOf{D: 2, F: func(x []float64) float64 {
		time.Sleep(100 * time.Microsecond)
		return inner.Eval(x)
	}}
}

// benchParallelIOTable measures the latency-bound family: a Monte-Carlo
// engine (≈11 blocking UDF calls per tuple at ε=δ=0.3) over the same
// table. Worker pipelining overlaps the blocking, so throughput scales with
// the worker count even on one core.
func benchParallelIOTable(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		eng := query.NewMCEngine(ioUDF(), mc.Config{Eps: 0.3, Delta: 0.3, Metric: mc.MetricDiscrepancy})
		engines := make([]query.Engine, workers)
		for i := range engines {
			engines[i] = eng
		}
		pool, err := exec.NewPool(engines...)
		if err != nil {
			b.Fatal(err)
		}
		rel := benchTable()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pe := pool.Apply(query.NewScan(rel), []string{"x0", "x1"}, "y", exec.Options{Seed: 17})
			out, err := query.Drain(pe)
			if err != nil {
				b.Fatal(err)
			}
			if len(out) != len(rel) {
				b.Fatalf("drained %d of %d tuples", len(out), len(rel))
			}
		}
	}
}

// boundedRelation builds an n-tuple relation whose "y" attribute is a UDF
// result with a synthetic confidence envelope — the input shape of the
// bounded relational operators — plus a 4-way group label. Deterministic;
// built once outside the timed loop.
func boundedRelation(n int) []*query.Tuple {
	rng := rand.New(rand.NewSource(33))
	rel := make([]*query.Tuple, n)
	for i := range rel {
		mid := rng.NormFloat64() * 3
		gap := 0.2 + rng.Float64()
		samples := make([]float64, 32)
		for j := range samples {
			samples[j] = mid + rng.NormFloat64()*0.4
		}
		lower := make([]float64, len(samples))
		upper := make([]float64, len(samples))
		for j, s := range samples {
			lower[j], upper[j] = s-gap, s+gap
		}
		y := query.Result(ecdf.New(samples), 0)
		y.Out = &core.Output{Envelope: &ecdf.Envelope{
			Mean:  ecdf.New(samples),
			Lower: ecdf.New(lower),
			Upper: ecdf.New(upper),
		}}
		rel[i] = query.MustTuple(
			[]string{"id", "g", "y"},
			[]query.Value{
				query.Int(int64(i)),
				query.Str(fmt.Sprintf("g%d", i%4)),
				y,
			},
		)
	}
	return rel
}

// benchQueryTopK measures the bounded top-k operator: per op, rank the
// n-tuple relation on the mean envelope bounds and materialize the possible
// top-k answer set with rank intervals. Single-core and deterministic, so
// non-exempt under the cmd/benchdiff gate.
func benchQueryTopK(n, k int) func(b *testing.B) {
	return func(b *testing.B) {
		rel := boundedRelation(n)
		spec := query.RankSpec{By: "y", K: k, Desc: true}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := query.Drain(query.NewTopK(query.NewScan(rel), spec))
			if err != nil {
				b.Fatal(err)
			}
			if len(out) < k {
				b.Fatalf("possible answer set %d < k=%d", len(out), k)
			}
		}
	}
}

// benchQueryWindow measures the sliding-window bounded aggregates: per op,
// slide a 16-tuple window by 4 over the relation computing count/avg/max
// intervals. Single-core and deterministic, non-exempt under the gate.
func benchQueryWindow(n int) func(b *testing.B) {
	return func(b *testing.B) {
		rel := boundedRelation(n)
		spec := query.WindowSpec{Size: 16, Step: 4, Aggs: []query.Agg{
			query.Count(), query.Avg("y"), query.Max("y"),
		}}
		want := (n-spec.Size)/4 + 1
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := query.Drain(query.NewWindow(query.NewScan(rel), spec))
			if err != nil {
				b.Fatal(err)
			}
			if len(out) != want {
				b.Fatalf("%d windows, want %d", len(out), want)
			}
		}
	}
}

// benchQueryGroupBy measures grouped bounded aggregates over the 4-way
// group label. Single-core and deterministic, non-exempt under the gate.
func benchQueryGroupBy(n int) func(b *testing.B) {
	return func(b *testing.B) {
		rel := boundedRelation(n)
		spec := query.GroupBySpec{Keys: []string{"g"}, Aggs: []query.Agg{
			query.Count(), query.Sum("y"), query.Min("y"),
		}}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := query.Drain(query.NewGroupBy(query.NewScan(rel), spec))
			if err != nil {
				b.Fatal(err)
			}
			if len(out) != 4 {
				b.Fatalf("%d groups", len(out))
			}
		}
	}
}

// benchServer boots the olgaprod serving layer in-process (httptest) with a
// registered, warmed smooth UDF, for end-to-end request benchmarks through
// the real HTTP handler: JSON decode, admission, frozen-clone evaluation,
// JSON encode. All traffic goes through the public client package — the
// same surface the router and e2e gates use.
func benchServer(b *testing.B, workers int) (*client.Client, func()) {
	s, err := server.New(server.Config{Workers: workers, MaxInFlight: 512})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	cl := client.New(ts.URL)
	rng := rand.New(rand.NewSource(5))
	warmup := make([]client.InputSpec, 8)
	for i := range warmup {
		warmup[i] = client.InputSpec{
			{Type: "normal", Mu: 0.3 + 0.4*rng.Float64(), Sigma: 0.15},
			{Type: "normal", Mu: 0.3 + 0.4*rng.Float64(), Sigma: 0.15},
		}
	}
	if _, err := cl.Register(context.Background(), client.RegisterRequest{
		UDF: "poly/smooth2d", Name: "bench", Eps: 0.2, Delta: 0.1,
		Warmup: warmup, WarmupSeed: 3,
	}); err != nil {
		b.Fatalf("register: %v", err)
	}
	return cl, func() { ts.Close(); s.Close() }
}

// benchServerEval measures single-tuple serving throughput: one op is one
// POST /eval round trip on the frozen (read) path. The request body is
// marshaled once outside the loop, so the measured work stays server-side.
func benchServerEval(b *testing.B) {
	cl, stop := benchServer(b, 1)
	defer stop()
	learn := false
	req, _ := json.Marshal(client.EvalRequest{
		Input: client.InputSpec{
			{Type: "normal", Mu: 0.5, Sigma: 0.12},
			{Type: "normal", Mu: 0.5, Sigma: 0.12},
		},
		Seed: 11, Learn: &learn,
	})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := cl.Do(ctx, http.MethodPost, "/v1/udfs/bench/eval", nil, req, "application/json")
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("eval: %d", resp.StatusCode)
		}
	}
}

// benchServerStream measures NDJSON stream serving: one op streams the
// 64-tuple table through the frozen exec fan-out at the given worker count.
func benchServerStream(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		cl, stop := benchServer(b, workers)
		defer stop()
		rng := rand.New(rand.NewSource(21))
		inputs := make([]client.InputSpec, throughputTuples)
		for i := range inputs {
			inputs[i] = client.InputSpec{
				{Type: "normal", Mu: 0.35 + 0.3*rng.Float64(), Sigma: 0.15},
				{Type: "normal", Mu: 0.35 + 0.3*rng.Float64(), Sigma: 0.15},
			}
		}
		payload, err := client.StreamBody(inputs)
		if err != nil {
			b.Fatal(err)
		}
		q := url.Values{"learn": {"false"}, "seed": {"17"}}
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rc, err := cl.OpenStream(ctx, "bench", q, payload)
			if err != nil {
				b.Fatal(err)
			}
			n, _ := io.Copy(io.Discard, rc)
			rc.Close()
			if n == 0 {
				b.Fatal("stream: empty response")
			}
		}
	}
}

// lagBatch is how many fleet_replication_lag ops run on one fleet before
// the loop boots a fresh one, timer stopped. Learning is deterministic, and
// each batch learns the same fresh points with the same seeds, so every
// batch moves the owner's model seq the same way; the model and the
// replication list stay small however large b.N grows.
const lagBatch = 8

// lagPoint is the j-th fresh learn input of a batch: points 6 apart on a
// line, far enough from everything learned before that each adds training
// points.
func lagPoint(j int) client.InputSpec {
	return client.InputSpec{
		{Type: "normal", Mu: 6 * float64(j), Sigma: 0.05},
		{Type: "normal", Mu: 0, Sigma: 0.05},
	}
}

// lagFleet is an in-process owner + replica pair hosting one instance.
type lagFleet struct {
	owner    *client.Client
	ownerSeq func() int64
	replica  *server.Registry
	close    func()
}

// bootLagFleet boots two shards, each with its replication engine, and
// registers the "lag" instance on its ring owner; it returns once the
// replica holds the registered model.
func bootLagFleet(b *testing.B) *lagFleet {
	var closers []func()
	f := &lagFleet{close: func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}}
	srvs := make([]*server.Server, 2)
	addrs := make([]string, 2)
	for i := range srvs {
		s, err := server.New(server.Config{Workers: 1, MaxInFlight: 64})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		closers = append(closers, func() { ts.Close(); s.Close() })
		srvs[i], addrs[i] = s, ts.URL
	}
	for i, s := range srvs {
		repl, err := fleet.StartReplicator(fleet.ReplicatorConfig{
			Self: addrs[i], Shards: addrs, Registry: s.Registry(),
			Replicas: 2, Interval: 500 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		closers = append(closers, repl.Close)
		s.SetFleetHooks(&server.FleetHooks{
			Membership:      repl.Membership,
			AdoptMembership: repl.AdoptMembership,
		})
	}
	// httptest ports are random, so either shard may own "lag": register
	// on the ring owner (registering elsewhere would get the registrant
	// demoted once the owner catches up).
	ring, err := fleet.NewRing(addrs, 0)
	if err != nil {
		b.Fatal(err)
	}
	owner, replica := 0, 1
	if ring.Owner("lag") == addrs[1] {
		owner, replica = 1, 0
	}
	f.owner = client.New(addrs[owner])
	if _, err := f.owner.Register(context.Background(), client.RegisterRequest{
		UDF: "poly/smooth2d", Name: "lag", Eps: 0.2, Delta: 0.1,
		Warmup: []client.InputSpec{lagPoint(-1)}, WarmupSeed: 3,
	}); err != nil {
		b.Fatalf("register: %v", err)
	}
	e, _ := srvs[owner].Registry().Get("lag")
	f.ownerSeq, f.replica = e.Seq, srvs[replica].Registry()
	f.waitReplica(f.ownerSeq())
	return f
}

// waitReplica returns once the replica holds model seq (or newer). It
// sleeps on the replica registry's version, which every install bumps, so
// it wakes at the install rather than at a polling tick.
func (f *lagFleet) waitReplica(seq int64) {
	for {
		ver := f.replica.Version()
		if e, ok := f.replica.Get("lag"); ok && e.Seq() >= seq {
			return
		}
		f.replica.WaitReplication(context.Background(), ver)
	}
}

// benchFleetLearnReplicated measures one op as: learn one tuple at a fresh
// point on the owner, then wait until the replica holds the owner's new
// model seq. An op that leaves the owner's seq unchanged fails the
// benchmark. The learn and the catch-up are timed as one op: the replica's
// long-poll wakes at the owner's seq bump, before the learn's response, so
// timing the catch-up alone would split its work at a point the host's
// scheduling moves. Every op is one learn plus one real catch-up, far below
// the 500ms Interval. Like the other multi-goroutine families it is
// trajectory-reported but exempt from the ns/op gate (fleet_* matches the
// benchdiff exemption).
func benchFleetLearnReplicated(b *testing.B) {
	var f *lagFleet
	defer func() {
		if f != nil {
			f.close()
		}
	}()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		j := i % lagBatch
		if j == 0 {
			// Booting is not part of the op.
			b.StopTimer()
			if f != nil {
				f.close()
			}
			f = bootLagFleet(b)
			b.StartTimer()
		}
		before := f.ownerSeq()
		if _, err := f.owner.Eval(ctx, "lag", client.EvalRequest{
			Input: lagPoint(j), Seed: int64(j + 1),
		}); err != nil {
			b.Fatalf("learn eval: %v", err)
		}
		after := f.ownerSeq()
		if after == before {
			b.Fatalf("op %d: learning at a fresh point left the owner's model seq at %d", i, after)
		}
		f.waitReplica(after)
	}
}

// fleetQueryRows is the request-relation size of one scattered-query op.
const fleetQueryRows = 16

// benchQueryFleet boots nShards in-process shards behind a fleet router,
// registers one UDF instance owned by each shard, and measures one op as a
// distributed bounded query (group-by + top-k over rows spanning every
// instance) through the router's scatter-gather path. The 1-shard variant
// isolates the decompose/merge overhead; the 3-shard variant adds the
// cross-shard fan-out. Timing depends on the host scheduler and loopback
// stack, so fleet_* stays exempt from the regression gate.
func benchQueryFleet(nShards int) func(b *testing.B) {
	return func(b *testing.B) {
		addrs := make([]string, nShards)
		for i := 0; i < nShards; i++ {
			s, err := server.New(server.Config{Workers: 1, MaxInFlight: 64})
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			addrs[i] = ts.URL
			defer func() { ts.Close(); s.Close() }()
		}
		ring, err := fleet.NewRing(addrs, 0)
		if err != nil {
			b.Fatal(err)
		}
		names := make([]string, 0, nShards)
		for _, addr := range addrs {
			for i := 0; i < 64; i++ {
				if cand := fmt.Sprintf("u%d", i); ring.Owner(cand) == addr {
					names = append(names, cand)
					break
				}
			}
		}
		if len(names) != nShards {
			b.Fatalf("found %d owned instance names for %d shards", len(names), nShards)
		}
		rt, err := fleet.NewRouter(fleet.Config{Shards: addrs, Replicas: 1, Cooldown: 100 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		defer rt.Close()
		tsR := httptest.NewServer(rt.Handler())
		defer tsR.Close()
		cl := client.New(tsR.URL)
		ctx := context.Background()

		rng := rand.New(rand.NewSource(5))
		warmup := make([]client.InputSpec, 8)
		for i := range warmup {
			warmup[i] = client.InputSpec{
				{Type: "normal", Mu: 0.3 + 0.4*rng.Float64(), Sigma: 0.15},
				{Type: "normal", Mu: 0.3 + 0.4*rng.Float64(), Sigma: 0.15},
			}
		}
		for _, name := range names {
			if _, err := cl.Register(ctx, client.RegisterRequest{
				UDF: "poly/smooth2d", Name: name, Eps: 0.2, Delta: 0.1,
				Warmup: warmup, WarmupSeed: 3,
			}); err != nil {
				b.Fatalf("register %s: %v", name, err)
			}
		}
		rows := make([]client.QueryRow, fleetQueryRows)
		for i := range rows {
			rows[i] = client.QueryRow{
				Input: client.InputSpec{
					{Type: "normal", Mu: 0.3 + 0.4*rng.Float64(), Sigma: 0.15},
					{Type: "normal", Mu: 0.3 + 0.4*rng.Float64(), Sigma: 0.15},
				},
				Group: string(rune('a' + i%3)),
				UDF:   names[i%len(names)],
			}
		}
		req := client.QueryRequest{
			Rows: rows, Seed: 11,
			GroupBy: &client.GroupBySpec{
				Keys: []string{"g"},
				Aggs: []client.AggSpec{{Kind: "count"}, {Kind: "avg", Attr: "y"}},
			},
			TopK: &client.TopKSpec{K: 2, By: "avg_y", Desc: true},
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cl.RunQuery(ctx, req); err != nil {
				b.Fatalf("scattered query: %v", err)
			}
		}
	}
}

func main() {
	out := flag.String("out", "", "write the run (or comparison) JSON to this file; stdout when empty")
	baseline := flag.String("baseline", "", "earlier run JSON to embed as the before side")
	label := flag.String("label", "", "label recorded in the run")
	flag.Parse()

	run := &benchfmt.Run{
		Schema:     benchfmt.SchemaRun,
		Label:      *label,
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	run.Results = append(run.Results,
		measure("predict_batch_steady", benchPredictBatch),
		measure("predict_batch_scratch", benchPredictBatchScratch),
		measure("gp_add_growth_2000", benchAddGrowth),
		measure("gp_sparse_add_growth_2000", benchSparseAddGrowth(2000)),
		measure("gp_sparse_add_growth_8000", benchSparseAddGrowth(8000)),
		measure("gp_sparse_predict_steady", benchSparsePredictSteady),
		measure("eval_samples_steady", benchEvalSamples),
		measure("eval_frozen_fresh", benchEvalFrozenFresh),
		measure("discrepancy_bound_m1784", benchDiscrepancyBound),
		measure("predict_local_m1784", benchPredictLocal),
		measure("filter_fast_path", benchFilterFastPath),
		measure("grad_hess_n300", benchGradHess),
		measure("tuning_pick_rank1", benchTuningPick(false)),
		measure("tuning_pick_clone", benchTuningPick(true)),
		measure("tuple_rng_seed", benchTupleRNGSeed),
		measure("band_zalpha_2d", benchZAlpha2D),
		measure("clone_rebuild_n200", benchCloneRebuild(200)),
		measure("clone_rebuild_n1000", benchCloneRebuild(1000)),
	)
	for _, w := range []int{1, 2, 4, 8} {
		run.Results = append(run.Results, measureThroughput(
			fmt.Sprintf("parallel_eval_table_w%d", w), throughputTuples, benchParallelEvalTable(w)))
	}
	for _, w := range []int{1, 2, 4, 8} {
		run.Results = append(run.Results, measureThroughput(
			fmt.Sprintf("parallel_udfio_table_w%d", w), throughputTuples, benchParallelIOTable(w)))
	}
	// Bounded relational operators (PR 6): single-core, deterministic, and
	// therefore fully gated by cmd/benchdiff (no exemption pattern matches).
	run.Results = append(run.Results,
		measure("query_topk_n512_k16", benchQueryTopK(512, 16)),
		measure("query_topk_n4096_k64", benchQueryTopK(4096, 64)),
		measure("query_window_n512", benchQueryWindow(512)),
		measure("query_groupby_n512", benchQueryGroupBy(512)),
	)
	// Serving layer: requests/sec through the real HTTP handler. Like the
	// parallel_* family these depend on host cores and scheduler, so they
	// are trajectory-reported but exempt from the regression gate (the
	// benchdiff -exempt default covers server_*).
	run.Results = append(run.Results, measureThroughput("server_eval_rps", 1, benchServerEval))
	for _, w := range []int{1, 4} {
		run.Results = append(run.Results, measureThroughput(
			fmt.Sprintf("server_stream_rps_w%d", w), throughputTuples, benchServerStream(w)))
	}
	// Replicated learning: one op = a learn that moves the owner's model
	// seq plus the wait until the replica catches up. It must land far below
	// the 500ms poll interval; timing depends on the host scheduler, so
	// fleet_* is exempt from the regression gate like parallel_*/server_*.
	run.Results = append(run.Results, measure("fleet_learn_replicated", benchFleetLearnReplicated))
	// Distributed bounded queries (PR 10): one op = one group-by + top-k
	// plan scattered across the fleet and merged at the router. fleet_*
	// keeps these exempt from the regression gate (scheduler-dependent).
	run.Results = append(run.Results,
		measureThroughput("fleet_query_scatter_1shard", fleetQueryRows, benchQueryFleet(1)),
		measureThroughput("fleet_query_scatter_3shard", fleetQueryRows, benchQueryFleet(3)),
	)

	var payload any = run
	if *baseline != "" {
		before, err := benchfmt.ReadRun(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: read baseline: %v\n", err)
			os.Exit(1)
		}
		cmp := &benchfmt.Comparison{
			Schema:   benchfmt.SchemaCmp,
			Date:     run.Date,
			Before:   before,
			After:    run,
			Speedups: map[string]float64{},
		}
		byName := before.ByName()
		for _, r := range run.Results {
			if b, ok := byName[r.Name]; ok && r.NsPerOp > 0 {
				cmp.Speedups[r.Name] = b.NsPerOp / r.NsPerOp
			}
		}
		payload = cmp
	}

	enc, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: encode: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: write %s: %v\n", *out, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s\n", *out)
}
