package exec

// Perf-trajectory benchmarks: every Benchmark_<name> here is one row
// <name> of the BENCH_*.json files (`make bench-json` selects them with
// -bench '^Benchmark_').
//
// Two throughput families cover the two ways a UDF workload saturates:
//
//   - parallel_eval_table_wN: CPU-bound — frozen GP emulator clones, the
//     steady state of the paper's headline scenario. Scales with physical
//     cores; on a GOMAXPROCS=1 host all N give the same tuples/s.
//   - parallel_udfio_table_wN: latency-bound — a Monte-Carlo engine over a
//     UDF that blocks ~100µs per call (an external service / native
//     process, the paper's expensive-black-box setting). Pipelining
//     overlaps the blocking, so this family shows near-linear speedup even
//     on a single core.

import (
	"math/rand"
	"testing"
	"time"

	"olgapro/internal/core"
	"olgapro/internal/dist"
	"olgapro/internal/kernel"
	"olgapro/internal/mc"
	"olgapro/internal/query"
	"olgapro/internal/udf"
)

// benchTuples is the table size of one throughput-benchmark op.
const benchTuples = 64

// benchTable builds the uncertain input table of the throughput
// benchmarks.
func benchTable() []*query.Tuple {
	rng := rand.New(rand.NewSource(21))
	rel := make([]*query.Tuple, benchTuples)
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

// drainTable times one op of a throughput benchmark: the table through a
// pool, drained, reported as tuples/s.
func drainTable(b *testing.B, pool *Pool) {
	rel := benchTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pe := pool.Apply(query.NewScan(rel), []string{"x0", "x1"}, "y", Options{Seed: 17})
		out, err := query.Drain(pe)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != len(rel) {
			b.Fatalf("drained %d of %d tuples", len(out), len(rel))
		}
	}
	b.ReportMetric(float64(benchTuples*b.N)/b.Elapsed().Seconds(), "tuples/s")
}

// benchParallelEvalTable measures the CPU-bound family: one op drains the
// table through a frozen-emulator pool of the given size, the steady state
// of the paper's headline scenario (zero UDF calls, pure GP inference per
// tuple).
func benchParallelEvalTable(b *testing.B, workers int) {
	ev, err := core.NewEvaluator(testUDF(), core.Config{
		Kernel:         kernel.NewSqExp(1, 0.5),
		SampleOverride: 1000,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	in, err := dist.IsoGaussianVec([]float64{0.5, 0.5}, 0.15)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := ev.Eval(in, rng); err != nil {
			b.Fatal(err)
		}
	}
	pool, err := NewEvaluatorPool(ev, workers)
	if err != nil {
		b.Fatal(err)
	}
	drainTable(b, pool)
}

func Benchmark_parallel_eval_table_w1(b *testing.B) { benchParallelEvalTable(b, 1) }
func Benchmark_parallel_eval_table_w2(b *testing.B) { benchParallelEvalTable(b, 2) }
func Benchmark_parallel_eval_table_w4(b *testing.B) { benchParallelEvalTable(b, 4) }
func Benchmark_parallel_eval_table_w8(b *testing.B) { benchParallelEvalTable(b, 8) }

// benchParallelIOTable measures the latency-bound family: a Monte-Carlo
// engine (≈11 blocking UDF calls per tuple at ε=δ=0.3) over a UDF that
// blocks ~100µs per call. Worker pipelining overlaps the blocking, so
// throughput scales with the worker count even on one core.
func benchParallelIOTable(b *testing.B, workers int) {
	inner := testUDF()
	slow := udf.FuncOf{D: 2, F: func(x []float64) float64 {
		time.Sleep(100 * time.Microsecond)
		return inner.Eval(x)
	}}
	eng := query.NewMCEngine(slow, mc.Config{Eps: 0.3, Delta: 0.3, Metric: mc.MetricDiscrepancy})
	engines := make([]query.Engine, workers)
	for i := range engines {
		engines[i] = eng
	}
	pool, err := NewPool(engines...)
	if err != nil {
		b.Fatal(err)
	}
	drainTable(b, pool)
}

func Benchmark_parallel_udfio_table_w1(b *testing.B) { benchParallelIOTable(b, 1) }
func Benchmark_parallel_udfio_table_w2(b *testing.B) { benchParallelIOTable(b, 2) }
func Benchmark_parallel_udfio_table_w4(b *testing.B) { benchParallelIOTable(b, 4) }
func Benchmark_parallel_udfio_table_w8(b *testing.B) { benchParallelIOTable(b, 8) }
