package query_test

// Perf-trajectory benchmarks: every Benchmark_<name> here is one row
// <name> of the BENCH_*.json files (`make bench-json` selects them with
// -bench '^Benchmark_').

import (
	"fmt"
	"math/rand"
	"testing"

	"olgapro/internal/core"
	"olgapro/internal/ecdf"
	"olgapro/internal/query"
)

var rngSink int64

// Benchmark_tuple_rng_seed measures the per-tuple RNG fixed cost:
// reseeding one reused tuple generator with the next tuple's seed, as
// every serving path does before it samples a tuple.
func Benchmark_tuple_rng_seed(b *testing.B) {
	rng := query.NewTupleRand()
	for i := 0; i < b.N; i++ {
		rng.Seed(query.TupleSeed(7, int64(i)))
	}
	rngSink = rng.Int63()
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
// top-k answer set with rank intervals.
func benchQueryTopK(b *testing.B, n, k int) {
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

func Benchmark_query_topk_n512_k16(b *testing.B)  { benchQueryTopK(b, 512, 16) }
func Benchmark_query_topk_n4096_k64(b *testing.B) { benchQueryTopK(b, 4096, 64) }

// Benchmark_query_window_n512 measures the sliding-window bounded
// aggregates: per op, slide a 16-tuple window by 4 over the relation
// computing count/avg/max intervals.
func Benchmark_query_window_n512(b *testing.B) {
	const n = 512
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

// Benchmark_query_groupby_n512 measures grouped bounded aggregates over
// the 4-way group label.
func Benchmark_query_groupby_n512(b *testing.B) {
	rel := boundedRelation(512)
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
