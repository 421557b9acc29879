package band

// Perf-trajectory benchmarks: every Benchmark_<name> here is one row
// <name> of the BENCH_*.json files (`make bench-json` selects them with
// -bench '^Benchmark_').

import (
	"testing"

	"olgapro/internal/kernel"
)

var zAlphaSink float64

// Benchmark_band_zalpha_2d measures the simultaneous band multiplier z_α
// (§4.2) that every evaluated tuple pays once: the bisection over a 2-D
// sample box.
func Benchmark_band_zalpha_2d(b *testing.B) {
	k := kernel.NewSqExp(1, 0.5)
	lo, hi := []float64{0.1, 0.2}, []float64{0.9, 1.4}
	z := 0.0
	for i := 0; i < b.N; i++ {
		z += ZAlphaForKernel(0.05, k, lo, hi)
	}
	zAlphaSink = z
}
