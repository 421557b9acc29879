package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// sortShapes are the support shapes sortWithPerm meets: a fresh tuple's
// support in sample order (random), a support written in a related order
// with a few local displacements (nearly_sorted: the side supports and the
// tuning loop's re-sorts), and a support with one far outlier, which the
// distribution pass cannot spread (skewed).
var sortShapes = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []float64
}{
	{"random", func(rng *rand.Rand, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = 4 + rng.NormFloat64()
		}
		return out
	}},
	{"nearly_sorted", func(rng *rand.Rand, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i)
		}
		for k := 0; k < n/64+1; k++ {
			i := rng.Intn(n - 3)
			out[i], out[i+3] = out[i+3], out[i]
		}
		return out
	}},
	{"skewed", func(rng *rand.Rand, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = 4 + rng.NormFloat64()
		}
		out[rng.Intn(n)] = 1e12
		return out
	}},
}

// resetSort restores vals to src and perm to the identity.
func resetSort(vals, src []float64, perm []int) {
	copy(vals, src)
	for i := range perm {
		perm[i] = i
	}
}

// TestSortWithPermZeroAllocs pins the warm sort at zero allocations on the
// envelope sizes the serving path sees.
func TestSortWithPermZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{94, 374, 1784} {
		for _, shape := range sortShapes {
			src := shape.gen(rng, n)
			vals := make([]float64, n)
			perm := make([]int, n)
			var sc sortScratch
			resetSort(vals, src, perm)
			sortWithPerm(vals, perm, &sc)
			allocs := testing.AllocsPerRun(20, func() {
				resetSort(vals, src, perm)
				sortWithPerm(vals, perm, &sc)
			})
			if allocs != 0 {
				t.Errorf("%s n=%d: %v allocs per warm sort, want 0", shape.name, n, allocs)
			}
		}
	}
}

// BenchmarkSortWithPerm times one warm sort per shape and envelope size;
// each iteration also restores the unsorted input, an O(n) copy.
func BenchmarkSortWithPerm(b *testing.B) {
	for _, shape := range sortShapes {
		for _, n := range []int{94, 374, 1784} {
			b.Run(fmt.Sprintf("%s/%d", shape.name, n), func(b *testing.B) {
				src := shape.gen(rand.New(rand.NewSource(int64(n))), n)
				vals := make([]float64, n)
				perm := make([]int, n)
				var sc sortScratch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					resetSort(vals, src, perm)
					sortWithPerm(vals, perm, &sc)
				}
			})
		}
	}
}
