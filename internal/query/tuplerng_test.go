package query

import (
	"math"
	"math/rand"
	"testing"

	"olgapro/internal/dist"
)

// tupleRNGSeeds is the differential seed set: the normalization edges
// (0, ±1, ±int32max, int32max+1, math/rand's zero substitute 89482311,
// MinInt64, MaxInt64) plus n seeds drawn over the whole int64 range.
func tupleRNGSeeds(n int) []int64 {
	seeds := []int64{0, 1, -1, int32max, -int32max, int32max + 1, 89482311, math.MinInt64, math.MaxInt64}
	g := rand.New(rand.NewSource(20260417))
	for i := 0; i < n; i++ {
		seeds = append(seeds, int64(g.Uint64()))
	}
	return seeds
}

// TestTupleSourceMatchesMathRand pins the reseeded tupleSource to
// rand.NewSource draw for draw, through every *rand.Rand method the
// distributions use.
func TestTupleSourceMatchesMathRand(t *testing.T) {
	n := 3000
	if testing.Short() {
		n = 300
	}
	const draws = 2000
	methods := []struct {
		name string
		draw func(r *rand.Rand) uint64
	}{
		{"Uint64", func(r *rand.Rand) uint64 { return r.Uint64() }},
		{"Int63", func(r *rand.Rand) uint64 { return uint64(r.Int63()) }},
		{"Float64", func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) }},
		{"NormFloat64", func(r *rand.Rand) uint64 { return math.Float64bits(r.NormFloat64()) }},
		{"ExpFloat64", func(r *rand.Rand) uint64 { return math.Float64bits(r.ExpFloat64()) }},
		{"Intn", func(r *rand.Rand) uint64 { return uint64(r.Intn(1_000_003)) }},
	}
	got := NewTupleRand()
	for _, seed := range tupleRNGSeeds(n) {
		for _, m := range methods {
			want := rand.New(rand.NewSource(seed))
			got.Seed(seed)
			for i := 0; i < draws; i++ {
				if w, g := m.draw(want), m.draw(got); w != g {
					t.Fatalf("seed %d %s draw %d: got %#x, want %#x", seed, m.name, i, g, w)
				}
			}
		}
	}
}

// TestTupleRandReseedIsFresh checks that reseeding a used generator —
// mid-register, with Read's carry pending — restarts exactly the stream a
// fresh rand.New(rand.NewSource(seed)) produces.
func TestTupleRandReseedIsFresh(t *testing.T) {
	r := NewTupleRand()
	var buf [5]byte
	for _, seed := range tupleRNGSeeds(20) {
		r.Seed(seed ^ 0x5bd1e995)
		for i := 0; i < 700; i++ {
			r.NormFloat64()
		}
		r.Read(buf[:3]) // leaves Read's pending bytes in the Rand
		r.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		var gotB, wantB [11]byte
		r.Read(gotB[:])
		want.Read(wantB[:])
		if gotB != wantB {
			t.Fatalf("seed %d: Read after reseed = %x, want %x", seed, gotB, wantB)
		}
		for i := 0; i < 1500; i++ {
			if g, w := r.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d draw %d after reseed: %v, want %v", seed, i, g, w)
			}
		}
	}
}

// TestTupleRandSeedAndSampleAllocs fences the per-tuple RNG cost at zero
// allocations: reseeding and drawing a joint input sample allocate nothing.
func TestTupleRandSeedAndSampleAllocs(t *testing.T) {
	r := NewTupleRand()
	in := dist.NewIndependent(dist.Normal{Mu: 0.3, Sigma: 0.02}, dist.Normal{Mu: 1, Sigma: 0.1})
	buf := make([]float64, in.Dim())
	seed := int64(0)
	allocs := testing.AllocsPerRun(200, func() {
		seed++
		r.Seed(TupleSeed(7, seed))
		buf = in.SampleVec(r, buf)
	})
	if allocs != 0 {
		t.Fatalf("seed + SampleVec: %v allocs per tuple, want 0", allocs)
	}
}

func BenchmarkMathRandNewSource(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rand.NewSource(int64(i))
	}
}
