package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"olgapro/internal/ecdf"
	"olgapro/internal/rtree"
)

// refEnvelopeOf is the sort-based construction envelopeOf replaced: three
// fresh slices, three comparison sorts. The sorted multiset of each support
// is unique, so the adaptive path must reproduce it element for element.
func refEnvelopeOf(means, vars []float64, zAlpha float64, n int) ecdf.Envelope {
	mean := make([]float64, n)
	lower := make([]float64, n)
	upper := make([]float64, n)
	for i := 0; i < n; i++ {
		sd := math.Sqrt(vars[i])
		mean[i] = means[i]
		lower[i] = means[i] - zAlpha*sd
		upper[i] = means[i] + zAlpha*sd
	}
	slices.Sort(mean)
	slices.Sort(lower)
	slices.Sort(upper)
	return ecdf.Envelope{
		Mean:  ecdf.FromSorted(mean),
		Lower: ecdf.FromSorted(lower),
		Upper: ecdf.FromSorted(upper),
	}
}

func assertEnvelopesEqual(t *testing.T, got, want ecdf.Envelope, ctx string) {
	t.Helper()
	pairs := []struct {
		name      string
		got, want []float64
	}{
		{"mean", got.Mean.Values(), want.Mean.Values()},
		{"lower", got.Lower.Values(), want.Lower.Values()},
		{"upper", got.Upper.Values(), want.Upper.Values()},
	}
	for _, p := range pairs {
		if len(p.got) != len(p.want) {
			t.Fatalf("%s: %s support length %d ≠ %d", ctx, p.name, len(p.got), len(p.want))
		}
		for i := range p.got {
			if p.got[i] != p.want[i] {
				t.Fatalf("%s: %s support[%d] = %g ≠ %g", ctx, p.name, i, p.got[i], p.want[i])
			}
		}
	}
}

// TestEnvelopeOfMatchesSortedReference drives one envScratch through the
// call pattern of a real tuning loop — fresh tuple, small perturbations,
// chunked prefix growth, a shrunk next tuple — asserting exact equality with
// the sort-based reference at every step. This is the equivalence test
// pinning the sort-free envelope tentpole.
func TestEnvelopeOfMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var s envScratch
	const m = 300
	means := make([]float64, m)
	vars := make([]float64, m)
	fill := func() {
		for i := range means {
			means[i] = rng.NormFloat64() * 3
			vars[i] = rng.Float64() * 2
		}
	}
	perturb := func(scale float64) {
		for i := range means {
			means[i] += rng.NormFloat64() * scale
			vars[i] = math.Abs(vars[i] + rng.NormFloat64()*scale*0.1)
		}
	}
	fill()
	// Fresh tuple, then ten tuning-style perturbation rounds.
	for round := 0; round < 11; round++ {
		got := s.envelopeOf(means, vars, 2.5, m)
		assertEnvelopesEqual(t, got, refEnvelopeOf(means, vars, 2.5, m), "perturbation round")
		perturb(0.01)
	}
	// Chunked filtering pattern: growing prefixes over fresh data.
	fill()
	for n := 64; n <= m; n += 64 {
		if n > m {
			n = m
		}
		got := s.envelopeOf(means, vars, 1.8, n)
		assertEnvelopesEqual(t, got, refEnvelopeOf(means, vars, 1.8, n), "chunk growth")
	}
	// A following tuple with a smaller budget must reset cleanly.
	fill()
	got := s.envelopeOf(means, vars, 2.0, 50)
	assertEnvelopesEqual(t, got, refEnvelopeOf(means, vars, 2.0, 50), "shrunk budget")
}

// TestEnvelopeOfUniformVariance pins the homoscedastic fast path: with one
// shared variance the lower/upper supports are built as shifts of the sorted
// mean (ecdf.FromSortedShifted) and must equal the reference exactly.
func TestEnvelopeOfUniformVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s envScratch
	const m = 128
	means := make([]float64, m)
	vars := make([]float64, m)
	for i := range means {
		means[i] = rng.NormFloat64()
		vars[i] = 0.37 // one shared predictive variance (prior-only regime)
	}
	for round := 0; round < 3; round++ {
		got := s.envelopeOf(means, vars, 2.2, m)
		assertEnvelopesEqual(t, got, refEnvelopeOf(means, vars, 2.2, m), "uniform variance")
		for i := range means {
			means[i] += rng.NormFloat64() * 0.05
		}
	}
	// Switching from uniform to heteroscedastic on the same scratch must not
	// leave the lower/upper permutations stale.
	for i := range vars {
		vars[i] = rng.Float64()
	}
	got := s.envelopeOf(means, vars, 2.2, m)
	assertEnvelopesEqual(t, got, refEnvelopeOf(means, vars, 2.2, m), "uniform→hetero switch")
}

// TestSortWithPermProperties drives the adaptive sort across input shapes — sorted, reversed, nearly sorted, duplicate-heavy, random — and
// checks both the sorted result (vs slices.Sort) and that perm keeps tracking
// which original element landed where.
func TestSortWithPermProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := map[string]func(n int) []float64{
		"sorted": func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = float64(i)
			}
			return out
		},
		"reversed": func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = float64(n - i)
			}
			return out
		},
		"nearly_sorted": func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = float64(i) + rng.NormFloat64()*2
			}
			return out
		},
		"duplicates": func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = float64(rng.Intn(5))
			}
			return out
		},
		"random": func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = rng.NormFloat64()
			}
			return out
		},
	}
	var sc sortScratch
	for name, gen := range shapes {
		for _, n := range []int{0, 1, 2, 3, 17, 100, 513} {
			vals := gen(n)
			orig := slices.Clone(vals)
			perm := make([]int, n)
			for i := range perm {
				perm[i] = i
			}
			sortWithPerm(vals, perm, &sc)
			want := slices.Clone(orig)
			slices.Sort(want)
			if !slices.Equal(vals, want) {
				t.Fatalf("%s n=%d: not sorted like slices.Sort", name, n)
			}
			seen := make([]bool, n)
			for k, i := range perm {
				if i < 0 || i >= n || seen[i] {
					t.Fatalf("%s n=%d: perm is not a permutation", name, n)
				}
				seen[i] = true
				if vals[k] != orig[i] {
					t.Fatalf("%s n=%d: perm[%d]=%d does not track its value", name, n, k, i)
				}
			}
		}
	}
}

// TestSortWithPermNaN guards the termination property: NaNs must sort finite-
// last-to-first like slices.Sort (NaN-first total order) rather than stalling
// the natural merge.
func TestSortWithPermNaN(t *testing.T) {
	vals := []float64{3, math.NaN(), 1, math.NaN(), 2}
	perm := []int{0, 1, 2, 3, 4}
	var sc sortScratch
	sortWithPerm(vals, perm, &sc) // must terminate
	want := []float64{3, math.NaN(), 1, math.NaN(), 2}
	slices.Sort(want)
	for i := range vals {
		if vals[i] != want[i] && !(math.IsNaN(vals[i]) && math.IsNaN(want[i])) {
			t.Fatalf("NaN ordering diverges from slices.Sort at %d: %v vs %v", i, vals, want)
		}
	}
}

// stableReference sorts a copy of vals with slices.SortStableFunc under
// fless, carrying each value's original index — the behaviour both
// sortWithPerm paths must reproduce bit for bit, including the order of
// fless-equal values with different bits (−0 and +0, NaN payloads).
func stableReference(vals []float64) ([]float64, []int) {
	type item struct {
		v float64
		i int
	}
	items := make([]item, len(vals))
	for i, v := range vals {
		items[i] = item{v, i}
	}
	slices.SortStableFunc(items, func(a, b item) int {
		switch {
		case fless(a.v, b.v):
			return -1
		case fless(b.v, a.v):
			return 1
		}
		return 0
	})
	outV := make([]float64, len(vals))
	outP := make([]int, len(vals))
	for k, it := range items {
		outV[k], outP[k] = it.v, it.i
	}
	return outV, outP
}

// TestSortWithPermMatchesStableReference drives sortWithPerm and its passes
// directly — the distribution pass finished by an unbounded insertion pass,
// the insertion pass alone, and the budgeted insertion pass with its merge
// fallback — over special values (NaNs with different payloads, ±0, ±Inf),
// heavy duplicates, skewed, overflowing and constant ranges, checking the
// value bits and the permutation against a stable comparison sort. It also
// pins which ranges the distribution pass buckets and that a far outlier
// exhausts the insertion budget.
func TestSortWithPermMatchesStableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	specials := []float64{
		math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000000),
		math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.MaxFloat64,
	}
	random := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = 11 + rng.NormFloat64()
		}
		return out
	}
	// mixIn overwrites two distinct random positions of a random support
	// with a and b.
	mixIn := func(a, b float64) func(n int) []float64 {
		return func(n int) []float64 {
			out := random(n)
			if n > 1 {
				i := rng.Intn(n)
				out[i], out[(i+1+rng.Intn(n-1))%n] = a, b
			}
			return out
		}
	}
	gens := map[string]func(n int) []float64{
		"random": random,
		"specials": func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				if rng.Intn(4) == 0 {
					out[i] = specials[rng.Intn(len(specials))]
				} else {
					out[i] = rng.NormFloat64() * 1e3
				}
			}
			return out
		},
		"duplicates": func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = float64(rng.Intn(7)) - 3
				if out[i] == 0 && rng.Intn(2) == 0 {
					out[i] = math.Copysign(0, -1)
				}
			}
			return out
		},
		"nearly_sorted": func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = float64(i)
			}
			for k := 0; k < 3; k++ {
				if n > 1 {
					i := rng.Intn(n - 1)
					out[i], out[i+1] = out[i+1], out[i]
				}
			}
			return out
		},
		"skewed": func(n int) []float64 {
			out := random(n)
			if n > 0 {
				out[rng.Intn(n)] = 1e12
			}
			return out
		},
		"span_overflow": mixIn(math.MaxFloat64, -math.MaxFloat64),
		"infinities":    mixIn(math.Inf(1), math.Inf(-1)),
		"all_equal": func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = 0.25
			}
			return out
		},
	}
	// distributes says whether the distribution pass must bucket a support
	// of the generator at n ≥ 31; absent generators may go either way.
	distributes := map[string]bool{
		"random": true, "skewed": true, "duplicates": true,
		"span_overflow": false, "infinities": false, "all_equal": false,
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	identity := func(n int) []int {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		return perm
	}
	var sc sortScratch
	for name, gen := range gens {
		for _, n := range []int{0, 1, 2, 31, 32, 94, 374, 1784, 4099} {
			vals := gen(n)
			wantV, wantP := stableReference(vals)
			for _, path := range []string{"sortWithPerm", "distribution+insertion", "insertion", "budgeted insertion+merge"} {
				got := slices.Clone(vals)
				perm := identity(n)
				switch path {
				case "sortWithPerm":
					sortWithPerm(got, perm, &sc)
				case "distribution+insertion":
					if n < 2 {
						continue
					}
					ok := distribute(got, perm, &sc)
					if want, pinned := distributes[name]; pinned && n >= 31 && ok != want {
						t.Fatalf("%s n=%d: distribute = %v, want %v", name, n, ok, want)
					}
					if !ok && (!slices.Equal(perm, identity(n)) || !slices.EqualFunc(got, vals, same)) {
						t.Fatalf("%s n=%d: a declined distribution moved values", name, n)
					}
					insertionWithPerm(got, perm, math.MaxInt)
				case "insertion":
					if !insertionWithPerm(got, perm, math.MaxInt) {
						t.Fatalf("%s n=%d: unbounded insertion gave up", name, n)
					}
				case "budgeted insertion+merge":
					if n < 2 {
						continue
					}
					if distributes[name] {
						distribute(got, perm, &sc)
					}
					finished := insertionWithPerm(got, perm, insertionBudget*n)
					if name == "skewed" && n >= 94 && finished {
						t.Fatalf("skewed n=%d: the far outlier did not exhaust the insertion budget", n)
					}
					if !finished {
						mergeWithPerm(got, perm, &sc)
					}
				}
				for k := range got {
					if !same(got[k], wantV[k]) || perm[k] != wantP[k] {
						t.Fatalf("%s %s n=%d: position %d holds %v (from %d), want %v (from %d)",
							path, name, n, k, got[k], perm[k], wantV[k], wantP[k])
					}
				}
			}
		}
	}
}

// assertStableSupports checks each support of env bit for bit against a
// stable comparison sort of the same support built in sample order.
func assertStableSupports(t *testing.T, env ecdf.Envelope, means, vars []float64, zAlpha float64, ctx string) {
	t.Helper()
	n := env.Mean.Len()
	mean := make([]float64, n)
	lower := make([]float64, n)
	upper := make([]float64, n)
	for i := 0; i < n; i++ {
		mean[i] = means[i]
		lower[i] = means[i] - zAlpha*math.Sqrt(vars[i])
		upper[i] = means[i] + zAlpha*math.Sqrt(vars[i])
	}
	for _, p := range []struct {
		name     string
		got, raw []float64
	}{{"mean", env.Mean.Values(), mean}, {"lower", env.Lower.Values(), lower}, {"upper", env.Upper.Values(), upper}} {
		want, _ := stableReference(p.raw)
		for i := range want {
			if math.Float64bits(p.got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: %s support[%d] = %v, stable sort gives %v", ctx, p.name, i, p.got[i], want[i])
			}
		}
	}
}

// descentsInMeanOrder counts the descents of the lower support written in
// the sorted mean's order: how far from sorted envelopeOf's side sorts start.
func descentsInMeanOrder(s *envScratch, means, vars []float64, zAlpha float64) int {
	d := 0
	prev := math.Inf(-1)
	for _, i := range s.permM[:s.permN] {
		v := means[i] - zAlpha*math.Sqrt(vars[i])
		if v < prev {
			d++
		}
		prev = v
	}
	return d
}

// TestMeanSeededEnvelopeMatchesStableSort pins the lower and upper supports
// written in the sorted mean's order to stable sorts of the supports in
// sample order: on a fresh heteroscedastic 1784-sample tuple (distributed
// mean, nearly sorted sides), on the tuning loop's re-sorts, and on frozen
// smooth 2-D tuples, whose band offsets vary enough across samples that the
// mean order is a poor start for the sides.
func TestMeanSeededEnvelopeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const m = 1784
	means := make([]float64, m)
	vars := make([]float64, m)
	for i := range means {
		means[i] = 4 + rng.NormFloat64()
		vars[i] = 1e-4 * (1 + rng.Float64())
	}
	var s envScratch
	for round := 0; round < 3; round++ {
		env := s.envelopeOf(means, vars, 2.4, m)
		assertStableSupports(t, env, means, vars, 2.4, "fresh tuple, then tuning re-sorts")
		for i := range means {
			means[i] += rng.NormFloat64() * 1e-3
		}
	}

	e := goldenSmoothModel(t, 0.2)
	fc, err := e.CloneFrozen()
	if err != nil {
		t.Fatal(err)
	}
	worst := 0
	for k, in := range smoothInputs(t, 17, 6) {
		samples := make([][]float64, fc.SampleBudget())
		for i := range samples {
			samples[i] = in.SampleVec(rng, nil)
		}
		predict, err := fc.predictLocalForBench(samples)
		if err != nil {
			t.Fatal(err)
		}
		means := make([]float64, len(samples))
		vars := make([]float64, len(samples))
		predict(means, vars)
		zA := fc.zAlpha(rtree.BoundingBox(samples))
		var s envScratch
		env := s.envelopeOf(means, vars, zA, len(samples))
		assertStableSupports(t, env, means, vars, zA, fmt.Sprintf("smooth2d tuple %d", k))
		worst = max(worst, descentsInMeanOrder(&s, means, vars, zA))
	}
	if worst == 0 {
		t.Fatal("every smooth2d lower support was already in mean order; the case exercises nothing")
	}
	t.Logf("smooth2d: up to %d lower-support descents in mean order", worst)
}
