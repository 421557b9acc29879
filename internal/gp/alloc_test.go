package gp

import (
	"math/rand"
	"testing"

	"olgapro/internal/kernel"
)

// buildGP returns an n-point model over [0,10]² for the allocation and
// benchmark suites.
func buildGP(tb testing.TB, n int) *GP {
	tb.Helper()
	rng := rand.New(rand.NewSource(31))
	g := New(kernel.NewSqExp(1, 1.5), 1e-6)
	for g.Len() < n {
		x := []float64{rng.Float64() * 10, rng.Float64() * 10}
		if err := g.Add(x, x[0]*x[0]+0.5*x[1]); err != nil {
			continue
		}
	}
	return g
}

// The scratch-based predict path is the per-sample hot loop of the whole
// system: it must not allocate at all in the steady state.
func TestPredictWithZeroAllocs(t *testing.T) {
	g := buildGP(t, 64)
	x := []float64{4.2, 5.7}
	var s Scratch
	g.PredictWith(&s, x) // warm the scratch
	if allocs := testing.AllocsPerRun(100, func() {
		g.PredictWith(&s, x)
	}); allocs != 0 {
		t.Fatalf("PredictWith allocates %.1f per run, want 0", allocs)
	}
}

// PredictBatch with caller-provided buffers (scratch + output slices) must
// be allocation-free across the whole batch.
func TestPredictBatchWithZeroAllocs(t *testing.T) {
	g := buildGP(t, 64)
	rng := rand.New(rand.NewSource(32))
	xs := make([][]float64, 200)
	for i := range xs {
		xs[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
	}
	means := make([]float64, len(xs))
	vars := make([]float64, len(xs))
	var s Scratch
	g.PredictBatchWith(&s, xs, means, vars) // warm the scratch
	if allocs := testing.AllocsPerRun(20, func() {
		g.PredictBatchWith(&s, xs, means, vars)
	}); allocs != 0 {
		t.Fatalf("PredictBatchWith allocates %.1f per run, want 0", allocs)
	}
}

// The scratch variants must agree exactly with the allocating forms.
func TestPredictWithMatchesPredict(t *testing.T) {
	g := buildGP(t, 48)
	rng := rand.New(rand.NewSource(33))
	var s Scratch
	for i := 0; i < 50; i++ {
		x := []float64{rng.Float64() * 10, rng.Float64() * 10}
		wm, wv := g.Predict(x)
		gm, gv := g.PredictWith(&s, x)
		if wm != gm || wv != gv {
			t.Fatalf("PredictWith(%v) = (%g,%g), Predict = (%g,%g)", x, gm, gv, wm, wv)
		}
	}
}

// Concurrent prediction with per-goroutine scratch must match sequential
// results (read-only model, caller-owned buffers).
func TestPredictWithConcurrent(t *testing.T) {
	g := buildGP(t, 48)
	rng := rand.New(rand.NewSource(34))
	xs := make([][]float64, 64)
	want := make([]float64, len(xs))
	for i := range xs {
		xs[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
		want[i], _ = g.Predict(xs[i])
	}
	const workers = 4
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			var s Scratch
			for i := w; i < len(xs); i += workers {
				if m, _ := g.PredictWith(&s, xs[i]); m != want[i] {
					done <- errAt(i)
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type errAt int

func (e errAt) Error() string { return "concurrent predict mismatch" }

// BenchmarkGrad tracks the gradient-only path used every Train iteration.
func BenchmarkGrad(b *testing.B) {
	g := buildGP(b, 300)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Grad()
	}
}
