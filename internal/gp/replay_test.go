package gp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"olgapro/internal/kernel"
)

// TestReplayMatchesAddLoop pins Replay to the Add loop it replaces: the same
// packed factor and the same α, bit for bit, for isotropic and ARD kernels,
// at prefix lengths from 7 to 60 points.
func TestReplayMatchesAddLoop(t *testing.T) {
	for _, tc := range []struct {
		name string
		kern func() kernel.Kernel
	}{
		{"sqexp", func() kernel.Kernel { return kernel.NewSqExp(1.3, 0.9) }},
		{"matern52", func() kernel.Kernel { return kernel.NewMatern52(0.7, 1.4) }},
		{"sqexp-ard", func() kernel.Kernel { return kernel.NewSqExpARD(1.1, []float64{0.6, 2.2}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			var xs [][]float64
			var ys []float64
			add := New(tc.kern(), 1e-8)
			for n := 1; n <= 60; n++ {
				x := []float64{rng.Float64() * 6, rng.Float64() * 6}
				y := math.Sin(x[0]) * math.Cos(x[1])
				if err := add.Add(x, y); err != nil {
					t.Fatal(err)
				}
				xs, ys = append(xs, x), append(ys, y)
				if n%7 != 0 && n != 60 {
					continue
				}
				rep, err := Replay(tc.kern(), 1e-8, xs, ys)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Len() != add.Len() || rep.chol.L().Rows() != add.chol.L().Rows() {
					t.Fatalf("n=%d: replay holds %d points (factor %d), Add loop %d (%d)",
						n, rep.Len(), rep.chol.L().Rows(), add.Len(), add.chol.L().Rows())
				}
				for i := 0; i < n; i++ {
					ra, aa := rep.chol.LRow(i), add.chol.LRow(i)
					for j := range ra {
						if math.Float64bits(ra[j]) != math.Float64bits(aa[j]) {
							t.Fatalf("n=%d: factor L[%d][%d] = %x, Add loop %x", n, i, j, ra[j], aa[j])
						}
					}
					if math.Float64bits(rep.Alpha()[i]) != math.Float64bits(add.Alpha()[i]) {
						t.Fatalf("n=%d: α[%d] = %x, Add loop %x", n, i, rep.Alpha()[i], add.Alpha()[i])
					}
				}
			}
		})
	}
}

// TestReplayCopiesPairs checks that Replay owns its training pairs: a
// caller reusing its slices afterwards cannot move the model.
func TestReplayCopiesPairs(t *testing.T) {
	xs := [][]float64{{0}, {1}, {2}}
	ys := []float64{0, 1, 4}
	g, err := Replay(kernel.NewSqExp(1, 1), 0, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	m0, v0 := g.Predict([]float64{1.5})
	xs[1][0], ys[2] = 7, -3
	if m, v := g.Predict([]float64{1.5}); m != m0 || v != v0 || g.X(1)[0] != 1 || g.Y(2) != 4 {
		t.Fatal("changing the caller's slices after Replay moved the model")
	}
}

// TestReplayRejectsDuplicates reports the failing point like Add does.
func TestReplayRejectsDuplicates(t *testing.T) {
	xs := [][]float64{{0}, {1}, {1}}
	_, err := Replay(kernel.NewSqExp(1, 1), 1e-300, xs, []float64{0, 1, 1})
	if !errors.Is(err, ErrDuplicatePoint) {
		t.Fatalf("duplicate replay: %v, want ErrDuplicatePoint", err)
	}
	if _, err := Replay(kernel.NewSqExp(1, 1), 0, xs, []float64{0}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

// TestReplayMatchesJitteredRefitThenAdds pins the one factorization rule
// where it matters most: a refit whose points need diagonal jitter,
// followed by Adds under that jitter, is rebuilt by Replay over the same
// pairs with the same jitter, factor and α, bit for bit. Replay is never
// told the jitter; the points determine it.
func TestReplayMatchesJitteredRefitThenAdds(t *testing.T) {
	kern := func() kernel.Kernel {
		k := kernel.NewSqExp(1, 1)
		k.SetParams([]float64{9, 2})
		return k
	}
	rng := rand.New(rand.NewSource(3))
	var xs [][]float64
	var ys []float64
	for range 60 {
		x := []float64{5 * rng.Float64(), 5 * rng.Float64()}
		xs, ys = append(xs, x), append(ys, math.Sin(x[0])+x[1]*x[1])
	}
	g := New(kern(), 1e-8)
	if err := g.AddBatch(xs[:40], ys[:40]); err != nil {
		t.Fatal(err)
	}
	if g.jitter == 0 {
		t.Fatal("the refit needed no jitter; the case no longer covers a jittered factor")
	}
	for i := 40; i < 60; i++ {
		if err := g.Add(xs[i], ys[i]); err != nil && !errors.Is(err, ErrDuplicatePoint) {
			t.Fatal(err)
		}
	}
	if g.Len() == 40 {
		t.Fatal("no Add extended the jittered factor")
	}
	rep, err := Replay(kern(), 1e-8, g.Inputs(), g.Outputs())
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(rep.jitter) != math.Float64bits(g.jitter) {
		t.Fatalf("replay jitter %g, learner %g", rep.jitter, g.jitter)
	}
	if rep.chol.L().Rows() != g.chol.L().Rows() {
		t.Fatalf("replay factor %d, learner %d", rep.chol.L().Rows(), g.chol.L().Rows())
	}
	for i := 0; i < g.Len(); i++ {
		ra, ga := rep.chol.LRow(i), g.chol.LRow(i)
		for j := range ra {
			if math.Float64bits(ra[j]) != math.Float64bits(ga[j]) {
				t.Fatalf("factor L[%d][%d] = %x, learner %x", i, j, ra[j], ga[j])
			}
		}
		if math.Float64bits(rep.Alpha()[i]) != math.Float64bits(g.Alpha()[i]) {
			t.Fatalf("α[%d] = %x, learner %x", i, rep.Alpha()[i], g.Alpha()[i])
		}
	}
}
