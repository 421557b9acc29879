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
				if rep.Len() != add.Len() || rep.chol.Size() != add.chol.Size() {
					t.Fatalf("n=%d: replay holds %d points (factor %d), Add loop %d (%d)",
						n, rep.Len(), rep.chol.Size(), add.Len(), add.chol.Size())
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
