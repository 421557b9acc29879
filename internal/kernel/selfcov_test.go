package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// TestSelfCovBitIdenticalToEval is SelfCov's contract: for every kernel,
// every point and every hyperparameter setting, including ones where Eval's
// distance-0 arithmetic is not exactly σ_f² (non-finite coordinates, ℓ²
// underflowing to 0, σ_f² overflowing or underflowing), SelfCov and the
// SelfCoverOf loop form return Eval(x, x)'s bits.
func TestSelfCovBitIdenticalToEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type hyper struct{ sigmaF, len float64 }
	hypers := []hyper{
		{1.3, 0.7}, {1, 1e-170}, {1, 1e170}, {1e200, 0.8}, {1e-200, 0.8},
		{1e200, 1e-170}, {1e-200, 1e170}, {2, math.SmallestNonzeroFloat64}, {2, math.MaxFloat64},
	}
	nonFinite := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, d := range []int{1, 2, 3} {
		var points [][]float64
		points = append(points, randPoints(rng, 16, d)...)
		for _, v := range nonFinite {
			for j := 0; j < d; j++ {
				p := randPoints(rng, 1, d)[0]
				p[j] = v
				points = append(points, p)
			}
		}
		for _, h := range hypers {
			lens := make([]float64, d)
			for j := range lens {
				lens[j] = h.len * float64(j+1)
			}
			kernels := map[string]Kernel{
				"sqexp":    NewSqExp(h.sigmaF, h.len),
				"matern32": NewMatern32(h.sigmaF, h.len),
				"matern52": NewMatern52(h.sigmaF, h.len),
				"ard":      NewSqExpARD(h.sigmaF, lens),
			}
			for name, k := range kernels {
				sc, ok := k.(SelfCoverer)
				if !ok {
					t.Fatalf("%s does not implement SelfCoverer", name)
				}
				loop := SelfCoverOf(k)
				for _, x := range points {
					want := math.Float64bits(k.Eval(x, x))
					for form, got := range map[string]float64{
						"method":      sc.SelfCov(x),
						"SelfCov":     SelfCov(k, x),
						"SelfCoverOf": loop.SelfCov(x),
					} {
						if math.Float64bits(got) != want {
							t.Fatalf("%s σf=%g ℓ=%g x=%v: %s gives %v (%#x), Eval(x, x) gives %v (%#x)",
								name, h.sigmaF, h.len, x, form, got, math.Float64bits(got), k.Eval(x, x), want)
						}
					}
				}
			}
		}
	}
}

// TestSelfCovFallback checks that a kernel without the shortcut is answered
// by Eval(x, x) through both helpers.
func TestSelfCovFallback(t *testing.T) {
	k := scalarOnly{NewSqExp(1.3, 0.7)}
	x := []float64{0.25, -1}
	want := k.Eval(x, x)
	if got := SelfCov(k, x); got != want {
		t.Fatalf("SelfCov = %v, want %v", got, want)
	}
	if got := SelfCoverOf(k).SelfCov(x); got != want {
		t.Fatalf("SelfCoverOf = %v, want %v", got, want)
	}
}
