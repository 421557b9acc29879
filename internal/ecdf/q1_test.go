package ecdf_test

import (
	"math"
	"math/rand"
	"testing"

	"olgapro/internal/astro"
	"olgapro/internal/core"
	"olgapro/internal/dist"
	"olgapro/internal/ecdf"
	"olgapro/internal/kernel"
	"olgapro/internal/sdss"
)

// The support-only bound must return the two-stream form's bits on real
// paper-query Q1 envelopes: three 1784-point supports from a frozen
// galaxy-age model, at the evaluator's own λ and around it.
func TestDiscrepancyBoundMatchesTwoStreamQ1(t *testing.T) {
	ev, err := core.NewEvaluator(astro.GalAgeFunc(astro.Default()), core.Config{
		Eps: 0.1, Delta: 0.05, Kernel: kernel.NewSqExp(4, 0.3),
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, g := range sdss.Generate(sdss.GenerateConfig{N: 32, Seed: 0}).Galaxies {
		if _, err := ev.Eval(dist.NewIndependent(g.RedshiftDist()), rng); err != nil {
			t.Fatal(err)
		}
	}
	fc, err := ev.CloneFrozen()
	if err != nil {
		t.Fatal(err)
	}
	var s ecdf.BoundScratch
	compared := 0
	for i, g := range sdss.Generate(sdss.GenerateConfig{N: 8, Seed: 7}).Galaxies {
		out, err := fc.Eval(dist.NewIndependent(g.RedshiftDist()), rand.New(rand.NewSource(int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		if out.Envelope == nil {
			continue
		}
		if n := out.Envelope.Mean.Len(); n != 1784 {
			t.Fatalf("tuple %d: envelope support %d, want 1784", i, n)
		}
		env, lam := *out.Envelope, out.Lambda
		for _, lambda := range []float64{lam, 0, 1e-12, -lam, lam / 7, 3 * lam} {
			got, want := env.DiscrepancyBoundWith(&s, lambda), ecdf.DiscrepancyBoundTwoStream(env, lambda)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("tuple %d λ=%g: bound %v, two-stream %v", i, lambda, got, want)
			}
		}
		compared++
	}
	if compared == 0 {
		t.Fatal("no tuple returned an envelope")
	}
}
