package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"olgapro/internal/astro"
	"olgapro/internal/dist"
	"olgapro/internal/kernel"
	"olgapro/internal/sdss"
	"olgapro/internal/udf"
)

// The digests below fence the bits every frozen answer is made of. A change
// to the envelope sort, the λ-discrepancy bound, GP prediction, or sampling
// that moves any served byte moves one of them; a pure performance change
// must leave all of them untouched.
const (
	goldenGalage01     = 0x4c73787e9ee30323
	goldenSmooth02     = 0x74a9ac89740e545c
	goldenSmooth04     = 0x7072c2cba9040c05
	goldenLearnGalage  = 0xfea84708256d5e01
	goldenFrozenTuples = 128
)

// digestFloats folds the IEEE-754 bits of vs into h.
func digestFloats(h hash.Hash64, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// frozenDigest evaluates every input on one frozen clone of ev, each with
// its own seeded rng, and digests the returned distribution, the envelope's
// lower and upper supports, and the total Bound.
func frozenDigest(t *testing.T, ev *Evaluator, inputs []dist.Vector) uint64 {
	t.Helper()
	fc, err := ev.CloneFrozen()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for i, in := range inputs {
		out, err := fc.Eval(in, rand.New(rand.NewSource(int64(1000+i))))
		if err != nil {
			t.Fatal(err)
		}
		if out.Dist == nil || out.Envelope == nil {
			t.Fatalf("tuple %d: frozen output has no distribution", i)
		}
		digestFloats(h, out.Dist.Values()...)
		digestFloats(h, out.Envelope.Lower.Values()...)
		digestFloats(h, out.Envelope.Upper.Values()...)
		digestFloats(h, out.Bound)
	}
	return h.Sum64()
}

// goldenGalageModel learns Q1's galaxy-age UDF at ε=0.1 over a fixed
// catalog and returns the evaluator with a digest of the learning run: each
// tuple's UDF calls and Bound, and the final training set.
func goldenGalageModel(t *testing.T) (*Evaluator, uint64) {
	t.Helper()
	ev, err := NewEvaluator(astro.GalAgeFunc(astro.Default()), Config{
		Eps: 0.1, Delta: 0.05, Kernel: kernel.NewSqExp(4, 0.3),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	rng := rand.New(rand.NewSource(1))
	for _, g := range sdss.Generate(sdss.GenerateConfig{N: 48, Seed: 0}).Galaxies {
		out, err := ev.Eval(dist.NewIndependent(g.RedshiftDist()), rng)
		if err != nil {
			t.Fatal(err)
		}
		digestFloats(h, float64(out.UDFCalls), out.Bound)
	}
	m := ev.Model()
	for i := 0; i < m.Len(); i++ {
		digestFloats(h, m.X(i)...)
		digestFloats(h, m.Y(i))
	}
	return ev, h.Sum64()
}

// galageHeldOut draws frozen Q1 inputs from a second catalog.
func galageHeldOut(n int) []dist.Vector {
	var out []dist.Vector
	for _, g := range sdss.Generate(sdss.GenerateConfig{N: 4 * n, Seed: 7}).Galaxies {
		if len(out) == n {
			break
		}
		if g.Redshift > 0.05 && g.Redshift < 0.3 {
			out = append(out, dist.NewIndependent(g.RedshiftDist()))
		}
	}
	return out
}

// smoothInputs draws n isotropic Gaussian 2-D tuples around [0.3, 0.7]².
func smoothInputs(t *testing.T, seed int64, n int) []dist.Vector {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]dist.Vector, n)
	for i := range out {
		v, err := dist.IsoGaussianVec([]float64{0.3 + 0.4*rng.Float64(), 0.3 + 0.4*rng.Float64()}, 0.15)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}

// goldenSmoothModel learns the smooth 2-D test UDF at the given ε.
func goldenSmoothModel(t *testing.T, eps float64) *Evaluator {
	t.Helper()
	ev, err := NewEvaluator(udf.FuncOf{D: 2, F: func(x []float64) float64 {
		return x[0]*x[0] + 0.5*x[1] + 0.3*x[0]*x[1]
	}}, Config{Eps: eps, Delta: 0.1, Kernel: kernel.NewSqExp(1, 0.5)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, in := range smoothInputs(t, 5, 24) {
		if _, err := ev.Eval(in, rng); err != nil {
			t.Fatal(err)
		}
	}
	return ev
}

// TestFrozenOutputsGolden pins FNV-64a digests of frozen answers — Q1's
// galaxy age at ε=0.1 (m≈1784, the radix sort path) and the smooth 2-D UDF
// at ε=0.2 and ε=0.4 (smaller m, the natural-merge path) — plus the UDF
// calls and training set of the seeded learning run behind the first.
func TestFrozenOutputsGolden(t *testing.T) {
	check := func(name string, got, want uint64) {
		t.Helper()
		if got != want {
			t.Errorf("%s digest = %#x, want %#x", name, got, want)
		}
	}
	galage, learn := goldenGalageModel(t)
	check("galage learning run", learn, goldenLearnGalage)
	check("galage ε=0.1", frozenDigest(t, galage, galageHeldOut(goldenFrozenTuples)), goldenGalage01)
	check("smooth2d ε=0.2", frozenDigest(t, goldenSmoothModel(t, 0.2), smoothInputs(t, 9, goldenFrozenTuples)), goldenSmooth02)
	check("smooth2d ε=0.4", frozenDigest(t, goldenSmoothModel(t, 0.4), smoothInputs(t, 9, goldenFrozenTuples)), goldenSmooth04)
}
