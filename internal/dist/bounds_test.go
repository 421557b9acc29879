package dist

import (
	"math"
	"math/rand"
	"testing"
)

// script is a rand.Source replaying fixed Int63 values, then zeros.
type script []int64

func (s *script) Int63() int64 {
	if len(*s) == 0 {
		return 0
	}
	v := (*s)[0]
	*s = (*s)[1:]
	return v
}

func (*script) Seed(int64) {}

// extremeNormal drives rand.NormFloat64 into its base-strip tail with the
// smallest nonzero uniform (Int63 = 1) and an infinite acceptance draw
// (Int63 = 0): the largest finite value it can return.
func extremeNormal() *rand.Rand {
	s := script{0x7FFFFF80 << 31, 1, 0} // j: strip 0, past kn[0]; u₁ = 2⁻⁶³; u₂ = 0
	return rand.New(&s)
}

// extremeExp drives rand.ExpFloat64 into its tail with the smallest nonzero
// uniform: the largest finite value it can return.
func extremeExp() *rand.Rand {
	s := script{0xFFFFFF00 << 31, 1} // j: strip 0, past ke[0]; u = 2⁻⁶³
	return rand.New(&s)
}

func TestVariateBoundsCoverLargestDraw(t *testing.T) {
	z := extremeNormal().NormFloat64()
	if !(z > 16 && z <= maxNormVariate) {
		t.Fatalf("largest NormFloat64 draw %v, bound %v", z, maxNormVariate)
	}
	e := extremeExp().ExpFloat64()
	if !(e > 51 && e <= maxExpVariate) {
		t.Fatalf("largest ExpFloat64 draw %v, bound %v", e, maxExpVariate)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200000; i++ {
		if z := math.Abs(rng.NormFloat64()); z > maxNormVariate {
			t.Fatalf("NormFloat64 drew %v", z)
		}
		if e := rng.ExpFloat64(); e > maxExpVariate {
			t.Fatalf("ExpFloat64 drew %v", e)
		}
	}
}

func TestSamplesFinite(t *testing.T) {
	const max = math.MaxFloat64
	mix := func(comps ...Dist) Dist {
		m, err := NewMixture(nil, comps...)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cases := []struct {
		d    Dist
		want bool
	}{
		{Normal{Mu: 3, Sigma: 1}, true},
		{Normal{Mu: 3, Sigma: max / 16.3}, true},
		{Normal{Mu: 3, Sigma: 1e308}, false},
		{Normal{Mu: max, Sigma: 1e300}, false},
		{Normal{Mu: -max / 2, Sigma: max / 40}, true},
		{Uniform{A: -max / 2, B: max / 2}, true},
		{Uniform{A: -max, B: 0}, false},
		{Uniform{A: 0, B: max}, false},
		{Gamma{K: 2, Theta: 1, Loc: -5}, true},
		{Gamma{K: 0.3, Theta: 1e300}, true},
		{Gamma{K: 1e300, Theta: 1e10}, false},
		{Gamma{K: 2, Theta: max / 2}, false},
		{Gamma{K: 2, Theta: 1, Loc: max}, true}, // Loc + a few rounds to Loc
		{Gamma{K: 2, Theta: 1e300, Loc: max}, false},
		{Exponential{Rate: 3}, true},
		{Exponential{Rate: 1e-306}, true},
		{Exponential{Rate: 1e-307}, false},
		{Constant{V: max}, true},
		{Constant{V: math.Inf(1)}, false},
		{mix(Normal{Sigma: 1}, Constant{V: 2}), true},
		{mix(Normal{Sigma: 1}, Exponential{Rate: 1e-308}), false},
	}
	for _, c := range cases {
		if got := SamplesFinite(c.d); got != c.want {
			t.Errorf("SamplesFinite(%+v) = %v, want %v", c.d, got, c.want)
		}
		if !c.want {
			continue
		}
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 2000; i++ {
			if x := c.d.Sample(rng); math.IsInf(x, 0) || math.IsNaN(x) {
				t.Fatalf("%+v drew %v", c.d, x)
			}
		}
	}
	// At the largest draws the refusals are real and the admitted edges
	// hold.
	if x := (Normal{Mu: 3, Sigma: 1e308}).Sample(extremeNormal()); !math.IsInf(x, 1) {
		t.Errorf("refused normal draws %v at the largest variate, want +Inf", x)
	}
	if x := (Normal{Mu: 3, Sigma: max / 16.3}).Sample(extremeNormal()); math.IsInf(x, 0) {
		t.Errorf("admitted normal draws %v at the largest variate", x)
	}
	if x := (Exponential{Rate: 1e-307}).Sample(extremeExp()); !math.IsInf(x, 1) {
		t.Errorf("refused exponential draws %v at the largest variate, want +Inf", x)
	}
	if x := (Exponential{Rate: 1e-306}).Sample(extremeExp()); math.IsInf(x, 0) {
		t.Errorf("admitted exponential draws %v at the largest variate", x)
	}
}
