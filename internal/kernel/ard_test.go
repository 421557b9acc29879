package kernel

import (
	"math"
	"math/rand"
	"testing"

	"olgapro/internal/mat"
)

func TestARDMatchesIsotropicWhenEqual(t *testing.T) {
	iso := NewSqExp(1.3, 0.8)
	ard := NewSqExpARD(1.3, []float64{0.8, 0.8, 0.8})
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		y := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		if got, want := ard.Eval(x, y), iso.Eval(x, y); math.Abs(got-want) > 1e-14 {
			t.Fatalf("ARD %g ≠ iso %g", got, want)
		}
	}
}

func TestARDAnisotropy(t *testing.T) {
	// Short lengthscale on axis 0: moving along axis 0 decays covariance
	// much faster than moving along axis 1.
	k := NewSqExpARD(1, []float64{0.2, 5})
	origin := []float64{0, 0}
	along0 := k.Eval(origin, []float64{1, 0})
	along1 := k.Eval(origin, []float64{0, 1})
	if along0 >= along1 {
		t.Fatalf("axis-0 covariance %g should decay faster than axis-1 %g", along0, along1)
	}
}

func TestARDParamsRoundTrip(t *testing.T) {
	k := NewSqExpARD(2, []float64{0.5, 1.5})
	if k.NumParams() != 3 {
		t.Fatalf("NumParams = %d", k.NumParams())
	}
	p := k.Params(nil)
	before := k.Eval([]float64{1, 2}, []float64{0, 1})
	k.SetParams(p)
	if after := k.Eval([]float64{1, 2}, []float64{0, 1}); math.Abs(before-after) > 1e-14 {
		t.Fatal("round trip changed kernel")
	}
}

func TestARDParamGradFiniteDifference(t *testing.T) {
	k := NewSqExpARD(1.2, []float64{0.7, 1.3})
	x := []float64{0.4, -0.2}
	y := []float64{1.0, 0.5}
	np := k.NumParams()
	grad := make([]float64, np)
	hess := make([]float64, np)
	k.ParamGrad(x, y, grad, hess)
	base := k.Params(nil)
	const h = 1e-5
	for j := 0; j < np; j++ {
		at := func(delta float64) float64 {
			p := append([]float64(nil), base...)
			p[j] += delta
			kc := k.Clone()
			kc.SetParams(p)
			return kc.Eval(x, y)
		}
		fd := (at(h) - at(-h)) / (2 * h)
		if math.Abs(fd-grad[j]) > 1e-6*(1+math.Abs(fd)) {
			t.Errorf("grad[%d] = %g, fd %g", j, grad[j], fd)
		}
		fdH := (at(h) - 2*at(0) + at(-h)) / (h * h)
		if math.Abs(fdH-hess[j]) > 1e-4*(1+math.Abs(fdH)) {
			t.Errorf("hess[%d] = %g, fd %g", j, hess[j], fdH)
		}
	}
}

func TestARDGramPSD(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	k := NewSqExpARD(1, []float64{0.5, 2, 1})
	xs := randomPoints(rng, 15, 3)
	g := Gram(k, xs)
	var c mat.Cholesky
	if _, err := c.FactorizeJittered(g, 1e-10, 8); err != nil {
		t.Fatalf("ARD Gram not PSD: %v", err)
	}
}

func TestARDSpectralMomentConservative(t *testing.T) {
	k := NewSqExpARD(1, []float64{0.5, 2})
	// Most conservative axis is ℓ=0.5 → λ₂ = 4.
	if got := k.SecondSpectralMoment(); math.Abs(got-4) > 1e-12 {
		t.Fatalf("λ₂ = %g, want 4", got)
	}
}

func TestARDCloneIndependent(t *testing.T) {
	k := NewSqExpARD(1, []float64{1, 1})
	c := k.Clone().(*SqExpARD)
	k.Lens[0] = 99
	if c.Lens[0] != 1 {
		t.Fatal("Clone shares lengthscales")
	}
}

func TestARDValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewSqExpARD(0, []float64{1}) },
		func() { NewSqExpARD(1, nil) },
		func() { NewSqExpARD(1, []float64{0}) },
		func() { NewSqExpARD(1, []float64{1}).SetParams([]float64{1, 2, 3}) },
		func() { NewSqExpARD(1, []float64{1, 1}).Eval([]float64{1}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
