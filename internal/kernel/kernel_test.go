package kernel

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"olgapro/internal/mat"
)

func kernels() []Kernel {
	return []Kernel{
		NewSqExp(1.3, 0.8),
		NewMatern32(0.9, 1.4),
		NewMatern52(1.1, 0.6),
	}
}

func randomPoints(rng *rand.Rand, n, d int) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = make([]float64, d)
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64() * 3
		}
	}
	return xs
}

func TestKernelBasicProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range kernels() {
		name := k.String()
		x := []float64{0.3, -1.2}
		y := []float64{1.1, 0.4}
		// Symmetry.
		if k.Eval(x, y) != k.Eval(y, x) {
			t.Errorf("%s: k(x,y) ≠ k(y,x)", name)
		}
		// Diagonal dominance: k(x,x) = σf² ≥ k(x,y).
		if k.Eval(x, x) < k.Eval(x, y) {
			t.Errorf("%s: k(x,x) < k(x,y)", name)
		}
		// Decay with distance.
		far := []float64{100, 100}
		if k.Eval(x, far) > 1e-6 {
			t.Errorf("%s: no decay at distance: %g", name, k.Eval(x, far))
		}
		// Positive everywhere.
		for trial := 0; trial < 20; trial++ {
			a := []float64{rng.NormFloat64(), rng.NormFloat64()}
			b := []float64{rng.NormFloat64(), rng.NormFloat64()}
			if k.Eval(a, b) <= 0 {
				t.Errorf("%s: non-positive covariance", name)
			}
		}
	}
}

func TestGramIsPSD(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, k := range kernels() {
		xs := randomPoints(rng, 20, 3)
		g := Gram(k, xs)
		// Symmetric.
		for i := 0; i < g.Rows(); i++ {
			for j := 0; j < i; j++ {
				if math.Abs(g.At(i, j)-g.At(j, i)) > 1e-14 {
					t.Errorf("%s: Gram not symmetric at (%d,%d)", k.String(), i, j)
				}
			}
		}
		// PSD: Cholesky with tiny jitter must succeed.
		var c mat.Cholesky
		if _, err := c.FactorizeJittered(g, 1e-10, 8); err != nil {
			t.Errorf("%s: Gram not PSD: %v", k.String(), err)
		}
	}
}

func TestParamsRoundTrip(t *testing.T) {
	for _, k := range kernels() {
		p := k.Params(nil)
		if len(p) != k.NumParams() {
			t.Fatalf("%s: params len %d ≠ %d", k.String(), len(p), k.NumParams())
		}
		before := k.Eval([]float64{1}, []float64{2})
		k.SetParams(p)
		after := k.Eval([]float64{1}, []float64{2})
		if math.Abs(before-after) > 1e-12 {
			t.Errorf("%s: params round trip changed kernel: %g → %g", k.String(), before, after)
		}
	}
}

// TestSetParamsParamsIdentity pins the round trip every clone and restore
// takes: after SetParams(p), Params returns p exactly, so a kernel rebuilt
// from Params — once or any number of times — holds bit-identical
// hyperparameters. Plain exp/log would drift by an ulp for many p.
func TestSetParamsParamsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	all := append(kernels(), NewSqExpARD(1, []float64{1, 2, 3}))
	drifted := 0
	for _, k := range all {
		for trial := 0; trial < 200; trial++ {
			p := make([]float64, k.NumParams())
			for j := range p {
				p[j] = rng.NormFloat64() * 3
				if math.Log(math.Exp(p[j])) != p[j] {
					drifted++
				}
			}
			k.SetParams(p)
			got := k.Params(nil)
			for j := range p {
				if got[j] != p[j] {
					t.Fatalf("%s: Params()[%d] = %v after SetParams(%v)", k, j, got[j], p[j])
				}
			}
			before := k.Clone()
			k.SetParams(k.Params(nil))
			x, y := []float64{0.1}, []float64{0.7}
			if ard, ok := k.(*SqExpARD); ok {
				x, y = randomPoints(rng, 1, ard.Dim())[0], randomPoints(rng, 1, ard.Dim())[0]
			}
			if k.Eval(x, y) != before.Eval(x, y) {
				t.Fatalf("%s: SetParams(Params()) changed the kernel", k)
			}
			if got := before.Params(nil); got[0] != p[0] {
				t.Fatalf("%s: Clone lost the set parameters", k)
			}
		}
	}
	if drifted == 0 {
		t.Fatal("no drawn parameter exercises the exp/log drift")
	}
	// A hyperparameter assigned directly falls back to its logarithm.
	k := NewSqExp(1, 1)
	k.SetParams([]float64{0.3, 0.4})
	k.Len = 2
	if got := k.Params(nil); got[0] != 0.3 || got[1] != math.Log(2) {
		t.Fatalf("Params after direct assignment = %v", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	k := NewSqExp(1, 1)
	c := k.Clone()
	k.SetParams([]float64{math.Log(5), math.Log(5)})
	if c.Eval([]float64{0}, []float64{0}) != 1 {
		t.Errorf("Clone shares state")
	}
}

// Finite-difference validation of analytic gradients and diagonal Hessians.
func TestParamGradFiniteDifference(t *testing.T) {
	x := []float64{0.5, -0.3}
	y := []float64{1.2, 0.7}
	const h = 1e-5
	for _, k := range kernels() {
		name := k.String()
		np := k.NumParams()
		grad := make([]float64, np)
		hess := make([]float64, np)
		k.ParamGrad(x, y, grad, hess)
		base := k.Params(nil)
		for j := 0; j < np; j++ {
			perturb := func(delta float64) float64 {
				p := append([]float64(nil), base...)
				p[j] += delta
				kc := k.Clone()
				kc.SetParams(p)
				return kc.Eval(x, y)
			}
			fp, fm, f0 := perturb(h), perturb(-h), perturb(0)
			fdGrad := (fp - fm) / (2 * h)
			fdHess := (fp - 2*f0 + fm) / (h * h)
			if math.Abs(fdGrad-grad[j]) > 1e-6*(1+math.Abs(fdGrad)) {
				t.Errorf("%s: grad[%d] = %g, finite diff %g", name, j, grad[j], fdGrad)
			}
			if math.Abs(fdHess-hess[j]) > 1e-4*(1+math.Abs(fdHess)) {
				t.Errorf("%s: hess[%d] = %g, finite diff %g", name, j, hess[j], fdHess)
			}
		}
	}
}

// Finite-difference validation of the second spectral moment:
// λ₂ = −r″(0) with r(t) = k(t)/k(0) along one axis.
func TestSecondSpectralMoment(t *testing.T) {
	const h = 1e-4
	for _, k := range kernels() {
		name := k.String()
		origin := []float64{0}
		at := func(t float64) float64 { return k.Eval(origin, []float64{t}) }
		k0 := at(0)
		// Central second difference of r(t) at 0 (r is even, so r(h)=r(−h)).
		rpp := (at(h) - 2*k0 + at(h)) / (h * h) / k0
		got := k.SecondSpectralMoment()
		if math.Abs(-rpp-got) > 1e-2*(1+got) {
			t.Errorf("%s: spectral moment %g, finite diff %g", name, got, -rpp)
		}
	}
}

func TestCrossAndCrossVec(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	k := NewSqExp(1, 1)
	xs := randomPoints(rng, 4, 2)
	ys := randomPoints(rng, 3, 2)
	c := Cross(k, xs, ys)
	if r, co := c.Dims(); r != 4 || co != 3 {
		t.Fatalf("Cross dims %d×%d", r, co)
	}
	for i := range xs {
		for j := range ys {
			if c.At(i, j) != k.Eval(xs[i], ys[j]) {
				t.Fatalf("Cross(%d,%d) mismatch", i, j)
			}
		}
	}
	v := CrossVec(k, xs, ys[0], nil)
	for i := range xs {
		if v[i] != c.At(i, 0) {
			t.Fatalf("CrossVec mismatch at %d", i)
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewSqExp(0, 1) },
		func() { NewSqExp(1, -1) },
		func() { NewMatern32(0, 1) },
		func() { NewMatern52(1, 0) },
		func() { NewSqExp(1, 1).SetParams([]float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestStringContainsParams(t *testing.T) {
	k := NewSqExp(2, 3)
	s := k.String()
	if !strings.Contains(s, "SqExp") || !strings.Contains(s, "2") || !strings.Contains(s, "3") {
		t.Errorf("String = %q", s)
	}
}

// Property: quadratic forms of Gram matrices are non-negative (PSD-ness)
// for random points and coefficient vectors.
func TestQuickGramQuadraticNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := kernels()[rng.Intn(3)]
		n := 2 + rng.Intn(10)
		xs := randomPoints(rng, n, 1+rng.Intn(3))
		g := Gram(k, xs)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		quad := mat.Dot(v, g.MulVec(v))
		return quad >= -1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: lengthscale ordering — longer lengthscales keep covariance
// higher at any fixed distance.
func TestQuickLengthscaleMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		t0 := math.Abs(rng.NormFloat64()) + 0.01
		l1 := 0.1 + rng.Float64()
		l2 := l1 + 0.1 + rng.Float64()
		x, y := []float64{0}, []float64{t0}
		for _, pair := range [][2]Kernel{
			{NewSqExp(1, l1), NewSqExp(1, l2)},
			{NewMatern32(1, l1), NewMatern32(1, l2)},
			{NewMatern52(1, l1), NewMatern52(1, l2)},
		} {
			if pair[0].Eval(x, y) > pair[1].Eval(x, y)+1e-14 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSqExpEval(b *testing.B) {
	k := NewSqExp(1, 1)
	x := []float64{1, 2, 3, 4}
	y := []float64{0, 1, 2, 3}
	for i := 0; i < b.N; i++ {
		k.Eval(x, y)
	}
}

func BenchmarkGram100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	k := NewSqExp(1, 1)
	xs := randomPoints(rng, 100, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gram(k, xs)
	}
}
