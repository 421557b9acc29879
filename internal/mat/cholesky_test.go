package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSPD returns a random symmetric positive definite n×n matrix
// A = BᵀB + n·I, which is comfortably well-conditioned.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	b := randomMatrix(rng, n, n)
	a := Mul(b.T(), b)
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	return a
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 5, 10, 25} {
		a := randomSPD(rng, n)
		var c Cholesky
		if err := c.Factorize(a); err != nil {
			t.Fatalf("n=%d: Factorize: %v", n, err)
		}
		recon := Mul(c.L(), c.L().T())
		if !Equal(recon, a, 1e-9*a.MaxAbs()) {
			t.Fatalf("n=%d: LLᵀ ≠ A", n)
		}
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	cases := []*Matrix{
		NewFromData(2, 2, []float64{1, 2, 2, 1}), // indefinite
		NewFromData(2, 2, []float64{0, 0, 0, 0}), // zero
		NewFromData(1, 1, []float64{-1}),         // negative
		NewFromData(2, 2, []float64{1, 1, 1, 1}), // singular
	}
	for i, a := range cases {
		var c Cholesky
		if err := c.Factorize(a); !errors.Is(err, ErrNotSPD) {
			t.Fatalf("case %d: error = %v, want ErrNotSPD", i, err)
		}
	}
}

func TestCholeskySolveResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{1, 4, 16, 64} {
		a := randomSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		var c Cholesky
		if err := c.Factorize(a); err != nil {
			t.Fatal(err)
		}
		x := c.SolveVec(b)
		res := a.MulVec(x)
		for i := range res {
			if !almostEqual(res[i], b[i], 1e-8*(1+math.Abs(b[i]))) {
				t.Fatalf("n=%d: residual[%d] = %g", n, i, res[i]-b[i])
			}
		}
	}
}

func TestCholeskyInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomSPD(rng, 8)
	var c Cholesky
	if err := c.Factorize(a); err != nil {
		t.Fatal(err)
	}
	inv := c.Inverse()
	if !Equal(Mul(a, inv), Identity(8), 1e-8) {
		t.Fatalf("A A⁻¹ ≠ I")
	}
	if !Equal(Mul(inv, a), Identity(8), 1e-8) {
		t.Fatalf("A⁻¹ A ≠ I")
	}
}

func TestCholeskyLogDet(t *testing.T) {
	// For a diagonal matrix the determinant is the product of the diagonal.
	a := NewFromData(3, 3, []float64{2, 0, 0, 0, 3, 0, 0, 0, 4})
	var c Cholesky
	if err := c.Factorize(a); err != nil {
		t.Fatal(err)
	}
	if got, want := c.LogDet(), math.Log(24); !almostEqual(got, want, 1e-12) {
		t.Fatalf("LogDet = %g, want %g", got, want)
	}
}

func TestCholeskyQuadratic(t *testing.T) {
	a := NewFromData(2, 2, []float64{2, 0, 0, 5})
	var c Cholesky
	if err := c.Factorize(a); err != nil {
		t.Fatal(err)
	}
	// bᵀ A⁻¹ b = 1²/2 + 2²/5.
	got := c.Quadratic([]float64{1, 2})
	want := 0.5 + 0.8
	if !almostEqual(got, want, 1e-12) {
		t.Fatalf("Quadratic = %g, want %g", got, want)
	}
}

func TestCholeskyExtendMatchesRefactorize(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 6
	full := randomSPD(rng, n+1)
	sub := New(n, n)
	for i := 0; i < n; i++ {
		copy(sub.Row(i), full.Row(i)[:n])
	}
	var inc Cholesky
	if err := inc.Factorize(sub); err != nil {
		t.Fatal(err)
	}
	k := make([]float64, n)
	for i := 0; i < n; i++ {
		k[i] = full.At(i, n)
	}
	if err := inc.Extend(k, full.At(n, n)); err != nil {
		t.Fatal(err)
	}
	var batch Cholesky
	if err := batch.Factorize(full); err != nil {
		t.Fatal(err)
	}
	if !Equal(inc.L(), batch.L(), 1e-9) {
		t.Fatalf("Extend factor ≠ batch factor")
	}
}

func TestCholeskyExtendFromEmpty(t *testing.T) {
	var c Cholesky
	if err := c.Extend(nil, 4); err != nil {
		t.Fatal(err)
	}
	if got := c.L().At(0, 0); !almostEqual(got, 2, 1e-15) {
		t.Fatalf("L(0,0) = %g, want 2", got)
	}
	if err := c.Extend([]float64{2}, 5); err != nil {
		t.Fatal(err)
	}
	// A = [4 2; 2 5] → L = [2 0; 1 2].
	want := NewFromData(2, 2, []float64{2, 0, 1, 2})
	if !Equal(c.L(), want, 1e-12) {
		t.Fatalf("L = %v, want %v", c.L(), want)
	}
}

func TestCholeskyExtendRejectsNonSPD(t *testing.T) {
	var c Cholesky
	if err := c.Extend(nil, 1); err != nil {
		t.Fatal(err)
	}
	// Border that makes the matrix singular: [1 1; 1 1].
	if err := c.Extend([]float64{1}, 1); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("error = %v, want ErrNotSPD", err)
	}
}

func TestBorderedInverseMatchesFullInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 5
	full := randomSPD(rng, n+1)
	sub := New(n, n)
	for i := 0; i < n; i++ {
		copy(sub.Row(i), full.Row(i)[:n])
	}
	var c Cholesky
	if err := c.Factorize(sub); err != nil {
		t.Fatal(err)
	}
	k := make([]float64, n)
	for i := 0; i < n; i++ {
		k[i] = full.At(i, n)
	}
	got, err := BorderedInverse(c.Inverse(), k, full.At(n, n))
	if err != nil {
		t.Fatal(err)
	}
	var cf Cholesky
	if err := cf.Factorize(full); err != nil {
		t.Fatal(err)
	}
	if !Equal(got, cf.Inverse(), 1e-7) {
		t.Fatalf("bordered inverse ≠ batch inverse")
	}
}

func TestFactorizeJittered(t *testing.T) {
	// Singular matrix becomes SPD with jitter.
	a := NewFromData(2, 2, []float64{1, 1, 1, 1})
	var c Cholesky
	jit, err := c.FactorizeJittered(a, 1e-10, 12)
	if err != nil {
		t.Fatalf("FactorizeJittered: %v", err)
	}
	if jit <= 0 {
		t.Fatalf("expected positive jitter, got %g", jit)
	}
	// Already-SPD matrix needs no jitter.
	spd := NewFromData(2, 2, []float64{2, 0, 0, 2})
	jit, err = c.FactorizeJittered(spd, 1e-10, 12)
	if err != nil || jit != 0 {
		t.Fatalf("SPD case: jit=%g err=%v", jit, err)
	}
}

func TestSolveSPD(t *testing.T) {
	a := NewFromData(2, 2, []float64{4, 1, 1, 3})
	x, err := SolveSPD(a, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	res := a.MulVec(x)
	if !almostEqual(res[0], 1, 1e-12) || !almostEqual(res[1], 2, 1e-12) {
		t.Fatalf("residual: %v", res)
	}
	if _, err := SolveSPD(NewFromData(1, 1, []float64{-1}), []float64{1}); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("expected ErrNotSPD, got %v", err)
	}
}

// Property: for random SPD matrices the incremental bordered inverse always
// matches the batch inverse. This is the correctness contract behind
// OLGAPRO's O(n²) online-tuning update (paper §5.2).
func TestQuickBorderedInverse(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		full := randomSPD(r, n+1)
		sub := New(n, n)
		for i := 0; i < n; i++ {
			copy(sub.Row(i), full.Row(i)[:n])
		}
		var c Cholesky
		if err := c.Factorize(sub); err != nil {
			return false
		}
		k := make([]float64, n)
		for i := 0; i < n; i++ {
			k[i] = full.At(i, n)
		}
		got, err := BorderedInverse(c.Inverse(), k, full.At(n, n))
		if err != nil {
			return false
		}
		var cf Cholesky
		if err := cf.Factorize(full); err != nil {
			return false
		}
		return Equal(got, cf.Inverse(), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Extend repeated from scratch reproduces the batch factorization.
func TestQuickExtendChain(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(7)
		a := randomSPD(r, n)
		var inc Cholesky
		for i := 0; i < n; i++ {
			k := make([]float64, i)
			for j := 0; j < i; j++ {
				k[j] = a.At(j, i)
			}
			if err := inc.Extend(k, a.At(i, i)); err != nil {
				return false
			}
		}
		var batch Cholesky
		if err := batch.Factorize(a); err != nil {
			return false
		}
		return Equal(inc.L(), batch.L(), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorHelpers(t *testing.T) {
	x := []float64{3, 4}
	if got := Norm2(x); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("Norm2 = %g, want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Fatalf("Norm2(nil) = %g, want 0", got)
	}
	if got := Dist2([]float64{0, 0}, x); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("Dist2 = %g, want 5", got)
	}
	if got := SqDist([]float64{0, 0}, x); !almostEqual(got, 25, 1e-12) {
		t.Fatalf("SqDist = %g, want 25", got)
	}
	y := []float64{1, 1}
	Axpy(2, x, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("Axpy = %v", y)
	}
	ScaleVec(0.5, y)
	if y[0] != 3.5 || y[1] != 4.5 {
		t.Fatalf("ScaleVec = %v", y)
	}
	if got := SumVec(y); !almostEqual(got, 8, 1e-12) {
		t.Fatalf("SumVec = %g", got)
	}
	if got := MeanVec(y); !almostEqual(got, 4, 1e-12) {
		t.Fatalf("MeanVec = %g", got)
	}
	if got := MeanVec(nil); got != 0 {
		t.Fatalf("MeanVec(nil) = %g", got)
	}
	mn, mx := MinMax([]float64{2, -1, 5})
	if mn != -1 || mx != 5 {
		t.Fatalf("MinMax = (%g,%g)", mn, mx)
	}
	o := Outer([]float64{1, 2}, []float64{3, 4})
	want := NewFromData(2, 2, []float64{3, 4, 6, 8})
	if !Equal(o, want, 0) {
		t.Fatalf("Outer = %v", o)
	}
	c := CloneVec(x)
	c[0] = 99
	if x[0] != 3 {
		t.Fatalf("CloneVec shares storage")
	}
}

func TestNorm2Overflow(t *testing.T) {
	big := math.MaxFloat64 / 4
	got := Norm2([]float64{big, big})
	if math.IsInf(got, 1) || math.IsNaN(got) {
		t.Fatalf("Norm2 overflowed: %g", got)
	}
	want := big * math.Sqrt2
	if math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("Norm2 = %g, want %g", got, want)
	}
}

func BenchmarkCholeskyFactorize128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomSPD(rng, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var c Cholesky
		if err := c.Factorize(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholeskyExtend128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	full := randomSPD(rng, 129)
	sub := New(128, 128)
	for i := 0; i < 128; i++ {
		copy(sub.Row(i), full.Row(i)[:128])
	}
	k := make([]float64, 128)
	for i := range k {
		k[i] = full.At(i, 128)
	}
	var base Cholesky
	if err := base.Factorize(sub); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := base.Clone()
		if err := c.Extend(k, full.At(128, 128)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCholeskyRank1UpdateMatchesRefactorize(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 5, 12, 30} {
		a := randomSPD(rng, n)
		var c Cholesky
		if err := c.Factorize(a); err != nil {
			t.Fatal(err)
		}
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		// A' = A + vvᵀ, both incrementally and from scratch.
		vc := make([]float64, n)
		copy(vc, v)
		if err := c.Rank1Update(vc); err != nil {
			t.Fatalf("n=%d: Rank1Update: %v", n, err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Add(i, j, v[i]*v[j])
			}
		}
		var batch Cholesky
		if err := batch.Factorize(a); err != nil {
			t.Fatal(err)
		}
		if !Equal(c.L(), batch.L(), 1e-8*a.MaxAbs()) {
			t.Fatalf("n=%d: rank-1 updated factor ≠ batch factor", n)
		}
	}
}

func TestCholeskyRank1UpdateChain(t *testing.T) {
	// Many consecutive updates must stay consistent with the accumulated
	// matrix — this is exactly the sparse-GP absorb pattern.
	rng := rand.New(rand.NewSource(12))
	n := 8
	a := randomSPD(rng, n)
	var c Cholesky
	if err := c.Factorize(a); err != nil {
		t.Fatal(err)
	}
	v := make([]float64, n)
	vc := make([]float64, n)
	for step := 0; step < 50; step++ {
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		copy(vc, v)
		if err := c.Rank1Update(vc); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Add(i, j, v[i]*v[j])
			}
		}
	}
	recon := Mul(c.L(), c.L().T())
	if !Equal(recon, a, 1e-8*a.MaxAbs()) {
		t.Fatal("chained rank-1 updates diverged from accumulated matrix")
	}
	// The factor must still solve correctly.
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := c.SolveVec(b)
	res := a.MulVec(x)
	for i := range res {
		if !almostEqual(res[i], b[i], 1e-6*(1+math.Abs(b[i]))) {
			t.Fatalf("residual[%d] = %g", i, res[i]-b[i])
		}
	}
}

func TestCholeskyRank1UpdateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 16
	a := randomSPD(rng, n)
	var c Cholesky
	if err := c.Factorize(a); err != nil {
		t.Fatal(err)
	}
	v := make([]float64, n)
	allocs := testing.AllocsPerRun(100, func() {
		for i := range v {
			v[i] = 0.01
		}
		if err := c.Rank1Update(v); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Rank1Update allocated %v times per run, want 0", allocs)
	}
}

// TestForwardSolve4ToMatchesForwardSolveTo pins the interleaved four-RHS
// forward solve to four independent ForwardSolveTo calls bit for bit, for
// every size up to 40, including a destination aliasing its right-hand side.
func TestForwardSolve4ToMatchesForwardSolveTo(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for n := 0; n <= 40; n++ {
		var c Cholesky
		if err := c.Factorize(randomSPD(rng, n)); err != nil {
			t.Fatalf("n=%d: Factorize: %v", n, err)
		}
		var b, want, got [4][]float64
		for j := range b {
			b[j] = make([]float64, n)
			for i := range b[j] {
				b[j][i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
			want[j] = c.ForwardSolveTo(make([]float64, n), b[j])
			got[j] = make([]float64, n)
		}
		// dst3 aliases b3: the in-place form local inference may use.
		got[3] = append(got[3][:0], b[3]...)
		c.ForwardSolve4To(got[0], got[1], got[2], got[3], b[0], b[1], b[2], got[3])
		for j := range got {
			for i := range got[j] {
				if math.Float64bits(got[j][i]) != math.Float64bits(want[j][i]) {
					t.Fatalf("n=%d rhs %d: y[%d] = %v, ForwardSolveTo gives %v", n, j, i, got[j][i], want[j][i])
				}
			}
		}
	}
}
