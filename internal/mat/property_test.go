package mat

import (
	"math"
	"math/rand"
	"testing"
)

// ridgedSPD returns a random symmetric positive definite n×n matrix
// A = B Bᵀ + ridge·I with B entries ~ N(0,1).
func ridgedSPD(rng *rand.Rand, n int, ridge float64) *Matrix {
	b := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += b.At(i, k) * b.At(j, k)
			}
			if i == j {
				s += ridge
			}
			a.Set(i, j, s)
			a.Set(j, i, s)
		}
	}
	return a
}

func gaussVec(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

// naiveSolve solves a x = b by O(n³) Gaussian elimination on a dense copy —
// the independent reference every Cholesky-based solve is differential-tested
// against. SPD systems are stable without pivoting, which keeps the reference
// trivially auditable.
func naiveSolve(t *testing.T, a *Matrix, b []float64) []float64 {
	t.Helper()
	n := a.Rows()
	w := New(n, n+1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			w.Set(i, j, a.At(i, j))
		}
		w.Set(i, n, b[i])
	}
	for col := 0; col < n; col++ {
		if w.At(col, col) == 0 {
			t.Fatal("naiveSolve: zero pivot")
		}
		inv := 1 / w.At(col, col)
		for r := col + 1; r < n; r++ {
			f := w.At(r, col) * inv
			for j := col; j <= n; j++ {
				w.Add(r, j, -f*w.At(col, j))
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := w.At(i, n)
		for j := i + 1; j < n; j++ {
			s -= w.At(i, j) * x[j]
		}
		x[i] = s / w.At(i, i)
	}
	return x
}

const propTol = 1e-9

func relClose(a, b float64) bool {
	return math.Abs(a-b) <= propTol*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// TestCholeskyFactorizeReconstructs checks L·Lᵀ == A on random SPD matrices.
func TestCholeskyFactorizeReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 8, 25, 60} {
		a := ridgedSPD(rng, n, 0.5)
		var c Cholesky
		if err := c.Factorize(a); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				var s float64
				li, lj := c.LRow(i), c.LRow(j)
				for k := 0; k <= j; k++ {
					s += li[k] * lj[k]
				}
				if !relClose(s, a.At(i, j)) {
					t.Fatalf("n=%d: (LLᵀ)[%d][%d]=%g ≠ %g", n, i, j, s, a.At(i, j))
				}
			}
		}
	}
}

// TestCholeskySolveVsNaive differential-tests SolveVecTo and ForwardSolveTo
// against Gaussian elimination.
func TestCholeskySolveVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		a := ridgedSPD(rng, n, 1.0)
		b := gaussVec(rng, n)
		var c Cholesky
		if err := c.Factorize(a); err != nil {
			t.Fatal(err)
		}
		want := naiveSolve(t, a, b)
		got := make([]float64, n)
		c.SolveVecTo(got, b)
		for i := range got {
			if !relClose(got[i], want[i]) {
				t.Fatalf("trial %d n=%d: x[%d]=%g ≠ %g", trial, n, i, got[i], want[i])
			}
		}
		// ForwardSolveTo: L y = b ⇒ reconstruct b from L y.
		y := make([]float64, n)
		c.ForwardSolveTo(y, b)
		for i := 0; i < n; i++ {
			var s float64
			row := c.LRow(i)
			for k := 0; k <= i; k++ {
				s += row[k] * y[k]
			}
			if !relClose(s, b[i]) {
				t.Fatalf("trial %d: (L y)[%d]=%g ≠ b=%g", trial, i, s, b[i])
			}
		}
	}
}

// TestCholeskyExtendMatchesFactorize grows a factorization column by column
// and checks it matches a from-scratch factorization of each leading block.
func TestCholeskyExtendMatchesFactorize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 30
	a := ridgedSPD(rng, n, 1.0)
	var inc Cholesky
	for k := 1; k <= n; k++ {
		if k == 1 {
			one := New(1, 1)
			one.Set(0, 0, a.At(0, 0))
			if err := inc.Factorize(one); err != nil {
				t.Fatal(err)
			}
		} else {
			border := make([]float64, k-1)
			for j := 0; j < k-1; j++ {
				border[j] = a.At(k-1, j)
			}
			if err := inc.Extend(border, a.At(k-1, k-1)); err != nil {
				t.Fatalf("extend to %d: %v", k, err)
			}
		}
		sub := New(k, k)
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				sub.Set(i, j, a.At(i, j))
			}
		}
		var ref Cholesky
		if err := ref.Factorize(sub); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			ri, ii := ref.LRow(i), inc.LRow(i)
			for j := 0; j <= i; j++ {
				if !relClose(ri[j], ii[j]) {
					t.Fatalf("k=%d: L[%d][%d] incremental %g ≠ scratch %g", k, i, j, ii[j], ri[j])
				}
			}
		}
	}
}

// TestRankOneVarianceIdentity pins the algebra behind the greedy-tuning fast
// path: for the bordered SPD system A' = [A k; kᵀ κ] and any probe with
// cross-covariances (a to the base points, c to the border point) and prior
// p, the extended-factor variance
//
//	p − ‖L'⁻¹ [a; c]‖²
//
// equals the rank-1 update
//
//	(p − ‖L⁻¹a‖²) − (c − aᵀA⁻¹k)² / (κ − kᵀA⁻¹k),
//
// which is exactly the clone-based trial the rank-1 path replaced.
func TestRankOneVarianceIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(25)
		a := ridgedSPD(rng, n, 1.0)
		k := gaussVec(rng, n)
		// κ big enough to keep the bordered matrix SPD.
		u := naiveSolve(t, a, k)
		kappa := Dot(k, u) + 0.5 + rng.Float64()
		probeA := gaussVec(rng, n)
		probeC := rng.NormFloat64()
		prior := 5 + rng.Float64()

		var base Cholesky
		if err := base.Factorize(a); err != nil {
			t.Fatal(err)
		}
		ext := base.Clone()
		if err := ext.Extend(k, kappa); err != nil {
			t.Fatal(err)
		}
		// Reference: variance through the extended factor.
		full := make([]float64, n+1)
		copy(full, probeA)
		full[n] = probeC
		fs := make([]float64, n+1)
		ext.ForwardSolveTo(fs, full)
		want := prior - Dot(fs, fs)
		// Rank-1: base variance minus the posterior-covariance term.
		fsBase := make([]float64, n)
		base.ForwardSolveTo(fsBase, probeA)
		vBase := prior - Dot(fsBase, fsBase)
		ua := naiveSolve(t, a, probeA)
		cov := probeC - Dot(k, ua)
		schur := kappa - Dot(k, u)
		got := vBase - cov*cov/schur
		if !relClose(got, want) {
			t.Fatalf("trial %d n=%d: rank-1 variance %g ≠ extended %g", trial, n, got, want)
		}
	}
}

// TestRankOneMeanIdentity pins the companion mean identity: solving the
// bordered system for [y; yNew] and predicting with cross-vector [a; c]
// equals the base prediction plus (yNew − m̂_c)·cov/schur, where m̂_c is the
// base prediction at the border point.
func TestRankOneMeanIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(25)
		a := ridgedSPD(rng, n, 1.0)
		k := gaussVec(rng, n)
		u := naiveSolve(t, a, k)
		kappa := Dot(k, u) + 0.5 + rng.Float64()
		y := gaussVec(rng, n)
		yNew := rng.NormFloat64()
		probeA := gaussVec(rng, n)
		probeC := rng.NormFloat64()

		var base Cholesky
		if err := base.Factorize(a); err != nil {
			t.Fatal(err)
		}
		ext := base.Clone()
		if err := ext.Extend(k, kappa); err != nil {
			t.Fatal(err)
		}
		yFull := make([]float64, n+1)
		copy(yFull, y)
		yFull[n] = yNew
		alphaExt := ext.SolveVec(yFull)
		full := make([]float64, n+1)
		copy(full, probeA)
		full[n] = probeC
		want := Dot(full, alphaExt)

		alphaBase := base.SolveVec(y)
		mBase := Dot(probeA, alphaBase)
		mC := Dot(k, alphaBase)
		cov := probeC - Dot(k, naiveSolve(t, a, probeA))
		schur := kappa - Dot(k, u)
		got := mBase + (yNew-mC)*cov/schur
		if !relClose(got, want) {
			t.Fatalf("trial %d n=%d: rank-1 mean %g ≠ bordered %g", trial, n, got, want)
		}
	}
}

// TestSqDistRowsToMatchesSqDist checks the batched squared-distance core is
// bit-identical to per-row SqDist across dimensions, including the
// specialized d ∈ {1,2,3} paths.
func TestSqDistRowsToMatchesSqDist(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, d := range []int{1, 2, 3, 4, 7, 16} {
		for _, n := range []int{0, 1, 5, 33} {
			xs := make([][]float64, n)
			for i := range xs {
				xs[i] = gaussVec(rng, d)
			}
			y := gaussVec(rng, d)
			dst := make([]float64, n)
			SqDistRowsTo(dst, xs, y)
			for i := range xs {
				if want := SqDist(xs[i], y); dst[i] != want {
					t.Fatalf("d=%d n=%d row %d: %g ≠ %g (must be bit-identical)", d, n, i, dst[i], want)
				}
			}
		}
	}
	// Length mismatches must panic like the scalar path.
	mustPanic := func(f func()) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		f()
	}
	mustPanic(func() { SqDistRowsTo(make([]float64, 1), make([][]float64, 2), nil) })
	mustPanic(func() { SqDistRowsTo(make([]float64, 1), [][]float64{{1, 2}}, []float64{1}) })
}
